// Package fs implements the in-memory filesystem used by the simulated
// kernel.
//
// Overhaul's device mediation lives on the open(2) syscall path: the
// kernel resolves a path, applies the normal UNIX permission checks,
// and — when the target is a privacy-sensitive device node — additionally
// consults the permission monitor. Reproducing that faithfully (and
// reproducing the Bonnie++ row of Table I, which stresses file creation
// through the modified open path) requires a real filesystem substrate
// with inodes, directories, UNIX permission bits, and device nodes. This
// package provides exactly that, with no Overhaul logic of its own; the
// kernel layers mediation on top.
package fs

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"overhaul/internal/clock"
)

// NodeKind identifies what an inode represents.
type NodeKind int

// Node kinds. Enums start at one so the zero value is invalid.
const (
	KindRegular NodeKind = iota + 1
	KindDirectory
	KindDevice
	KindFIFO
)

// String returns a short human-readable kind name.
func (k NodeKind) String() string {
	switch k {
	case KindRegular:
		return "regular"
	case KindDirectory:
		return "directory"
	case KindDevice:
		return "device"
	case KindFIFO:
		return "fifo"
	default:
		return fmt.Sprintf("NodeKind(%d)", int(k))
	}
}

// Mode holds UNIX permission bits (the low 9 bits: rwxrwxrwx).
type Mode uint16

// Permission bit masks for Mode.
const (
	PermOwnerRead  Mode = 0o400
	PermOwnerWrite Mode = 0o200
	PermOwnerExec  Mode = 0o100
	PermGroupRead  Mode = 0o040
	PermGroupWrite Mode = 0o020
	PermGroupExec  Mode = 0o010
	PermOtherRead  Mode = 0o004
	PermOtherWrite Mode = 0o002
	PermOtherExec  Mode = 0o001
)

// Cred identifies the subject performing a filesystem operation.
type Cred struct {
	UID int
	GID int
}

// Root is the superuser credential. UID 0 bypasses permission checks,
// exactly as in UNIX.
var Root = Cred{UID: 0, GID: 0}

// Access is the kind of access requested when opening a node.
type Access int

// Access modes.
const (
	AccessRead Access = iota + 1
	AccessWrite
	AccessReadWrite
)

// Sentinel errors returned by filesystem operations. Callers match them
// with errors.Is.
var (
	ErrNotExist     = errors.New("no such file or directory")
	ErrExist        = errors.New("file exists")
	ErrPermission   = errors.New("permission denied")
	ErrNotDirectory = errors.New("not a directory")
	ErrIsDirectory  = errors.New("is a directory")
	ErrInvalidPath  = errors.New("invalid path")
	ErrNotEmpty     = errors.New("directory not empty")
	ErrClosed       = errors.New("file handle closed")
	ErrReadOnly     = errors.New("handle not open for writing")
	ErrWriteOnly    = errors.New("handle not open for reading")
)

// Stat describes an inode. It is a value copy; mutating it does not
// affect the filesystem.
type Stat struct {
	Path    string
	Kind    NodeKind
	Mode    Mode
	Owner   Cred
	Size    int
	Ino     uint64
	Device  string // device class, only for KindDevice
	Created time.Time
	Mod     time.Time
}

// node is an inode plus directory linkage.
type node struct {
	kind     NodeKind
	mode     Mode
	owner    Cred
	ino      uint64
	device   string // device class for device nodes
	data     []byte
	children map[string]*node
	created  time.Time
	mod      time.Time
}

// FS is an in-memory hierarchical filesystem. It is safe for concurrent
// use. The zero value is not usable; construct with New.
type FS struct {
	clk clock.Clock

	mu      sync.RWMutex
	root    *node
	nextIno uint64
}

// New returns an empty filesystem whose root directory is owned by root
// with mode 0755. Timestamps come from clk.
func New(clk clock.Clock) *FS {
	if clk == nil {
		clk = clock.System{}
	}
	f := &FS{clk: clk, nextIno: 2} // ino 1 is the root, as on ext*
	now := clk.Now()
	f.root = &node{
		kind:     KindDirectory,
		mode:     0o755,
		owner:    Root,
		ino:      1,
		children: make(map[string]*node),
		created:  now,
		mod:      now,
	}
	return f
}

// trimPath validates an absolute path and returns its components
// joined by single slashes, with the leading and trailing slashes cut
// ("" for the root itself). It rejects relative paths and empty, "."
// and ".." components. Callers walk the result in place with
// strings.Cut, so resolving a path allocates nothing.
func trimPath(path string) (string, error) {
	if path == "" || path[0] != '/' {
		return "", fmt.Errorf("%w: %q", ErrInvalidPath, path)
	}
	trimmed := strings.Trim(path, "/")
	for rest := trimmed; rest != ""; {
		var p string
		p, rest, _ = strings.Cut(rest, "/")
		if p == "" || p == "." || p == ".." {
			return "", fmt.Errorf("%w: %q", ErrInvalidPath, path)
		}
	}
	return trimmed, nil
}

// checkPerm reports whether cred may perform the given access on n.
func checkPerm(n *node, cred Cred, access Access) bool {
	if cred.UID == 0 {
		return true
	}
	var read, write Mode
	switch {
	case cred.UID == n.owner.UID:
		read, write = PermOwnerRead, PermOwnerWrite
	case cred.GID == n.owner.GID:
		read, write = PermGroupRead, PermGroupWrite
	default:
		read, write = PermOtherRead, PermOtherWrite
	}
	switch access {
	case AccessRead:
		return n.mode&read != 0
	case AccessWrite:
		return n.mode&write != 0
	case AccessReadWrite:
		return n.mode&read != 0 && n.mode&write != 0
	default:
		return false
	}
}

// lookup walks the tree to the node at path. Requires f.mu held.
func (f *FS) lookup(path string) (*node, error) {
	rest, err := trimPath(path)
	if err != nil {
		return nil, err
	}
	cur := f.root
	for rest != "" {
		var p string
		p, rest, _ = strings.Cut(rest, "/")
		if cur.kind != KindDirectory {
			return nil, fmt.Errorf("%s: %w", path, ErrNotDirectory)
		}
		next, ok := cur.children[p]
		if !ok {
			return nil, fmt.Errorf("%s: %w", path, ErrNotExist)
		}
		cur = next
	}
	return cur, nil
}

// lookupParent resolves the parent directory of path and returns it with
// the final component name. Requires f.mu held.
func (f *FS) lookupParent(path string) (*node, string, error) {
	trimmed, err := trimPath(path)
	if err != nil {
		return nil, "", err
	}
	if trimmed == "" {
		return nil, "", fmt.Errorf("%w: %q refers to the root", ErrInvalidPath, path)
	}
	rest, name := "", trimmed
	if i := strings.LastIndexByte(trimmed, '/'); i >= 0 {
		rest, name = trimmed[:i], trimmed[i+1:]
	}
	cur := f.root
	for rest != "" {
		var p string
		p, rest, _ = strings.Cut(rest, "/")
		next, ok := cur.children[p]
		if !ok {
			return nil, "", fmt.Errorf("%s: %w", path, ErrNotExist)
		}
		if next.kind != KindDirectory {
			return nil, "", fmt.Errorf("%s: %w", path, ErrNotDirectory)
		}
		cur = next
	}
	return cur, name, nil
}

// newNode allocates an inode. Requires f.mu held.
func (f *FS) newNode(kind NodeKind, mode Mode, owner Cred) *node {
	now := f.clk.Now()
	n := &node{
		kind:    kind,
		mode:    mode,
		owner:   owner,
		ino:     f.nextIno,
		created: now,
		mod:     now,
	}
	f.nextIno++
	if kind == KindDirectory {
		n.children = make(map[string]*node)
	}
	return n
}

// Mkdir creates a directory at path. The parent must exist and be
// writable by cred.
func (f *FS) Mkdir(path string, mode Mode, cred Cred) error {
	f.mu.Lock()
	defer f.mu.Unlock()

	parent, name, err := f.lookupParent(path)
	if err != nil {
		return err
	}
	// POSIX reports EEXIST before EACCES, which MkdirAll relies on to
	// walk through existing root-owned path prefixes.
	if _, ok := parent.children[name]; ok {
		return fmt.Errorf("mkdir %s: %w", path, ErrExist)
	}
	if !checkPerm(parent, cred, AccessWrite) {
		return fmt.Errorf("mkdir %s: %w", path, ErrPermission)
	}
	parent.children[name] = f.newNode(KindDirectory, mode, cred)
	parent.mod = f.clk.Now()
	return nil
}

// MkdirAll creates a directory at path along with any missing parents.
// Existing directories along the way are accepted.
func (f *FS) MkdirAll(path string, mode Mode, cred Cred) error {
	trimmed, err := trimPath(path)
	if err != nil {
		return err
	}
	for rest := trimmed; rest != ""; {
		_, rest, _ = strings.Cut(rest, "/")
		prefix := strings.TrimSuffix(trimmed[:len(trimmed)-len(rest)], "/")
		err := f.Mkdir("/"+prefix, mode, cred)
		if err != nil && !errors.Is(err, ErrExist) {
			return err
		}
	}
	return nil
}

// Mknod creates a device node at path, associated with the given device
// class (e.g. "microphone"). Only root may create device nodes.
func (f *FS) Mknod(path, deviceClass string, mode Mode, cred Cred) error {
	f.mu.Lock()
	defer f.mu.Unlock()

	if cred.UID != 0 {
		return fmt.Errorf("mknod %s: %w", path, ErrPermission)
	}
	parent, name, err := f.lookupParent(path)
	if err != nil {
		return err
	}
	if _, ok := parent.children[name]; ok {
		return fmt.Errorf("mknod %s: %w", path, ErrExist)
	}
	n := f.newNode(KindDevice, mode, cred)
	n.device = deviceClass
	parent.children[name] = n
	parent.mod = f.clk.Now()
	return nil
}

// Mkfifo creates a FIFO node at path.
func (f *FS) Mkfifo(path string, mode Mode, cred Cred) error {
	f.mu.Lock()
	defer f.mu.Unlock()

	parent, name, err := f.lookupParent(path)
	if err != nil {
		return err
	}
	if !checkPerm(parent, cred, AccessWrite) {
		return fmt.Errorf("mkfifo %s: %w", path, ErrPermission)
	}
	if _, ok := parent.children[name]; ok {
		return fmt.Errorf("mkfifo %s: %w", path, ErrExist)
	}
	parent.children[name] = f.newNode(KindFIFO, mode, cred)
	parent.mod = f.clk.Now()
	return nil
}

// Create creates (or truncates) a regular file at path and returns a
// read-write handle. Creating requires write permission on the parent;
// truncating an existing file requires write permission on the file.
func (f *FS) Create(path string, mode Mode, cred Cred) (*Handle, error) {
	f.mu.Lock()
	defer f.mu.Unlock()

	parent, name, err := f.lookupParent(path)
	if err != nil {
		return nil, err
	}
	existing, ok := parent.children[name]
	if ok {
		if existing.kind == KindDirectory {
			return nil, fmt.Errorf("create %s: %w", path, ErrIsDirectory)
		}
		if !checkPerm(existing, cred, AccessWrite) {
			return nil, fmt.Errorf("create %s: %w", path, ErrPermission)
		}
		existing.data = nil
		existing.mod = f.clk.Now()
		return &Handle{fs: f, node: existing, path: path, access: AccessReadWrite}, nil
	}
	if !checkPerm(parent, cred, AccessWrite) {
		return nil, fmt.Errorf("create %s: %w", path, ErrPermission)
	}
	n := f.newNode(KindRegular, mode, cred)
	parent.children[name] = n
	parent.mod = f.clk.Now()
	return &Handle{fs: f, node: n, path: path, access: AccessReadWrite}, nil
}

// Open opens the node at path with the requested access mode, applying
// UNIX permission checks for cred. Directories cannot be opened.
func (f *FS) Open(path string, access Access, cred Cred) (*Handle, error) {
	t, err := f.Resolve(path, access, cred)
	if err != nil {
		return nil, err
	}
	return t.Open(), nil
}

// Target is a path resolved and permission-checked for one access mode
// but not yet opened. Kernel.Open resolves first, so a missing path or
// a refused permission still wins over a policy deny, and builds the
// handle only for an open that goes ahead.
type Target struct {
	fs     *FS
	node   *node
	path   string
	access Access
}

// Resolve performs Open's lookup and permission check, with its
// errors, and returns the target without opening it.
func (f *FS) Resolve(path string, access Access, cred Cred) (Target, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()

	n, err := f.lookup(path)
	if err != nil {
		return Target{}, err
	}
	if n.kind == KindDirectory {
		return Target{}, fmt.Errorf("open %s: %w", path, ErrIsDirectory)
	}
	if !checkPerm(n, cred, access) {
		return Target{}, fmt.Errorf("open %s: %w", path, ErrPermission)
	}
	return Target{fs: f, node: n, path: path, access: access}, nil
}

// Kind returns the kind of the resolved node.
func (t Target) Kind() NodeKind { return t.node.kind }

// Open opens a handle on the resolved node.
func (t Target) Open() *Handle {
	return &Handle{fs: t.fs, node: t.node, path: t.path, access: t.access}
}

// Stat returns metadata for the node at path. Stat performs no
// permission check, mirroring the fact that the paper's prototype does
// not interpose on stat (the Bonnie++ stat phase shows no overhead).
func (f *FS) Stat(path string) (Stat, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()

	n, err := f.lookup(path)
	if err != nil {
		return Stat{}, err
	}
	return Stat{
		Path:    path,
		Kind:    n.kind,
		Mode:    n.mode,
		Owner:   n.owner,
		Size:    len(n.data),
		Ino:     n.ino,
		Device:  n.device,
		Created: n.created,
		Mod:     n.mod,
	}, nil
}

// Unlink removes the file, device, or FIFO at path. Directories are
// removed only if empty.
func (f *FS) Unlink(path string, cred Cred) error {
	f.mu.Lock()
	defer f.mu.Unlock()

	parent, name, err := f.lookupParent(path)
	if err != nil {
		return err
	}
	n, ok := parent.children[name]
	if !ok {
		return fmt.Errorf("unlink %s: %w", path, ErrNotExist)
	}
	if !checkPerm(parent, cred, AccessWrite) {
		return fmt.Errorf("unlink %s: %w", path, ErrPermission)
	}
	if n.kind == KindDirectory && len(n.children) > 0 {
		return fmt.Errorf("unlink %s: %w", path, ErrNotEmpty)
	}
	delete(parent.children, name)
	parent.mod = f.clk.Now()
	return nil
}

// Chmod changes the permission bits of the node at path. Only the owner
// or root may do so.
func (f *FS) Chmod(path string, mode Mode, cred Cred) error {
	f.mu.Lock()
	defer f.mu.Unlock()

	n, err := f.lookup(path)
	if err != nil {
		return err
	}
	if cred.UID != 0 && cred.UID != n.owner.UID {
		return fmt.Errorf("chmod %s: %w", path, ErrPermission)
	}
	n.mode = mode
	n.mod = f.clk.Now()
	return nil
}

// Chown changes the ownership of the node at path. Only root may do so.
func (f *FS) Chown(path string, owner Cred, cred Cred) error {
	f.mu.Lock()
	defer f.mu.Unlock()

	n, err := f.lookup(path)
	if err != nil {
		return err
	}
	if cred.UID != 0 {
		return fmt.Errorf("chown %s: %w", path, ErrPermission)
	}
	n.owner = owner
	n.mod = f.clk.Now()
	return nil
}

// ReadDir lists the entry names in the directory at path, sorted.
func (f *FS) ReadDir(path string, cred Cred) ([]string, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()

	n, err := f.lookup(path)
	if err != nil {
		return nil, err
	}
	if n.kind != KindDirectory {
		return nil, fmt.Errorf("readdir %s: %w", path, ErrNotDirectory)
	}
	if !checkPerm(n, cred, AccessRead) {
		return nil, fmt.Errorf("readdir %s: %w", path, ErrPermission)
	}
	names := make([]string, 0, len(n.children))
	for name := range n.children {
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// WriteFile creates path with the given content, replacing any existing
// file, using Create semantics.
func (f *FS) WriteFile(path string, data []byte, mode Mode, cred Cred) error {
	h, err := f.Create(path, mode, cred)
	if err != nil {
		return err
	}
	if _, err := h.Write(data); err != nil {
		return err
	}
	return h.Close()
}

// ReadFile returns the full content of the file at path.
func (f *FS) ReadFile(path string, cred Cred) ([]byte, error) {
	h, err := f.Open(path, AccessRead, cred)
	if err != nil {
		return nil, err
	}
	defer func() { _ = h.Close() }()
	return h.ReadAll()
}
