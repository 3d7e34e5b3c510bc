package fs

import (
	"errors"
	"fmt"
	"io"
	"testing"
	"testing/quick"
	"time"

	"overhaul/internal/clock"
)

func newTestFS(t *testing.T) (*FS, *clock.Simulated) {
	t.Helper()
	clk := clock.NewSimulated()
	return New(clk), clk
}

func TestMkdirAndStat(t *testing.T) {
	f, _ := newTestFS(t)
	if err := f.Mkdir("/home", 0o755, Root); err != nil {
		t.Fatalf("Mkdir: %v", err)
	}
	st, err := f.Stat("/home")
	if err != nil {
		t.Fatalf("Stat: %v", err)
	}
	if st.Kind != KindDirectory {
		t.Fatalf("Kind = %v, want directory", st.Kind)
	}
	if st.Mode != 0o755 {
		t.Fatalf("Mode = %o, want 755", st.Mode)
	}
}

func TestMkdirAllCreatesChain(t *testing.T) {
	f, _ := newTestFS(t)
	if err := f.MkdirAll("/a/b/c", 0o755, Root); err != nil {
		t.Fatalf("MkdirAll: %v", err)
	}
	for _, p := range []string{"/a", "/a/b", "/a/b/c"} {
		if _, err := f.Stat(p); err != nil {
			t.Fatalf("Stat(%s): %v", p, err)
		}
	}
	// Idempotent.
	if err := f.MkdirAll("/a/b/c", 0o755, Root); err != nil {
		t.Fatalf("MkdirAll twice: %v", err)
	}
}

func TestCreateWriteRead(t *testing.T) {
	f, _ := newTestFS(t)
	h, err := f.Create("/note.txt", 0o644, Root)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if _, err := h.Write([]byte("hello overhaul")); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if err := h.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	data, err := f.ReadFile("/note.txt", Root)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if string(data) != "hello overhaul" {
		t.Fatalf("content = %q", data)
	}
}

func TestCreateTruncatesExisting(t *testing.T) {
	f, _ := newTestFS(t)
	if err := f.WriteFile("/x", []byte("long content"), 0o644, Root); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	if err := f.WriteFile("/x", []byte("s"), 0o644, Root); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	data, err := f.ReadFile("/x", Root)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if string(data) != "s" {
		t.Fatalf("content = %q, want truncated to %q", data, "s")
	}
}

func TestPermissionChecks(t *testing.T) {
	alice := Cred{UID: 1000, GID: 1000}
	bob := Cred{UID: 1001, GID: 1001}
	groupmate := Cred{UID: 1002, GID: 1000}

	tests := []struct {
		name    string
		mode    Mode
		cred    Cred
		access  Access
		wantErr bool
	}{
		{name: "owner read allowed", mode: 0o600, cred: alice, access: AccessRead},
		{name: "owner write allowed", mode: 0o600, cred: alice, access: AccessWrite},
		{name: "other read denied", mode: 0o600, cred: bob, access: AccessRead, wantErr: true},
		{name: "other read allowed with 644", mode: 0o644, cred: bob, access: AccessRead},
		{name: "other write denied with 644", mode: 0o644, cred: bob, access: AccessWrite, wantErr: true},
		{name: "group read allowed with 640", mode: 0o640, cred: groupmate, access: AccessRead},
		{name: "group write denied with 640", mode: 0o640, cred: groupmate, access: AccessWrite, wantErr: true},
		{name: "root bypasses", mode: 0o000, cred: Root, access: AccessReadWrite},
		{name: "readwrite needs both", mode: 0o400, cred: alice, access: AccessReadWrite, wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			f, _ := newTestFS(t)
			if err := f.Chmod("/", 0o777, Root); err != nil {
				t.Fatalf("Chmod /: %v", err)
			}
			h, err := f.Create("/f", 0o666, alice)
			if err != nil {
				t.Fatalf("Create: %v", err)
			}
			if err := h.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			if err := f.Chmod("/f", tt.mode, alice); err != nil {
				t.Fatalf("Chmod: %v", err)
			}
			_, err = f.Open("/f", tt.access, tt.cred)
			if tt.wantErr {
				if !errors.Is(err, ErrPermission) {
					t.Fatalf("Open = %v, want ErrPermission", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
		})
	}
}

func TestMknodRootOnly(t *testing.T) {
	f, _ := newTestFS(t)
	if err := f.MkdirAll("/dev", 0o755, Root); err != nil {
		t.Fatalf("MkdirAll: %v", err)
	}
	user := Cred{UID: 1000, GID: 1000}
	if err := f.Mknod("/dev/mic", "microphone", 0o666, user); !errors.Is(err, ErrPermission) {
		t.Fatalf("Mknod as user = %v, want ErrPermission", err)
	}
	if err := f.Mknod("/dev/mic", "microphone", 0o666, Root); err != nil {
		t.Fatalf("Mknod as root: %v", err)
	}
	st, err := f.Stat("/dev/mic")
	if err != nil {
		t.Fatalf("Stat: %v", err)
	}
	if st.Kind != KindDevice || st.Device != "microphone" {
		t.Fatalf("Stat = %+v, want device node of class microphone", st)
	}
}

func TestUnlink(t *testing.T) {
	f, _ := newTestFS(t)
	if err := f.WriteFile("/gone", nil, 0o644, Root); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	if err := f.Unlink("/gone", Root); err != nil {
		t.Fatalf("Unlink: %v", err)
	}
	if _, err := f.Stat("/gone"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("Stat after unlink = %v, want ErrNotExist", err)
	}
}

func TestUnlinkNonEmptyDirectory(t *testing.T) {
	f, _ := newTestFS(t)
	if err := f.MkdirAll("/d/sub", 0o755, Root); err != nil {
		t.Fatalf("MkdirAll: %v", err)
	}
	if err := f.Unlink("/d", Root); !errors.Is(err, ErrNotEmpty) {
		t.Fatalf("Unlink = %v, want ErrNotEmpty", err)
	}
	if err := f.Unlink("/d/sub", Root); err != nil {
		t.Fatalf("Unlink sub: %v", err)
	}
	if err := f.Unlink("/d", Root); err != nil {
		t.Fatalf("Unlink empty dir: %v", err)
	}
}

func TestInvalidPaths(t *testing.T) {
	f, _ := newTestFS(t)
	for _, p := range []string{"", "relative", "/a//b", "/a/./b", "/a/../b"} {
		if _, err := f.Stat(p); !errors.Is(err, ErrInvalidPath) && !errors.Is(err, ErrNotExist) {
			t.Errorf("Stat(%q) = %v, want invalid-path or not-exist", p, err)
		}
		if err := f.Mkdir(p, 0o755, Root); err == nil {
			t.Errorf("Mkdir(%q) succeeded, want error", p)
		}
	}
}

func TestReadDirSorted(t *testing.T) {
	f, _ := newTestFS(t)
	for _, name := range []string{"/c", "/a", "/b"} {
		if err := f.WriteFile(name, nil, 0o644, Root); err != nil {
			t.Fatalf("WriteFile(%s): %v", name, err)
		}
	}
	names, err := f.ReadDir("/", Root)
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	want := []string{"a", "b", "c"}
	if len(names) != len(want) {
		t.Fatalf("ReadDir = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("ReadDir = %v, want %v", names, want)
		}
	}
}

func TestHandleOffsetSemantics(t *testing.T) {
	f, _ := newTestFS(t)
	if err := f.WriteFile("/f", []byte("abcdef"), 0o644, Root); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	h, err := f.Open("/f", AccessRead, Root)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	buf := make([]byte, 3)
	if _, err := io.ReadFull(h, buf); err != nil {
		t.Fatalf("ReadFull: %v", err)
	}
	if string(buf) != "abc" {
		t.Fatalf("first read = %q", buf)
	}
	rest, err := h.ReadAll()
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if string(rest) != "def" {
		t.Fatalf("rest = %q", rest)
	}
	if _, err := h.Read(buf); err != io.EOF {
		t.Fatalf("read at EOF = %v, want io.EOF", err)
	}
	if err := h.Seek(1); err != nil {
		t.Fatalf("Seek: %v", err)
	}
	rest, err = h.ReadAll()
	if err != nil {
		t.Fatalf("ReadAll after seek: %v", err)
	}
	if string(rest) != "bcdef" {
		t.Fatalf("after seek = %q", rest)
	}
}

func TestHandleAccessEnforcement(t *testing.T) {
	f, _ := newTestFS(t)
	if err := f.WriteFile("/f", []byte("x"), 0o666, Root); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	ro, err := f.Open("/f", AccessRead, Root)
	if err != nil {
		t.Fatalf("Open ro: %v", err)
	}
	if _, err := ro.Write([]byte("y")); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Write on ro handle = %v, want ErrReadOnly", err)
	}
	wo, err := f.Open("/f", AccessWrite, Root)
	if err != nil {
		t.Fatalf("Open wo: %v", err)
	}
	if _, err := wo.Read(make([]byte, 1)); !errors.Is(err, ErrWriteOnly) {
		t.Fatalf("Read on wo handle = %v, want ErrWriteOnly", err)
	}
}

func TestHandleDoubleClose(t *testing.T) {
	f, _ := newTestFS(t)
	h, err := f.Create("/f", 0o644, Root)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if err := h.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := h.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("second Close = %v, want ErrClosed", err)
	}
	if _, err := h.Read(make([]byte, 1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Read after close = %v, want ErrClosed", err)
	}
}

func TestChownRootOnly(t *testing.T) {
	f, _ := newTestFS(t)
	alice := Cred{UID: 1000, GID: 1000}
	if err := f.Chmod("/", 0o777, Root); err != nil {
		t.Fatalf("Chmod /: %v", err)
	}
	if err := f.WriteFile("/f", nil, 0o644, alice); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	if err := f.Chown("/f", Root, alice); !errors.Is(err, ErrPermission) {
		t.Fatalf("Chown as user = %v, want ErrPermission", err)
	}
	if err := f.Chown("/f", Cred{UID: 5, GID: 5}, Root); err != nil {
		t.Fatalf("Chown as root: %v", err)
	}
	st, err := f.Stat("/f")
	if err != nil {
		t.Fatalf("Stat: %v", err)
	}
	if st.Owner.UID != 5 {
		t.Fatalf("owner = %+v, want uid 5", st.Owner)
	}
}

func TestModTimeAdvances(t *testing.T) {
	f, clk := newTestFS(t)
	if err := f.WriteFile("/f", []byte("a"), 0o644, Root); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	st1, err := f.Stat("/f")
	if err != nil {
		t.Fatalf("Stat: %v", err)
	}
	clk.Advance(time.Minute)
	h, err := f.Open("/f", AccessWrite, Root)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, err := h.Write([]byte("b")); err != nil {
		t.Fatalf("Write: %v", err)
	}
	st2, err := f.Stat("/f")
	if err != nil {
		t.Fatalf("Stat: %v", err)
	}
	if !st2.Mod.After(st1.Mod) {
		t.Fatalf("mod time did not advance: %v -> %v", st1.Mod, st2.Mod)
	}
}

func TestInodeNumbersUnique(t *testing.T) {
	f, _ := newTestFS(t)
	seen := make(map[uint64]string)
	for i := 0; i < 50; i++ {
		p := fmt.Sprintf("/f%d", i)
		if err := f.WriteFile(p, nil, 0o644, Root); err != nil {
			t.Fatalf("WriteFile: %v", err)
		}
		st, err := f.Stat(p)
		if err != nil {
			t.Fatalf("Stat: %v", err)
		}
		if prev, dup := seen[st.Ino]; dup {
			t.Fatalf("inode %d reused for %s and %s", st.Ino, prev, p)
		}
		seen[st.Ino] = p
	}
}

// Property: a write followed by a full read returns the written bytes,
// for arbitrary content.
func TestWriteReadRoundTripProperty(t *testing.T) {
	f, _ := newTestFS(t)
	i := 0
	roundTrip := func(data []byte) bool {
		i++
		p := fmt.Sprintf("/prop%d", i)
		if err := f.WriteFile(p, data, 0o644, Root); err != nil {
			return false
		}
		got, err := f.ReadFile(p, Root)
		if err != nil {
			return false
		}
		if len(got) != len(data) {
			return false
		}
		for j := range data {
			if got[j] != data[j] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(roundTrip, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: ReadFile never aliases the inode's buffer — mutating the
// returned slice must not corrupt the file (copy-at-boundary).
func TestReadFileReturnsCopy(t *testing.T) {
	f, _ := newTestFS(t)
	if err := f.WriteFile("/f", []byte("immutable"), 0o644, Root); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	got, err := f.ReadFile("/f", Root)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	for i := range got {
		got[i] = 'X'
	}
	again, err := f.ReadFile("/f", Root)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if string(again) != "immutable" {
		t.Fatalf("file corrupted by caller mutation: %q", again)
	}
}

func TestNodeKindString(t *testing.T) {
	tests := []struct {
		kind NodeKind
		want string
	}{
		{KindRegular, "regular"},
		{KindDirectory, "directory"},
		{KindDevice, "device"},
		{KindFIFO, "fifo"},
		{NodeKind(99), "NodeKind(99)"},
	}
	for _, tt := range tests {
		if got := tt.kind.String(); got != tt.want {
			t.Errorf("%d.String() = %q, want %q", tt.kind, got, tt.want)
		}
	}
}

func TestOpenDirectoryFails(t *testing.T) {
	f, _ := newTestFS(t)
	if err := f.Mkdir("/d", 0o755, Root); err != nil {
		t.Fatalf("Mkdir: %v", err)
	}
	if _, err := f.Open("/d", AccessRead, Root); !errors.Is(err, ErrIsDirectory) {
		t.Fatalf("Open dir = %v, want ErrIsDirectory", err)
	}
}

func TestLookupThroughFileFails(t *testing.T) {
	f, _ := newTestFS(t)
	if err := f.WriteFile("/f", nil, 0o644, Root); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	if _, err := f.Stat("/f/child"); !errors.Is(err, ErrNotDirectory) {
		t.Fatalf("Stat through file = %v, want ErrNotDirectory", err)
	}
}

// TestPathErrorIdentity pins which error a bad path reports, for the
// full-path walk (Stat) and the parent walk (Mkdir). The whole path is
// validated before the walk, so ErrInvalidPath wins even when an
// earlier component is missing or is a file.
func TestPathErrorIdentity(t *testing.T) {
	f, _ := newTestFS(t)
	if err := f.MkdirAll("/d/e", 0o755, Root); err != nil {
		t.Fatalf("MkdirAll: %v", err)
	}
	if err := f.WriteFile("/d/file", nil, 0o644, Root); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	tests := []struct {
		path string
		want error
	}{
		{"", ErrInvalidPath},
		{"relative/x", ErrInvalidPath},
		{"/d//e/x", ErrInvalidPath},
		{"/d/./e/x", ErrInvalidPath},
		{"/missing/../x", ErrInvalidPath},
		{"/missing/x/.", ErrInvalidPath},
		{"/d/file/x/..", ErrInvalidPath},
		{"/missing/x", ErrNotExist},
		{"/d/missing/x", ErrNotExist},
		{"/d/file/x/y", ErrNotDirectory},
	}
	for _, tt := range tests {
		if _, err := f.Stat(tt.path); !errors.Is(err, tt.want) {
			t.Errorf("Stat(%q) = %v, want %v", tt.path, err, tt.want)
		}
		if err := f.Mkdir(tt.path, 0o755, Root); !errors.Is(err, tt.want) {
			t.Errorf("Mkdir(%q) = %v, want %v", tt.path, err, tt.want)
		}
	}
}

// TestStatDeepPathZeroAlloc pins that resolving a path allocates
// nothing: the walk cuts components out of the path in place.
func TestStatDeepPathZeroAlloc(t *testing.T) {
	f, _ := newTestFS(t)
	const deep = "/a/b/c/d/e/f/g/h"
	if err := f.MkdirAll(deep, 0o755, Root); err != nil {
		t.Fatalf("MkdirAll: %v", err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := f.Stat(deep + "/"); err != nil {
			t.Fatalf("Stat: %v", err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Stat(%q) allocates %.1f times per call, want 0", deep, allocs)
	}
}
