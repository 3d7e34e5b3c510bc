// Package kernel implements the simulated operating-system kernel that
// Overhaul is retrofitted into.
//
// It reproduces the pieces of Linux the paper modifies or relies on
// (§IV-B): a process table whose task structs carry the interaction
// timestamp, fork/clone that duplicate it (propagation policy P1), an
// open(2) path with UNIX permission checks plus sensitive-device
// mediation, the udev mapping sink, process introspection used to
// authenticate the netlink peer, and the ptrace guard that disables a
// debugged process's permissions.
//
// The process table is lock-striped by pid (see procTable) and the
// per-task interaction stamp is an atomically loadable value, so the
// monitor's decision path — pid lookup, stamp read, ptrace-guard check
// — takes no lock at all and scales across cores; stamp writes are a
// lock-free newest-wins CAS (ipc.StampSlot.Adopt).
package kernel

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"overhaul/internal/clock"
	"overhaul/internal/devfs"
	"overhaul/internal/faultinject"
	"overhaul/internal/fs"
	"overhaul/internal/monitor"
	"overhaul/internal/probe"
)

// Sentinel errors.
var (
	ErrAccessDenied  = errors.New("access denied by permission monitor")
	ErrNoSuchProcess = errors.New("no such process")
	ErrNotPermitted  = errors.New("operation not permitted")
	ErrDeadProcess   = errors.New("process has exited")
	// ErrTransientIO marks an injected transient I/O failure inside
	// open(2). For sensitive devices the failure is converted into a
	// denial with an audit record — never a silent failure, never a
	// grant.
	ErrTransientIO = errors.New("kernel: transient I/O error")
)

// State is a process lifecycle state.
type State int

// Process states.
const (
	StateRunning State = iota + 1
	StateZombie
	StateDead
)

// Config parameterises the kernel.
type Config struct {
	// Monitor configures the embedded permission monitor.
	Monitor monitor.Config
	// DisablePtraceGuard turns off the default-on protection that
	// zeroes a traced process's permissions (toggleable through the
	// proc node, paper §IV-B).
	DisablePtraceGuard bool
	// DeviceInitRounds sets the simulated per-open driver
	// initialisation cost for device nodes (see devicework.go). Zero
	// disables it (unit tests); the benchmark harness uses
	// DefaultDeviceInitRounds.
	DeviceInitRounds int
	// StorageRounds sets the simulated per-create storage cost
	// (journaling + block allocation on a real filesystem), so the
	// Bonnie++ row compares Overhaul's lookup against a realistic
	// baseline. Zero disables it.
	StorageRounds int
	// DisableP1 turns off fork-time interaction-stamp inheritance
	// (ablation of propagation policy P1; breaks launchers and CLI
	// tools by design).
	DisableP1 bool
	// DisableP2 turns off IPC interaction-stamp propagation (ablation
	// of propagation policy P2; breaks multi-process applications by
	// design).
	DisableP2 bool
	// FaultHook, when non-nil, is consulted at the kernel's fault
	// points: PointKernelOpen (transient open errors), PointStampWrite
	// (stamp-store write loss, via the ipc layer) and PointShmTimer
	// (wait-list misfires, via shm segments).
	FaultHook faultinject.Hook
}

// Stats aggregates kernel activity.
type Stats struct {
	Opens       uint64
	DeviceOpens uint64
	Denials     uint64
	Forks       uint64
	Execs       uint64
	Exits       uint64
	// OpenFaults counts injected transient open(2) failures.
	OpenFaults uint64
}

// kernelStats are the live counters backing Stats, atomics so syscall
// paths never serialize to count.
type kernelStats struct {
	opens       atomic.Uint64
	deviceOpens atomic.Uint64
	denials     atomic.Uint64
	forks       atomic.Uint64
	execs       atomic.Uint64
	exits       atomic.Uint64
	openFaults  atomic.Uint64
}

// Kernel is the simulated OS kernel. It is safe for concurrent use;
// everything the decision hot path touches (process table, stamps,
// guard flag, counters) is sharded or atomic, and the single remaining
// mutex guards only the udev device map.
type Kernel struct {
	clk    clock.Clock
	fsys   *fs.FS
	mon    *monitor.Monitor
	faults faultinject.Hook // immutable after New
	// probeOpen and probeFault are the kernel.open and system.fault
	// attach points, resolved once at New; one atomic load per open
	// while unattached (nil check when no registry was configured).
	probeOpen, probeFault *probe.Hook

	table   *procTable
	nextPID atomic.Int64
	// procPool recycles exited Process structs (type-stable task
	// structs, the SLAB_TYPESAFE_BY_RCU analogue): Exit puts, Spawn and
	// Fork get. Per-kernel so a struct's k pointer never changes, which
	// keeps reincarnation races confined to the atomic fields.
	procPool    sync.Pool
	ptraceGuard atomic.Bool
	stats       kernelStats
	devRounds   int  // immutable after New
	storRounds  int  // immutable after New
	disableP1   bool // immutable after New
	disableP2   bool // immutable after New
	ipc         *ipcTables

	mu     sync.Mutex
	devmap map[string]devfs.Class
}

// New constructs a kernel over the given filesystem and clock.
func New(clk clock.Clock, fsys *fs.FS, cfg Config) (*Kernel, error) {
	if clk == nil {
		return nil, errors.New("kernel: nil clock")
	}
	if fsys == nil {
		return nil, errors.New("kernel: nil filesystem")
	}
	k := &Kernel{
		clk:        clk,
		fsys:       fsys,
		faults:     cfg.FaultHook,
		table:      newProcTable(),
		devmap:     make(map[string]devfs.Class),
		devRounds:  cfg.DeviceInitRounds,
		storRounds: cfg.StorageRounds,
		disableP1:  cfg.DisableP1,
		disableP2:  cfg.DisableP2,
		ipc:        newIPCTables(),
	}
	k.ptraceGuard.Store(!cfg.DisablePtraceGuard)
	k.probeOpen = cfg.Monitor.Probes.Hook(probe.HookKernelOpen)
	k.probeFault = cfg.Monitor.Probes.Hook(probe.HookFault)
	mon, err := monitor.New((*taskStore)(k), cfg.Monitor)
	if err != nil {
		return nil, fmt.Errorf("kernel: %w", err)
	}
	k.mon = mon
	return k, nil
}

// Clock returns the kernel's time source.
func (k *Kernel) Clock() clock.Clock { return k.clk }

// FS returns the kernel's filesystem.
func (k *Kernel) FS() *fs.FS { return k.fsys }

// Monitor returns the embedded permission monitor.
func (k *Kernel) Monitor() *monitor.Monitor { return k.mon }

// StatsSnapshot returns a copy of the kernel counters.
func (k *Kernel) StatsSnapshot() Stats {
	return Stats{
		Opens:       k.stats.opens.Load(),
		DeviceOpens: k.stats.deviceOpens.Load(),
		Denials:     k.stats.denials.Load(),
		Forks:       k.stats.forks.Load(),
		Execs:       k.stats.execs.Load(),
		Exits:       k.stats.exits.Load(),
		OpenFaults:  k.stats.openFaults.Load(),
	}
}

// --- devfs.MappingSink -------------------------------------------------

var _ devfs.MappingSink = (*Kernel)(nil)

// UpdateMapping implements devfs.MappingSink: the trusted helper tells
// the kernel that the node at path is a sensitive device of class.
func (k *Kernel) UpdateMapping(path string, class devfs.Class) error {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.devmap[path] = class
	return nil
}

// RemoveMapping implements devfs.MappingSink.
func (k *Kernel) RemoveMapping(path string) error {
	k.mu.Lock()
	defer k.mu.Unlock()
	delete(k.devmap, path)
	return nil
}

// SensitiveClassOf returns the sensitive-device class mapped at path.
func (k *Kernel) SensitiveClassOf(path string) (devfs.Class, bool) {
	k.mu.Lock()
	defer k.mu.Unlock()
	c, ok := k.devmap[path]
	return c, ok
}

// --- monitor.TaskStore --------------------------------------------------

// taskStore adapts the kernel's process table to monitor.TaskStore
// without exporting those methods on Kernel itself.
type taskStore Kernel

var _ monitor.TaskStore = (*taskStore)(nil)

// SetInteractionStampSpan implements monitor.TaskStore: the stamp
// and the span that minted it travel as one newest-wins unit, exactly
// like the stamp alone does. The write is a lock-free CAS-max, run
// under the pid's shard read lock: Exit's table.remove needs the write
// lock and reincarnation happens only after remove, so a stamp can
// never be adopted onto a recycled struct — the write-side counterpart
// of the read-side pid re-check.
func (ts *taskStore) SetInteractionStampSpan(pid int, t time.Time, ctx probe.SpanContext) error {
	k := (*Kernel)(ts)
	sh := k.table.shard(pid)
	sh.mu.RLock()
	p, ok := sh.procs[pid]
	if ok {
		p.slot.Adopt(t, ctx)
	}
	sh.mu.RUnlock()
	if !ok {
		return monitor.ErrNoSuchProcess
	}
	return nil
}

// InteractionView implements monitor.TaskStore: everything a
// permission decision needs in one shard read-lock plus a handful of
// atomic loads. The final pid re-check is the type-stable-memory
// discipline: if the struct was reincarnated as a different process
// between the lookup and the loads, the new pid (stored first during
// reincarnation, so seq-cst ordering guarantees any new-incarnation
// data implies a visible new pid) turns the read into a miss.
func (ts *taskStore) InteractionView(pid int) (time.Time, probe.SpanContext, bool, bool) {
	k := (*Kernel)(ts)
	p, ok := k.table.get(pid)
	if !ok {
		return time.Time{}, probe.SpanContext{}, false, false
	}
	disabled := k.ptraceGuard.Load() && p.tracedBy.Load() != 0
	stamp, sc := p.slot.Stamp()
	if p.pid.Load() != int64(pid) {
		return time.Time{}, probe.SpanContext{}, false, false
	}
	return stamp, sc, disabled, true
}

// --- introspection (netlink authentication) -----------------------------

// ExecutablePath returns the filesystem path pid's code was loaded from,
// mirroring the kernel's view of the process's memory maps.
func (k *Kernel) ExecutablePath(pid int) (string, error) {
	p, err := k.Process(pid)
	if err != nil {
		return "", err
	}
	return p.Executable(), nil
}

// AuthenticateTrustedBinary reports nil iff pid's executable is exactly
// wellKnownPath and that file exists and is owned by the superuser.
// This is the paper's netlink peer-authentication procedure: the kernel
// introspects the userspace process's mapped executable rather than
// running a cryptographic handshake.
func (k *Kernel) AuthenticateTrustedBinary(pid int, wellKnownPath string) error {
	exe, err := k.ExecutablePath(pid)
	if err != nil {
		return fmt.Errorf("authenticate pid %d: %w", pid, err)
	}
	if exe != wellKnownPath {
		return fmt.Errorf("authenticate pid %d: executable %q is not %q", pid, exe, wellKnownPath)
	}
	st, err := k.fsys.Stat(exe)
	if err != nil {
		return fmt.Errorf("authenticate pid %d: stat executable: %w", pid, err)
	}
	if st.Owner.UID != 0 {
		return fmt.Errorf("authenticate pid %d: executable %q not owned by superuser", pid, exe)
	}
	return nil
}

// --- proc toggle ---------------------------------------------------------

// SetPtraceGuard toggles the ptrace permission guard. Only root may
// flip it; this models the proc filesystem node from §IV-B.
func (k *Kernel) SetPtraceGuard(cred fs.Cred, enabled bool) error {
	if cred.UID != 0 {
		return fmt.Errorf("set ptrace guard: %w", ErrNotPermitted)
	}
	k.ptraceGuard.Store(enabled)
	return nil
}

// PtraceGuardEnabled reports the guard state.
func (k *Kernel) PtraceGuardEnabled() bool {
	return k.ptraceGuard.Load()
}

// --- process table access ------------------------------------------------

// Process returns the live process with the given PID.
func (k *Kernel) Process(pid int) (*Process, error) {
	p, ok := k.table.get(pid)
	if !ok {
		return nil, fmt.Errorf("pid %d: %w", pid, ErrNoSuchProcess)
	}
	return p, nil
}

// PIDs returns the live PIDs, sorted.
func (k *Kernel) PIDs() []int {
	return k.table.pids()
}
