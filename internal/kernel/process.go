package kernel

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"overhaul/internal/fs"
	"overhaul/internal/ipc"
	"overhaul/internal/probe"
)

// Process is the task_struct analogue: one schedulable task. Linux does
// not strictly distinguish processes from threads — each gets its own
// task_struct — and neither do we: Clone covers both.
//
// The fields the permission decision path reads — interaction stamp,
// its minting span, and the tracer pid — are atomics, so a concurrent
// Decide never blocks on a process mutating its own state.
//
// Process structs are type-stable: Exit returns the struct to a
// per-kernel free list and a later Spawn/Fork may reincarnate it as a
// different process (the SLAB_TYPESAFE_BY_RCU discipline — Linux
// recycles task_structs the same way). PIDs themselves are never
// reused, which is what makes recycling detectable: the lock-free read
// path re-checks p.pid after its atomic loads and treats a mismatch as
// "no such process". A *Process handle is therefore invalidated by
// Exit; kernel subsystems always re-resolve pid → Process through the
// table rather than caching handles across an exit.
type Process struct {
	k *Kernel

	// pid and ppid are atomics not because a process's ids ever change
	// — they are fixed for one incarnation — but because reincarnation
	// rewrites them while a stale lock-free reader may still hold the
	// struct. reincarnate stores the new pid *before* resetting the
	// stamp fields: under Go's seq-cst atomics a reader that observes
	// any new-incarnation data and then re-checks the pid must observe
	// the new pid and report a miss.
	pid  atomic.Int64
	ppid atomic.Int64

	// slot is the interaction stamp + minting span (the Overhaul
	// task_struct field), written only through ipc.StampSlot.Adopt's
	// CAS-max loop on the live path.
	slot ipc.StampSlot
	// tracedBy is the tracer PID, 0 when not traced.
	tracedBy atomic.Int32

	mu       sync.Mutex
	name     string
	exe      string
	cred     fs.Cred
	state    State
	children []int
}

// PID returns the process identifier.
func (p *Process) PID() int { return int(p.pid.Load()) }

// PPID returns the parent's PID (0 for initial processes).
func (p *Process) PPID() int { return int(p.ppid.Load()) }

// Name returns the process name (comm).
func (p *Process) Name() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.name
}

// Executable returns the path the process's code is mapped from.
func (p *Process) Executable() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.exe
}

// Cred returns the process credentials.
func (p *Process) Cred() fs.Cred {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.cred
}

// InteractionStamp returns the Overhaul interaction timestamp.
func (p *Process) InteractionStamp() time.Time {
	t, _ := p.slot.Stamp()
	return t
}

// StampSpan returns the trace span that minted the current interaction
// stamp (zero when unknown).
func (p *Process) StampSpan() probe.SpanContext {
	_, ctx := p.slot.Stamp()
	return ctx
}

// State returns the lifecycle state.
func (p *Process) State() State {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.state
}

// Children returns the PIDs of the process's children.
func (p *Process) Children() []int {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]int, len(p.children))
	copy(out, p.children)
	return out
}

// alive reports whether the process can issue syscalls.
func (p *Process) alive() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.state == StateRunning
}

// liveCred returns the credentials and whether p (which may be nil)
// can issue syscalls, under one lock.
func (p *Process) liveCred() (fs.Cred, bool) {
	if p == nil {
		return fs.Cred{}, false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.cred, p.state == StateRunning
}

// procGet pops a recycled Process off the kernel's free list, or
// allocates a fresh one. The k field is set exactly once, on the
// allocating path: the pool is per-kernel, so a recycled struct's k is
// already correct and rewriting it would race with stale readers.
func (k *Kernel) procGet() *Process {
	if p, _ := k.procPool.Get().(*Process); p != nil {
		return p
	}
	return &Process{k: k}
}

// reincarnate initialises a (possibly recycled) Process struct as a
// brand-new process. The pid store comes FIRST — see the Process type
// comment: it is what lets a stale lock-free reader detect that the
// struct changed hands mid-read.
func (p *Process) reincarnate(pid, ppid int, name, exe string, cred fs.Cred) {
	p.pid.Store(int64(pid))
	p.ppid.Store(int64(ppid))
	p.slot.Reset()
	p.tracedBy.Store(0)
	p.mu.Lock()
	p.name = name
	p.exe = exe
	p.cred = cred
	p.state = StateRunning
	p.children = p.children[:0] // keep the backing array: fork reuses it
	p.mu.Unlock()
}

// SpawnSpec describes an initial process created from outside the
// simulation (init, the display server, the trusted helper, ...).
type SpawnSpec struct {
	Name string
	Exe  string
	Cred fs.Cred
}

// Spawn creates a fresh process with no parent and no interaction
// history.
func (k *Kernel) Spawn(spec SpawnSpec) (*Process, error) {
	if spec.Name == "" {
		return nil, errors.New("spawn: empty process name")
	}
	p := k.procGet()
	p.reincarnate(int(k.nextPID.Add(1)), 0, spec.Name, spec.Exe, spec.Cred)
	k.table.put(p)
	return p, nil
}

// Fork duplicates the process, Linux-style: the child gets a copy of the
// task struct — *including the interaction timestamp*. This is how
// propagation policy P1 falls out of the implementation "for free"
// (paper §IV-B, "Process creation and IPC").
func (p *Process) Fork() (*Process, error) {
	if !p.alive() {
		return nil, fmt.Errorf("fork from pid %d: %w", p.PID(), ErrDeadProcess)
	}
	k := p.k

	p.mu.Lock()
	name, exe, cred := p.name, p.exe, p.cred
	p.mu.Unlock()

	child := k.procGet()
	child.reincarnate(int(k.nextPID.Add(1)), p.PID(), name, exe, cred)
	if !k.disableP1 {
		child.slot.Inherit(&p.slot) // P1: stamp and minting span inherit together
	}
	k.table.put(child)
	k.stats.forks.Add(1)

	p.mu.Lock()
	p.children = append(p.children, child.PID())
	p.mu.Unlock()
	return child, nil
}

// Clone is an alias for Fork covering threads: Linux backs both with a
// new task_struct, so interaction stamps propagate to threads the same
// way.
func (p *Process) Clone() (*Process, error) { return p.Fork() }

// Exec replaces the process image. The task struct — and therefore the
// interaction stamp — survives, exactly as execve leaves task_struct in
// place on Linux.
func (p *Process) Exec(name, exe string) error {
	if !p.alive() {
		return fmt.Errorf("exec in pid %d: %w", p.PID(), ErrDeadProcess)
	}
	if name == "" {
		return errors.New("exec: empty process name")
	}
	p.mu.Lock()
	p.name = name
	p.exe = exe
	p.mu.Unlock()

	p.k.stats.execs.Add(1)
	return nil
}

// Exit terminates the process, removes it from the process table, and
// returns the task struct to the kernel's free list. The handle is
// invalid afterwards: a later Spawn/Fork may reincarnate the struct as
// a different process (with a different pid — pids are never reused).
func (p *Process) Exit() error {
	p.mu.Lock()
	if p.state != StateRunning {
		p.mu.Unlock()
		return fmt.Errorf("exit pid %d: %w", p.PID(), ErrDeadProcess)
	}
	p.state = StateDead
	p.mu.Unlock()

	k := p.k
	k.table.remove(p.PID())
	k.stats.exits.Add(1)
	k.procPool.Put(p)
	return nil
}

// --- ptrace ---------------------------------------------------------------

// PtraceAttach lets the process attach to target as a debugger. As on
// Linux (Yama-style restriction the paper cites), only direct
// descendants may be traced. While the Overhaul ptrace guard is on, the
// tracee's sensitive permissions are disabled for the duration — which
// also neutralises launch-then-inject attacks through a parent tracing
// its own child.
func (p *Process) PtraceAttach(target *Process) error {
	if !p.alive() {
		return fmt.Errorf("ptrace from pid %d: %w", p.PID(), ErrDeadProcess)
	}
	if target == nil || !target.alive() {
		return fmt.Errorf("ptrace: target: %w", ErrDeadProcess)
	}
	if target.PPID() != p.PID() && p.Cred().UID != 0 {
		return fmt.Errorf("ptrace pid %d from pid %d: not a direct descendant: %w",
			target.PID(), p.PID(), ErrNotPermitted)
	}
	if !target.tracedBy.CompareAndSwap(0, int32(p.PID())) {
		return fmt.Errorf("ptrace pid %d: already traced by %d: %w",
			target.PID(), target.tracedBy.Load(), ErrNotPermitted)
	}
	return nil
}

// PtraceDetach releases a tracee previously attached by this process.
func (p *Process) PtraceDetach(target *Process) error {
	if target == nil {
		return errors.New("ptrace detach: nil target")
	}
	if !target.tracedBy.CompareAndSwap(int32(p.PID()), 0) {
		return fmt.Errorf("ptrace detach pid %d: not traced by %d: %w",
			target.PID(), p.PID(), ErrNotPermitted)
	}
	return nil
}

// Traced reports whether the process is currently being ptraced.
func (p *Process) Traced() bool {
	return p.tracedBy.Load() != 0
}
