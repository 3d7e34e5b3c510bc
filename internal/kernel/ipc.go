package kernel

import (
	"fmt"
	"sync"
	"time"

	"overhaul/internal/fs"
	"overhaul/internal/ipc"
	"overhaul/internal/probe"
)

// ipcTables tracks named IPC resources: FIFOs by filesystem path, SysV
// shared-memory segments by key, and POSIX message queues by name.
type ipcTables struct {
	mu      sync.Mutex
	fifos   map[string]*ipc.Pipe
	shmSegs map[int]*ipc.SharedMem
	mqs     map[string]*ipc.MsgQueue
	shmWait time.Duration
}

func newIPCTables() *ipcTables {
	return &ipcTables{
		fifos:   make(map[string]*ipc.Pipe),
		shmSegs: make(map[int]*ipc.SharedMem),
		mqs:     make(map[string]*ipc.MsgQueue),
	}
}

// stampStore adapts the kernel process table to ipc.Stamps.
type stampStore Kernel

var _ ipc.Stamps = (*stampStore)(nil)

// Stamp implements ipc.Stamps.
func (s *stampStore) Stamp(pid int) (time.Time, bool) {
	stamp, _, _, ok := (*taskStore)(s).InteractionView(pid)
	return stamp, ok
}

// Adopt implements ipc.Stamps.
func (s *stampStore) Adopt(pid int, t time.Time) {
	// Unknown processes are ignored: the sender may have exited
	// between embedding and delivery. The stamp changes hands without
	// trace context, so whatever span minted the previous stamp is
	// cleared alongside it.
	_ = (*taskStore)(s).SetInteractionStampSpan(pid, t, probe.SpanContext{})
}

var _ ipc.SpanStamps = (*stampStore)(nil)

// StampSpan implements ipc.SpanStamps over the task struct's stamp
// span field.
func (s *stampStore) StampSpan(pid int) (probe.SpanContext, bool) {
	_, ctx, _, ok := (*taskStore)(s).InteractionView(pid)
	return ctx, ok
}

// AdoptSpan implements ipc.SpanStamps: the stamp and the span that
// minted it install together, newest-wins (P2 carries both).
func (s *stampStore) AdoptSpan(pid int, t time.Time, ctx probe.SpanContext) {
	_ = (*taskStore)(s).SetInteractionStampSpan(pid, t, ctx)
}

// stamps returns the kernel's ipc.Stamps view, or nil when P2
// propagation is ablated (IPC objects treat nil as "no propagation").
func (k *Kernel) stamps() ipc.Stamps {
	if k.disableP2 { // immutable after New
		return nil
	}
	// Fault-hooked writes (PointStampWrite) can only lose updates,
	// leaving stamps older than reality — errors degrade toward denial.
	return ipc.FaultyStamps((*stampStore)(k), k.faults)
}

// SetShmWait overrides the shared-memory wait-list duration for
// subsequently created segments (ablation knob; default ipc.DefaultShmWait).
func (k *Kernel) SetShmWait(d time.Duration) {
	k.ipc.mu.Lock()
	defer k.ipc.mu.Unlock()
	k.ipc.shmWait = d
}

// NewPipe creates an anonymous pipe (pipe(2)).
func (k *Kernel) NewPipe() *ipc.Pipe {
	return ipc.NewPipe(k.stamps(), 0)
}

// Mkfifo creates a FIFO special file at path and registers the backing
// pipe object.
func (k *Kernel) Mkfifo(p *Process, path string, mode fs.Mode) error {
	if p == nil || !p.alive() {
		return fmt.Errorf("mkfifo %s: %w", path, ErrDeadProcess)
	}
	if err := k.fsys.Mkfifo(path, mode, p.Cred()); err != nil {
		return err
	}
	k.ipc.mu.Lock()
	defer k.ipc.mu.Unlock()
	k.ipc.fifos[path] = ipc.NewPipe(k.stamps(), 0)
	return nil
}

// OpenFIFO opens the FIFO at path, applying UNIX permission checks, and
// returns the shared pipe object.
func (k *Kernel) OpenFIFO(p *Process, path string, access fs.Access) (*ipc.Pipe, error) {
	cred, ok := p.liveCred()
	if !ok {
		return nil, fmt.Errorf("open fifo %s: %w", path, ErrDeadProcess)
	}
	h, err := k.fsys.Open(path, access, cred)
	if err != nil {
		return nil, err
	}
	if h.Kind() != fs.KindFIFO {
		return nil, fmt.Errorf("open fifo %s: not a fifo", path)
	}
	k.ipc.mu.Lock()
	defer k.ipc.mu.Unlock()
	pipe, ok := k.ipc.fifos[path]
	if !ok {
		return nil, fmt.Errorf("open fifo %s: no backing object", path)
	}
	return pipe, nil
}

// NewSocketPair creates a connected UNIX domain socket pair
// (socketpair(2)).
func (k *Kernel) NewSocketPair() *ipc.SocketPair {
	return ipc.NewSocketPair(k.stamps())
}

// NewMsgQueue creates a POSIX (mq_open) or SysV (msgget) message queue.
func (k *Kernel) NewMsgQueue(flavor ipc.QueueFlavor, capacity int) *ipc.MsgQueue {
	return ipc.NewMsgQueue(k.stamps(), flavor, capacity)
}

// NewSharedMem creates a shared-memory segment (shm_open/shmget) of the
// given page count, guarded by the fault-interception machinery.
func (k *Kernel) NewSharedMem(pages int) (*ipc.SharedMem, error) {
	k.ipc.mu.Lock()
	wait := k.ipc.shmWait
	k.ipc.mu.Unlock()
	seg, err := ipc.NewSharedMem(k.stamps(), k.clk, pages, wait)
	if err != nil {
		return nil, err
	}
	seg.SetFaultHook(k.faults)
	return seg, nil
}

// NewPty allocates a pseudo-terminal pair (posix_openpt).
func (k *Kernel) NewPty() *ipc.Pty {
	return ipc.NewPty(k.stamps())
}

// ShmGet is the SysV shmget(2) interface: it returns the segment
// registered under key, creating it with the given page count when
// absent. Every process attaching by key shares one kernel object, so
// stamp propagation spans unrelated processes exactly as on Linux.
func (k *Kernel) ShmGet(key, pages int) (*ipc.SharedMem, error) {
	k.ipc.mu.Lock()
	defer k.ipc.mu.Unlock()
	if seg, ok := k.ipc.shmSegs[key]; ok {
		return seg, nil
	}
	seg, err := ipc.NewSharedMem(k.stamps(), k.clk, pages, k.ipc.shmWait)
	if err != nil {
		return nil, fmt.Errorf("shmget key %d: %w", key, err)
	}
	seg.SetFaultHook(k.faults)
	k.ipc.shmSegs[key] = seg
	return seg, nil
}

// ShmRemove is shmctl(IPC_RMID): it destroys the keyed segment.
func (k *Kernel) ShmRemove(key int) error {
	k.ipc.mu.Lock()
	defer k.ipc.mu.Unlock()
	seg, ok := k.ipc.shmSegs[key]
	if !ok {
		return fmt.Errorf("shmctl key %d: %w", key, ErrNoSuchProcess)
	}
	delete(k.ipc.shmSegs, key)
	return seg.Remove()
}

// MqOpen is the POSIX mq_open(3) interface: it returns the queue
// registered under name, creating it when absent.
func (k *Kernel) MqOpen(name string, capacity int) (*ipc.MsgQueue, error) {
	if name == "" || name[0] != '/' {
		return nil, fmt.Errorf("mq_open %q: name must start with '/'", name)
	}
	k.ipc.mu.Lock()
	defer k.ipc.mu.Unlock()
	if q, ok := k.ipc.mqs[name]; ok {
		return q, nil
	}
	q := ipc.NewMsgQueue(k.stamps(), ipc.FlavorPOSIX, capacity)
	k.ipc.mqs[name] = q
	return q, nil
}

// MqUnlink is mq_unlink(3): it removes the named queue.
func (k *Kernel) MqUnlink(name string) error {
	k.ipc.mu.Lock()
	defer k.ipc.mu.Unlock()
	q, ok := k.ipc.mqs[name]
	if !ok {
		return fmt.Errorf("mq_unlink %q: %w", name, ErrNoSuchProcess)
	}
	delete(k.ipc.mqs, name)
	return q.Remove()
}
