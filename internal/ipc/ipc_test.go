package ipc

import (
	"errors"
	"sync"
	"testing"
	"time"

	"overhaul/internal/clock"
)

// fakeStamps is an in-memory Stamps implementation.
type fakeStamps struct {
	mu     sync.Mutex
	stamps map[int]time.Time
}

func newFakeStamps() *fakeStamps {
	return &fakeStamps{stamps: make(map[int]time.Time)}
}

func (f *fakeStamps) Stamp(pid int) (time.Time, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	t, ok := f.stamps[pid]
	return t, ok
}

func (f *fakeStamps) Adopt(pid int, t time.Time) {
	f.mu.Lock()
	defer f.mu.Unlock()
	cur, ok := f.stamps[pid]
	if !ok {
		return
	}
	if t.After(cur) {
		f.stamps[pid] = t
	}
}

func (f *fakeStamps) set(pid int, t time.Time) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.stamps[pid] = t
}

func (f *fakeStamps) get(t *testing.T, pid int) time.Time {
	t.Helper()
	st, ok := f.Stamp(pid)
	if !ok {
		t.Fatalf("pid %d unknown", pid)
	}
	return st
}

const (
	sender   = 1
	receiver = 2
)

// stampedPair returns stamps where the sender interacted at Epoch+1s and
// the receiver has never interacted.
func stampedPair() (*fakeStamps, time.Time) {
	st := newFakeStamps()
	interaction := clock.Epoch.Add(time.Second)
	st.set(sender, interaction)
	st.set(receiver, time.Time{})
	return st, interaction
}

// --- Pipe ------------------------------------------------------------------

func TestPipeWriteReadPropagatesStamp(t *testing.T) {
	st, interaction := stampedPair()
	p := NewPipe(st, 0)

	if _, err := p.Write(sender, []byte("hello")); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if got := p.EmbeddedStamp(); !got.Equal(interaction) {
		t.Fatalf("embedded stamp = %v, want %v", got, interaction)
	}
	buf := make([]byte, 16)
	n, err := p.Read(receiver, buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if string(buf[:n]) != "hello" {
		t.Fatalf("read %q", buf[:n])
	}
	// P2: the receiver adopted the sender's interaction stamp.
	if got := st.get(t, receiver); !got.Equal(interaction) {
		t.Fatalf("receiver stamp = %v, want %v", got, interaction)
	}
}

func TestPipeDoesNotRegressNewerReceiverStamp(t *testing.T) {
	st, interaction := stampedPair()
	newer := interaction.Add(time.Minute)
	st.set(receiver, newer)

	p := NewPipe(st, 0)
	if _, err := p.Write(sender, []byte("x")); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if _, err := p.Read(receiver, make([]byte, 1)); err != nil {
		t.Fatalf("Read: %v", err)
	}
	if got := st.get(t, receiver); !got.Equal(newer) {
		t.Fatalf("receiver stamp regressed to %v", got)
	}
}

func TestPipeSenderWithoutStampLeavesCarrierExpired(t *testing.T) {
	st := newFakeStamps()
	st.set(sender, time.Time{})
	st.set(receiver, time.Time{})
	p := NewPipe(st, 0)
	if _, err := p.Write(sender, []byte("x")); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if !p.EmbeddedStamp().IsZero() {
		t.Fatal("carrier got a stamp from a never-interacted sender")
	}
	if _, err := p.Read(receiver, make([]byte, 1)); err != nil {
		t.Fatalf("Read: %v", err)
	}
	if got := st.get(t, receiver); !got.IsZero() {
		t.Fatalf("receiver gained stamp %v from expired carrier", got)
	}
}

func TestPipeEmptyAndClosed(t *testing.T) {
	st, _ := stampedPair()
	p := NewPipe(st, 0)
	if _, err := p.Read(receiver, make([]byte, 1)); !errors.Is(err, ErrEmpty) {
		t.Fatalf("Read empty = %v, want ErrEmpty", err)
	}
	if _, err := p.Write(sender, []byte("ab")); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := p.Write(sender, []byte("x")); !errors.Is(err, ErrClosedPipe) {
		t.Fatalf("Write after close = %v, want ErrClosedPipe", err)
	}
	// Pending data remains readable after close.
	buf := make([]byte, 4)
	if n, err := p.Read(receiver, buf); err != nil || n != 2 {
		t.Fatalf("Read = %d, %v", n, err)
	}
	if _, err := p.Read(receiver, buf); !errors.Is(err, ErrClosedPipe) {
		t.Fatalf("Read drained closed = %v, want ErrClosedPipe", err)
	}
	if err := p.Close(); !errors.Is(err, ErrClosedPipe) {
		t.Fatalf("double Close = %v", err)
	}
}

func TestPipeCapacity(t *testing.T) {
	st, _ := stampedPair()
	p := NewPipe(st, 4)
	if _, err := p.Write(sender, []byte("abcd")); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if _, err := p.Write(sender, []byte("e")); !errors.Is(err, ErrFull) {
		t.Fatalf("overfull Write = %v, want ErrFull", err)
	}
	if p.Buffered() != 4 {
		t.Fatalf("Buffered = %d", p.Buffered())
	}
}

// TestPipeReusesDrainedBuffer: a read that drains the pipe leaves its
// buffer for the next write, so a steady-state hop (the grant path's
// app → daemon pipe) allocates nothing; a partial read keeps the rest
// in order.
func TestPipeReusesDrainedBuffer(t *testing.T) {
	st, _ := stampedPair()
	p := NewPipe(st, 0)
	buf := make([]byte, 16)
	hop := func(msg string, readN int) string {
		if _, err := p.Write(sender, []byte(msg)); err != nil {
			t.Fatalf("Write: %v", err)
		}
		n, err := p.Read(receiver, buf[:readN])
		if err != nil {
			t.Fatalf("Read: %v", err)
		}
		return string(buf[:n])
	}
	if got := hop("abc", 1); got != "a" {
		t.Fatalf("partial read = %q, want a", got)
	}
	if got := hop("de", len(buf)); got != "bcde" {
		t.Fatalf("draining read = %q, want bcde", got)
	}
	msg := []byte("stamped")
	steady := func() {
		if _, err := p.Write(sender, msg); err != nil {
			t.Fatalf("Write: %v", err)
		}
		if _, err := p.Read(receiver, buf); err != nil {
			t.Fatalf("Read: %v", err)
		}
	}
	if got := testing.AllocsPerRun(100, steady); got != 0 {
		t.Fatalf("steady-state write/read: %v allocs, want 0", got)
	}
}

// --- SocketPair --------------------------------------------------------------

func TestSocketPairPropagation(t *testing.T) {
	st, interaction := stampedPair()
	a, b := NewSocketPair(st).Ends()

	if err := a.Send(sender, []byte("dbus-msg")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	got, err := b.Recv(receiver)
	if err != nil {
		t.Fatalf("Recv: %v", err)
	}
	if string(got) != "dbus-msg" {
		t.Fatalf("payload = %q", got)
	}
	if s := st.get(t, receiver); !s.Equal(interaction) {
		t.Fatalf("receiver stamp = %v, want %v", s, interaction)
	}
}

func TestSocketPairBothDirectionsShareCarrier(t *testing.T) {
	st, interaction := stampedPair()
	a, b := NewSocketPair(st).Ends()

	// Sender talks a->b; later a *reply* b->a with payload from the
	// never-interacted receiver must not erase the carrier stamp, and a
	// third process reading from either end adopts it.
	if err := a.Send(sender, []byte("req")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	if _, err := b.Recv(receiver); err != nil {
		t.Fatalf("Recv: %v", err)
	}
	if err := b.Send(receiver, []byte("resp")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	const third = 3
	st.set(third, time.Time{})
	if _, err := a.Recv(third); err != nil {
		t.Fatalf("Recv: %v", err)
	}
	if s := st.get(t, third); !s.Equal(interaction) {
		t.Fatalf("third stamp = %v, want %v (chained propagation)", s, interaction)
	}
}

func TestSocketDatagramBoundaries(t *testing.T) {
	st, _ := stampedPair()
	a, b := NewSocketPair(st).Ends()
	for _, m := range []string{"one", "two", "three"} {
		if err := a.Send(sender, []byte(m)); err != nil {
			t.Fatalf("Send(%s): %v", m, err)
		}
	}
	if b.Pending() != 3 {
		t.Fatalf("Pending = %d", b.Pending())
	}
	for _, want := range []string{"one", "two", "three"} {
		got, err := b.Recv(receiver)
		if err != nil || string(got) != want {
			t.Fatalf("Recv = %q, %v; want %q", got, err, want)
		}
	}
	if _, err := b.Recv(receiver); !errors.Is(err, ErrEmpty) {
		t.Fatalf("Recv empty = %v", err)
	}
}

func TestSocketPeerClose(t *testing.T) {
	st, _ := stampedPair()
	a, b := NewSocketPair(st).Ends()
	if err := b.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := a.Send(sender, []byte("x")); !errors.Is(err, ErrPeerClosed) {
		t.Fatalf("Send to closed peer = %v, want ErrPeerClosed", err)
	}
	if err := b.Close(); !errors.Is(err, ErrClosedPipe) {
		t.Fatalf("double Close = %v", err)
	}
}

func TestSocketSendCopiesPayload(t *testing.T) {
	st, _ := stampedPair()
	a, b := NewSocketPair(st).Ends()
	payload := []byte("fragile")
	if err := a.Send(sender, payload); err != nil {
		t.Fatalf("Send: %v", err)
	}
	payload[0] = 'X'
	got, err := b.Recv(receiver)
	if err != nil || string(got) != "fragile" {
		t.Fatalf("Recv = %q, %v (payload aliased?)", got, err)
	}
}

// --- MsgQueue ----------------------------------------------------------------

func TestMsgQueuePOSIXPriorityOrder(t *testing.T) {
	st, _ := stampedPair()
	q := NewMsgQueue(st, FlavorPOSIX, 0)
	send := func(prio int, body string) {
		t.Helper()
		if err := q.Send(sender, prio, []byte(body)); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	send(1, "low")
	send(9, "high-1")
	send(9, "high-2")
	send(5, "mid")

	wants := []struct {
		prio int
		body string
	}{{9, "high-1"}, {9, "high-2"}, {5, "mid"}, {1, "low"}}
	for _, w := range wants {
		prio, body, err := q.Recv(receiver, 0)
		if err != nil {
			t.Fatalf("Recv: %v", err)
		}
		if prio != w.prio || string(body) != w.body {
			t.Fatalf("Recv = (%d, %q), want (%d, %q)", prio, body, w.prio, w.body)
		}
	}
}

func TestMsgQueueSysVTypeFilter(t *testing.T) {
	st, _ := stampedPair()
	q := NewMsgQueue(st, FlavorSysV, 0)
	for _, m := range []struct {
		mtype int
		body  string
	}{{1, "a1"}, {2, "b1"}, {1, "a2"}} {
		if err := q.Send(sender, m.mtype, []byte(m.body)); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	// Filter by type 2.
	mtype, body, err := q.Recv(receiver, 2)
	if err != nil || mtype != 2 || string(body) != "b1" {
		t.Fatalf("Recv(2) = (%d,%q,%v)", mtype, body, err)
	}
	// Filter 0: FIFO order of what remains.
	mtype, body, err = q.Recv(receiver, 0)
	if err != nil || mtype != 1 || string(body) != "a1" {
		t.Fatalf("Recv(0) = (%d,%q,%v)", mtype, body, err)
	}
	// No message of type 7.
	if _, _, err := q.Recv(receiver, 7); !errors.Is(err, ErrEmpty) {
		t.Fatalf("Recv(7) = %v, want ErrEmpty", err)
	}
}

func TestMsgQueueSysVRejectsNonPositiveType(t *testing.T) {
	st, _ := stampedPair()
	q := NewMsgQueue(st, FlavorSysV, 0)
	if err := q.Send(sender, 0, []byte("x")); err == nil {
		t.Fatal("Send(mtype=0) succeeded")
	}
}

func TestMsgQueuePropagation(t *testing.T) {
	for _, flavor := range []QueueFlavor{FlavorPOSIX, FlavorSysV} {
		t.Run(flavor.String(), func(t *testing.T) {
			st, interaction := stampedPair()
			q := NewMsgQueue(st, flavor, 0)
			if err := q.Send(sender, 1, []byte("m")); err != nil {
				t.Fatalf("Send: %v", err)
			}
			if _, _, err := q.Recv(receiver, 0); err != nil {
				t.Fatalf("Recv: %v", err)
			}
			if s := st.get(t, receiver); !s.Equal(interaction) {
				t.Fatalf("receiver stamp = %v, want %v", s, interaction)
			}
		})
	}
}

func TestMsgQueueCapacityAndRemove(t *testing.T) {
	st, _ := stampedPair()
	q := NewMsgQueue(st, FlavorSysV, 2)
	if err := q.Send(sender, 1, nil); err != nil {
		t.Fatalf("Send: %v", err)
	}
	if err := q.Send(sender, 1, nil); err != nil {
		t.Fatalf("Send: %v", err)
	}
	if err := q.Send(sender, 1, nil); !errors.Is(err, ErrFull) {
		t.Fatalf("Send over capacity = %v, want ErrFull", err)
	}
	if err := q.Remove(); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if err := q.Send(sender, 1, nil); !errors.Is(err, ErrClosedPipe) {
		t.Fatalf("Send after remove = %v", err)
	}
	if _, _, err := q.Recv(receiver, 0); !errors.Is(err, ErrClosedPipe) {
		t.Fatalf("Recv after remove = %v", err)
	}
}

func TestMsgQueueKeys(t *testing.T) {
	st, _ := stampedPair()
	q := NewMsgQueue(st, FlavorSysV, 0)
	for _, k := range []int{3, 1, 3, 2} {
		if err := q.Send(sender, k, nil); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	keys := q.Keys()
	want := []int{1, 2, 3}
	if len(keys) != len(want) {
		t.Fatalf("Keys = %v", keys)
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("Keys = %v, want %v", keys, want)
		}
	}
}

// --- SharedMem ---------------------------------------------------------------

func TestShmFirstAccessFaultsAndPropagates(t *testing.T) {
	st, interaction := stampedPair()
	clk := clock.NewSimulatedAt(interaction)
	shm, err := NewSharedMem(st, clk, 1, 0)
	if err != nil {
		t.Fatalf("NewSharedMem: %v", err)
	}

	wmap := shm.Map(sender)
	if err := wmap.Write(0, []byte("secret")); err != nil {
		t.Fatalf("Write: %v", err)
	}
	rmap := shm.Map(receiver)
	got, err := rmap.Read(0, 6)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if string(got) != "secret" {
		t.Fatalf("Read = %q", got)
	}
	if s := st.get(t, receiver); !s.Equal(interaction) {
		t.Fatalf("receiver stamp = %v, want %v", s, interaction)
	}
	stats := shm.StatsSnapshot()
	if stats.Faults != 2 || stats.FastAccesses != 0 {
		t.Fatalf("stats = %+v, want 2 faults", stats)
	}
}

func TestShmWaitListFastPath(t *testing.T) {
	st, interaction := stampedPair()
	clk := clock.NewSimulatedAt(interaction)
	shm, err := NewSharedMem(st, clk, 1, 500*time.Millisecond)
	if err != nil {
		t.Fatalf("NewSharedMem: %v", err)
	}
	m := shm.Map(sender)

	if err := m.Write(0, []byte{1}); err != nil { // fault
		t.Fatalf("Write: %v", err)
	}
	for i := 0; i < 10; i++ { // all inside the 500 ms window
		clk.Advance(10 * time.Millisecond)
		if err := m.Write(0, []byte{2}); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}
	stats := shm.StatsSnapshot()
	if stats.Faults != 1 || stats.FastAccesses != 10 {
		t.Fatalf("stats = %+v, want 1 fault + 10 fast", stats)
	}

	// After the window expires the guard re-arms.
	clk.Advance(time.Second)
	if err := m.Write(0, []byte{3}); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if stats := shm.StatsSnapshot(); stats.Faults != 2 {
		t.Fatalf("stats = %+v, want re-armed fault", stats)
	}
}

func TestShmMissedPropagationInsideWaitWindow(t *testing.T) {
	// The paper's caveat: stamps arriving during the disarmed window
	// are not propagated until the guard re-arms. This test pins that
	// (intentional) behaviour.
	st := newFakeStamps()
	st.set(sender, time.Time{})
	st.set(receiver, time.Time{})
	clk := clock.NewSimulated()
	shm, err := NewSharedMem(st, clk, 1, 500*time.Millisecond)
	if err != nil {
		t.Fatalf("NewSharedMem: %v", err)
	}
	m := shm.Map(sender)
	if err := m.Write(0, []byte{1}); err != nil { // fault, but sender had no stamp
		t.Fatalf("Write: %v", err)
	}
	// Sender now interacts...
	interaction := clk.Now().Add(100 * time.Millisecond)
	clk.Advance(100 * time.Millisecond)
	st.set(sender, interaction)
	// ...and writes inside the window: fast path, no embedding.
	if err := m.Write(0, []byte{2}); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if !shm.EmbeddedStamp().IsZero() {
		t.Fatal("stamp embedded on the fast path")
	}
	// After re-arm, the next write embeds.
	clk.Advance(time.Second)
	if err := m.Write(0, []byte{3}); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if got := shm.EmbeddedStamp(); !got.Equal(interaction) {
		t.Fatalf("embedded = %v, want %v", got, interaction)
	}
}

func TestShmBounds(t *testing.T) {
	st, _ := stampedPair()
	shm, err := NewSharedMem(st, clock.NewSimulated(), 1, 0)
	if err != nil {
		t.Fatalf("NewSharedMem: %v", err)
	}
	m := shm.Map(sender)
	if err := m.Write(PageSize-1, []byte{1}); err != nil {
		t.Fatalf("Write at end: %v", err)
	}
	if err := m.Write(PageSize, []byte{1}); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("Write past end = %v, want ErrOutOfRange", err)
	}
	if _, err := m.Read(-1, 1); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("Read(-1) = %v", err)
	}
	if _, err := m.Read(0, PageSize+1); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("oversized Read = %v", err)
	}
}

func TestShmRemove(t *testing.T) {
	st, _ := stampedPair()
	shm, err := NewSharedMem(st, clock.NewSimulated(), 2, 0)
	if err != nil {
		t.Fatalf("NewSharedMem: %v", err)
	}
	if shm.Size() != 2*PageSize {
		t.Fatalf("Size = %d", shm.Size())
	}
	m := shm.Map(sender)
	if err := shm.Remove(); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if err := m.Write(0, []byte{1}); !errors.Is(err, ErrClosedPipe) {
		t.Fatalf("Write after remove = %v", err)
	}
	if _, err := m.Read(0, 1); !errors.Is(err, ErrClosedPipe) {
		t.Fatalf("Read after remove = %v", err)
	}
	if err := shm.Remove(); !errors.Is(err, ErrClosedPipe) {
		t.Fatalf("double Remove = %v", err)
	}
}

func TestShmInvalidConstruction(t *testing.T) {
	st, _ := stampedPair()
	if _, err := NewSharedMem(st, clock.NewSimulated(), 0, 0); err == nil {
		t.Fatal("0 pages accepted")
	}
	if _, err := NewSharedMem(st, nil, 1, 0); err == nil {
		t.Fatal("nil clock accepted")
	}
}

// --- Pty ----------------------------------------------------------------------

func TestPtyTerminalToShellPropagation(t *testing.T) {
	// The CLI scenario from §IV-B: xterm (pid=sender, has interaction)
	// writes "shot\n" at the master; bash (pid=receiver) reads at the
	// slave and adopts the stamp.
	st, interaction := stampedPair()
	pty := NewPty(st)

	if _, err := pty.Write(Master, sender, []byte("shot\n")); err != nil {
		t.Fatalf("Write: %v", err)
	}
	buf := make([]byte, 16)
	n, err := pty.Read(Slave, receiver, buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if string(buf[:n]) != "shot\n" {
		t.Fatalf("Read = %q", buf[:n])
	}
	if s := st.get(t, receiver); !s.Equal(interaction) {
		t.Fatalf("shell stamp = %v, want %v", s, interaction)
	}
}

func TestPtyEchoDirection(t *testing.T) {
	st, _ := stampedPair()
	pty := NewPty(st)
	if _, err := pty.Write(Slave, receiver, []byte("output")); err != nil {
		t.Fatalf("Write: %v", err)
	}
	buf := make([]byte, 16)
	n, err := pty.Read(Master, sender, buf)
	if err != nil || string(buf[:n]) != "output" {
		t.Fatalf("Read = %q, %v", buf[:n], err)
	}
}

func TestPtyCloseAndErrors(t *testing.T) {
	st, _ := stampedPair()
	pty := NewPty(st)
	if _, err := pty.Read(Slave, receiver, make([]byte, 1)); !errors.Is(err, ErrEmpty) {
		t.Fatalf("empty Read = %v", err)
	}
	if err := pty.CloseEnd(Master); err != nil {
		t.Fatalf("CloseEnd: %v", err)
	}
	if _, err := pty.Write(Master, sender, []byte("x")); !errors.Is(err, ErrClosedPipe) {
		t.Fatalf("Write closed = %v", err)
	}
	if err := pty.CloseEnd(Master); !errors.Is(err, ErrClosedPipe) {
		t.Fatalf("double CloseEnd = %v", err)
	}
	if _, err := pty.Write(PtyEnd(9), sender, nil); err == nil {
		t.Fatal("invalid end accepted")
	}
}

func TestQueueFlavorAndPtyEndStrings(t *testing.T) {
	if FlavorPOSIX.String() != "posix" || FlavorSysV.String() != "sysv" {
		t.Fatal("flavor strings wrong")
	}
	if Master.String() != "master" || Slave.String() != "slave" {
		t.Fatal("pty end strings wrong")
	}
}

// --- cross-family chain --------------------------------------------------------

func TestStampChainsAcrossFamilies(t *testing.T) {
	// sender -> pipe -> pidB -> socket -> pidC -> msgqueue -> pidD.
	// Propagation must survive a chain of arbitrary length (paper §III-D).
	st, interaction := stampedPair()
	const (
		pidB = 10
		pidC = 11
		pidD = 12
	)
	for _, pid := range []int{pidB, pidC, pidD} {
		st.set(pid, time.Time{})
	}

	pipe := NewPipe(st, 0)
	if _, err := pipe.Write(sender, []byte("1")); err != nil {
		t.Fatalf("pipe Write: %v", err)
	}
	if _, err := pipe.Read(pidB, make([]byte, 1)); err != nil {
		t.Fatalf("pipe Read: %v", err)
	}

	a, b := NewSocketPair(st).Ends()
	if err := a.Send(pidB, []byte("2")); err != nil {
		t.Fatalf("socket Send: %v", err)
	}
	if _, err := b.Recv(pidC); err != nil {
		t.Fatalf("socket Recv: %v", err)
	}

	q := NewMsgQueue(st, FlavorPOSIX, 0)
	if err := q.Send(pidC, 1, []byte("3")); err != nil {
		t.Fatalf("queue Send: %v", err)
	}
	if _, _, err := q.Recv(pidD, 0); err != nil {
		t.Fatalf("queue Recv: %v", err)
	}

	if s := st.get(t, pidD); !s.Equal(interaction) {
		t.Fatalf("end-of-chain stamp = %v, want %v", s, interaction)
	}
}
