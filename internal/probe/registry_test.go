package probe

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestNilRegistryIsInert(t *testing.T) {
	var r *Registry
	h := r.Hook(HookKernelDecide)
	if h != nil {
		t.Fatal("nil registry must resolve nil hooks")
	}
	if h.Armed() {
		t.Fatal("nil hook must never be armed")
	}
	if h.Wants(1) {
		t.Fatal("nil hook must never want an event")
	}
	// Emitting on a nil-resolved hook must be a no-op, not a panic
	// (subsystems always guard with Armed, but the contract holds).
	if h.Name() != "" {
		t.Fatal("nil hook name")
	}
	if r.List() != nil {
		t.Fatal("nil registry List must be nil")
	}
	if _, err := r.Attach(Spec{}, NewRing(8)); err == nil {
		t.Fatal("attach on nil registry must error")
	}
	if err := r.Detach(1); err == nil {
		t.Fatal("detach on nil registry must error")
	}
}

func TestRegistryHookVocabulary(t *testing.T) {
	r := NewRegistry()
	names := HookNames()
	if len(names) != 15 {
		t.Fatalf("vocabulary has %d hooks, want 15", len(names))
	}
	for _, name := range names {
		h := r.Hook(name)
		if h == nil {
			t.Fatalf("hook %q missing", name)
		}
		if h.Name() != name {
			t.Fatalf("hook %q reports name %q", name, h.Name())
		}
		if h.Armed() {
			t.Fatalf("fresh hook %q armed", name)
		}
		if !KnownHook(name) {
			t.Fatalf("KnownHook(%q) = false", name)
		}
	}
	if r.Hook("kernel.close") != nil {
		t.Fatal("unknown hook name must resolve nil")
	}
}

func TestAttachDetachLifecycle(t *testing.T) {
	r := NewRegistry()
	ring := NewRing(64)

	// Single-hook attach arms exactly that hook.
	p1, err := r.AttachSpec("hook=kernel.decide verdict=deny", ring)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Hook(HookKernelDecide).Armed() {
		t.Fatal("kernel.decide not armed after attach")
	}
	if r.Hook(HookKernelOpen).Armed() {
		t.Fatal("kernel.open armed by a kernel.decide attach")
	}

	// Hook-less attach arms everything.
	p2, err := r.AttachSpec("op=input", ring)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range HookNames() {
		if !r.Hook(name).Armed() {
			t.Fatalf("hook %q not armed by match-all attach", name)
		}
	}

	// Emission: deny decide matches p1; input matches p2 only.
	deny := Event{Kind: KindDecide, Verdict: VerdictDeny}
	r.Hook(HookKernelDecide).Emit(&deny)
	input := Event{Kind: KindInput}
	r.Hook(HookXServerInput).Emit(&input)
	if p1.Matched() != 1 {
		t.Fatalf("p1 matched %d, want 1", p1.Matched())
	}
	if p2.Matched() != 1 {
		t.Fatalf("p2 matched %d, want 1 (input only)", p2.Matched())
	}

	infos := r.List()
	if len(infos) != 2 || infos[0].ID != p1.ID() || infos[1].ID != p2.ID() {
		t.Fatalf("List = %+v", infos)
	}
	if infos[0].Spec != "op=decide verdict=deny" && infos[0].Spec != "hook=kernel.decide op=decide verdict=deny" {
		// p1's spec had no op filter; just sanity-check the hook field.
		if infos[0].Hooks[0] != HookKernelDecide {
			t.Fatalf("p1 hooks %v", infos[0].Hooks)
		}
	}

	// Detach p2: only kernel.decide stays armed (p1).
	if err := r.Detach(p2.ID()); err != nil {
		t.Fatal(err)
	}
	if !r.Hook(HookKernelDecide).Armed() {
		t.Fatal("kernel.decide disarmed by detaching the other probe")
	}
	if r.Hook(HookXServerInput).Armed() {
		t.Fatal("xserver.input still armed after detach")
	}
	if err := r.Detach(p2.ID()); err == nil {
		t.Fatal("double detach must error")
	}
	if err := r.Detach(p1.ID()); err != nil {
		t.Fatal(err)
	}
	for _, name := range HookNames() {
		if r.Hook(name).Armed() {
			t.Fatalf("hook %q armed after all probes detached", name)
		}
	}
	if len(r.List()) != 0 {
		t.Fatal("List non-empty after full detach")
	}
}

func TestAttachErrors(t *testing.T) {
	r := NewRegistry()
	if _, err := r.Attach(Spec{}, nil); err == nil {
		t.Fatal("nil ring must be rejected")
	}
	if _, err := r.Attach(Spec{Hook: "bogus"}, NewRing(8)); err == nil {
		t.Fatal("unknown hook must be rejected")
	}
	if _, err := r.AttachSpec("op=???", NewRing(8)); err == nil {
		t.Fatal("bad spec must be rejected")
	}
}

func TestEmitRespectsSpec(t *testing.T) {
	r := NewRegistry()
	ring := NewRing(64)
	if _, err := r.AttachSpec("hook=kernel.decide dev=mic verdict=deny pid=1-50", ring); err != nil {
		t.Fatal(err)
	}
	h := r.Hook(HookKernelDecide)
	h.Emit(&Event{Kind: KindDecide, Dev: DevMic, Verdict: VerdictDeny, PID: 10})  // match
	h.Emit(&Event{Kind: KindDecide, Dev: DevCam, Verdict: VerdictDeny, PID: 10})  // dev mismatch
	h.Emit(&Event{Kind: KindDecide, Dev: DevMic, Verdict: VerdictGrant, PID: 10}) // verdict mismatch
	h.Emit(&Event{Kind: KindDecide, Dev: DevMic, Verdict: VerdictDeny, PID: 99})  // pid mismatch
	buf := make([]Event, 8)
	if n := ring.ReadBatch(buf); n != 1 {
		t.Fatalf("ring received %d events, want 1", n)
	}
	if buf[0].PID != 10 || buf[0].Dev != DevMic {
		t.Fatalf("wrong event published: %+v", buf[0])
	}
}

// TestWantsPidWindow pins the first-stage filter: Wants is the union
// of the attached specs' pid windows, recomputed on attach and detach.
func TestWantsPidWindow(t *testing.T) {
	r := NewRegistry()
	h := r.Hook(HookKernelDecide)
	if h.Wants(7) {
		t.Fatal("unattached hook must not want any pid")
	}

	narrow, err := r.AttachSpec("hook=kernel.decide pid=100-200", NewRing(8))
	if err != nil {
		t.Fatal(err)
	}
	for pid, want := range map[int64]bool{99: false, 100: true, 200: true, 201: false} {
		if got := h.Wants(pid); got != want {
			t.Errorf("narrow window: Wants(%d) = %v, want %v", pid, got, want)
		}
	}

	// A second probe with no pid filter widens the union to everything.
	wide, err := r.AttachSpec("hook=kernel.decide dev=cam", NewRing(8))
	if err != nil {
		t.Fatal(err)
	}
	if !h.Wants(7) || !h.Wants(1<<40) {
		t.Fatal("unfiltered probe must widen the window to all pids")
	}

	// Detaching it narrows the window back.
	if err := r.Detach(wide.ID()); err != nil {
		t.Fatal(err)
	}
	if h.Wants(7) || !h.Wants(150) {
		t.Fatal("detach must recompute the pid window")
	}
	if err := r.Detach(narrow.ID()); err != nil {
		t.Fatal(err)
	}
	if h.Wants(150) {
		t.Fatal("fully detached hook must not want any pid")
	}
}

// countConsumer counts the events it is fed.
type countConsumer struct{ n atomic.Uint64 }

func (c *countConsumer) Consume(Event) { c.n.Add(1) }

// TestAttachDetachUnderEmit attaches and detaches probes and consumers
// while another goroutine runs the emission-site pattern. Attach sets
// share the hook's observer slices, so under -race any in-place write
// to a slice a published set holds is reported; and the probe attached
// throughout must see every emitted event exactly once.
func TestAttachDetachUnderEmit(t *testing.T) {
	r := NewRegistry()
	h := r.Hook(HookKernelDecide)
	anchor, err := r.AttachSpec("hook=kernel.decide", NewRing(64))
	if err != nil {
		t.Fatal(err)
	}
	var (
		stop    atomic.Bool
		emitted uint64
		wg      sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			if !h.Wants(1) {
				t.Error("hook with a probe attached throughout does not want pid 1")
				return
			}
			h.Emit(&Event{Kind: KindDecide, PID: 1})
			emitted++
		}
	}()
	var consumers []*countConsumer
	for i := 0; i < 2000; i++ {
		scoped, err := r.AttachSpec("hook=kernel.decide pid=1", NewRing(64))
		if err != nil {
			t.Fatal(err)
		}
		all, err := r.AttachSpec("", NewRing(64))
		if err != nil {
			t.Fatal(err)
		}
		if i%200 == 0 {
			c := &countConsumer{}
			if err := r.AttachConsumer(c, HookKernelDecide); err != nil {
				t.Fatal(err)
			}
			consumers = append(consumers, c)
		}
		if err := r.Detach(scoped.ID()); err != nil {
			t.Fatal(err)
		}
		if err := r.Detach(all.ID()); err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	wg.Wait()
	if got := anchor.Matched(); got != emitted {
		t.Fatalf("anchor probe matched %d of %d events", got, emitted)
	}
	for i, c := range consumers {
		if got := c.n.Load(); got > emitted {
			t.Fatalf("consumer %d fed %d events, more than the %d emitted", i, got, emitted)
		}
	}
	if got := len(r.List()); got != 1 {
		t.Fatalf("%d probes left attached, want 1", got)
	}
}
