package kernel

import (
	"testing"
	"time"

	"overhaul/internal/clock"
	"overhaul/internal/fs"
	"overhaul/internal/monitor"
	"overhaul/internal/probe"
)

func newRecycleKernel(t *testing.T) *Kernel {
	t.Helper()
	clk := clock.NewSimulated()
	fsys := fs.New(clk)
	k, err := New(clk, fsys, Config{Monitor: monitor.Config{Enforce: true}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return k
}

// TestProcessRecycleIdentity pins the type-stable task-struct contract:
// an exited process's struct may be reincarnated by the next spawn, but
// the new incarnation has a fresh pid (pids are never reused), a
// cleared interaction stamp, and the dead pid resolves to nothing — the
// lock-free read path can never attribute the new process's state to
// the old pid.
func TestProcessRecycleIdentity(t *testing.T) {
	k := newRecycleKernel(t)
	ts := (*taskStore)(k)

	p1, err := k.Spawn(SpawnSpec{Name: "first"})
	if err != nil {
		t.Fatalf("Spawn: %v", err)
	}
	oldPID := p1.PID()
	stamp := k.Clock().Now()
	if err := ts.SetInteractionStampSpan(oldPID, stamp, probe.SpanContext{}); err != nil {
		t.Fatalf("SetInteractionStampSpan: %v", err)
	}
	if err := p1.Exit(); err != nil {
		t.Fatalf("Exit: %v", err)
	}

	p2, err := k.Spawn(SpawnSpec{Name: "second"})
	if err != nil {
		t.Fatalf("Spawn: %v", err)
	}
	if p2.PID() == oldPID {
		t.Fatalf("pid %d reused; pids must be unique for recycle detection", oldPID)
	}
	if got := p2.InteractionStamp(); !got.IsZero() {
		t.Errorf("reincarnated process inherited stamp %v from its previous life", got)
	}
	if _, _, _, ok := ts.InteractionView(oldPID); ok {
		t.Errorf("InteractionView(%d) resolved a dead pid", oldPID)
	}
	if err := ts.SetInteractionStampSpan(oldPID, stamp.Add(time.Second), probe.SpanContext{}); err == nil {
		t.Errorf("SetInteractionStampSpan(%d) succeeded for a dead pid", oldPID)
	}
	if got := p2.InteractionStamp(); !got.IsZero() {
		t.Errorf("write to dead pid %d leaked onto the reincarnated struct (stamp %v)", oldPID, got)
	}
}

// TestForkExitSteadyStateAllocs asserts the free list does its job: a
// fork+exit cycle in steady state allocates (amortised) nothing — the
// child struct comes off the kernel's free list, the same claim
// BenchmarkMicroForkInheritance makes at the repo root. The tolerance
// below 0.5 absorbs the rare parent-children append growth and a GC
// emptying the pool mid-measurement.
func TestForkExitSteadyStateAllocs(t *testing.T) {
	k := newRecycleKernel(t)
	parent, err := k.Spawn(SpawnSpec{Name: "parent"})
	if err != nil {
		t.Fatalf("Spawn: %v", err)
	}
	fork := func() {
		child, err := parent.Fork()
		if err != nil {
			t.Fatalf("Fork: %v", err)
		}
		if err := child.Exit(); err != nil {
			t.Fatalf("Exit: %v", err)
		}
	}
	for i := 0; i < 3000; i++ {
		fork() // warm the free list and grow the children array
	}
	if avg := testing.AllocsPerRun(200, fork); avg >= 0.5 {
		t.Errorf("fork+exit allocates %.2f times per op in steady state, want ~0", avg)
	}
}
