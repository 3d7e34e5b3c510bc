package ipc

import (
	"testing"
	"time"

	"overhaul/internal/clock"
	"overhaul/internal/faultinject"
	"overhaul/internal/probe"
)

// hookFor returns a hook injecting kind at exactly one point.
func hookFor(point faultinject.Point, kind faultinject.Kind) faultinject.Hook {
	return func(p faultinject.Point) faultinject.Fault {
		if p == point {
			return faultinject.Fault{Point: p, Kind: kind}
		}
		return faultinject.Fault{Point: p}
	}
}

// TestFaultyStampsDropsWriteFailClosed: an injected stamp-store write
// failure loses the Adopt — the receiver keeps its older stamp. That
// direction is fail closed: a staler stamp can only turn a would-be
// grant into a denial, never mint a grant.
func TestFaultyStampsDropsWriteFailClosed(t *testing.T) {
	base := newFakeStamps()
	clk := clock.NewSimulated()
	old := clk.Now()
	base.set(receiver, old)

	faulty := FaultyStamps(base, hookFor(faultinject.PointStampWrite, faultinject.KindError))
	faulty.Adopt(receiver, old.Add(time.Second), senderSpan)
	if got := base.get(t, receiver); !got.Equal(old) {
		t.Fatalf("stamp moved to %v under write fault, want unchanged %v", got, old)
	}

	// Reads pass through untouched.
	if got, _, ok := faulty.Stamp(receiver); !ok || !got.Equal(old) {
		t.Fatalf("Stamp = (%v,%v), want (%v,true)", got, ok, old)
	}
	base.wantSpan(t, receiver, probe.SpanContext{})

	// Without the fault the same Adopt lands.
	healthy := FaultyStamps(base, func(p faultinject.Point) faultinject.Fault {
		return faultinject.Fault{Point: p}
	})
	healthy.Adopt(receiver, old.Add(time.Second), senderSpan)
	if got := base.get(t, receiver); !got.Equal(old.Add(time.Second)) {
		t.Fatalf("healthy Adopt did not land: %v", got)
	}
	base.wantSpan(t, receiver, senderSpan)
}

// TestFaultyStampsNilPassthrough: nil hook or store decorate to the
// original value.
func TestFaultyStampsNilPassthrough(t *testing.T) {
	base := newFakeStamps()
	if got := FaultyStamps(base, nil); got != Stamps(base) {
		t.Error("nil hook should return the store unchanged")
	}
	if got := FaultyStamps(nil, hookFor(faultinject.PointStampWrite, faultinject.KindError)); got != nil {
		t.Error("nil store should stay nil")
	}
}

// TestShmTimerMisfireFailsClosed: an injected wait-list timer misfire
// during the disarm window must take the fault path again — stamps
// re-propagate instead of the access riding an untrustworthy window.
func TestShmTimerMisfireFailsClosed(t *testing.T) {
	st := newFakeStamps()
	clk := clock.NewSimulated()
	st.set(sender, clk.Now()) // non-zero so propagation is observable
	st.set(receiver, time.Time{})

	seg, err := NewSharedMem(st, clk, 1, time.Second)
	if err != nil {
		t.Fatalf("NewSharedMem: %v", err)
	}
	m := seg.Map(receiver)

	// First access arms the window (ordinary fault path).
	if err := m.Write(0, []byte{1}); err != nil {
		t.Fatalf("Write: %v", err)
	}
	armFaults := seg.StatsSnapshot().Faults

	// Inside the window with a misfiring timer: the access must fault
	// again rather than ride the fast path.
	seg.SetFaultHook(hookFor(faultinject.PointShmTimer, faultinject.KindError))
	clk.Advance(10 * time.Millisecond)
	if _, err := m.Read(0, 1); err != nil {
		t.Fatalf("Read: %v", err)
	}
	stats := seg.StatsSnapshot()
	if stats.TimerMisfires != 1 {
		t.Fatalf("TimerMisfires = %d, want 1", stats.TimerMisfires)
	}
	if stats.Faults != armFaults+1 {
		t.Fatalf("Faults = %d, want %d (misfire must re-fault)", stats.Faults, armFaults+1)
	}
	if stats.FastAccesses != 0 {
		t.Fatalf("FastAccesses = %d, want 0 under misfires", stats.FastAccesses)
	}

	// With the hook healthy again the re-armed window serves the fast
	// path as usual.
	seg.SetFaultHook(nil)
	clk.Advance(10 * time.Millisecond)
	if _, err := m.Read(0, 1); err != nil {
		t.Fatalf("Read: %v", err)
	}
	if got := seg.StatsSnapshot().FastAccesses; got != 1 {
		t.Fatalf("FastAccesses = %d, want 1 after recovery", got)
	}
}
