package monitor

import (
	"testing"
	"time"
)

func staleQuery(base time.Time, stale, threshold time.Duration) Query {
	return Query{
		Stamp:  base,
		OpTime: base.Add(threshold + stale),
		Exists: true,
	}
}

func TestStaleReasonQuantized(t *testing.T) {
	p := Policy{Threshold: 2 * time.Second, Enforce: true}
	base := time.Unix(100, 0)
	cases := []struct {
		stale time.Duration
		want  string
	}{
		{3250 * time.Millisecond, "interaction stale by 3.2s (δ=2s)"},
		{3 * time.Second, "interaction stale by 3s (δ=2s)"},
		{987 * time.Millisecond, "interaction stale by 980ms (δ=2s)"},
		{0, "interaction stale by 0s (δ=2s)"},
		{99 * time.Nanosecond, "interaction stale by 99ns (δ=2s)"},
		// Two significant decimal figures of nanoseconds: 12345h is
		// 4.4442e16ns, which floors to 4.4e16ns.
		{12345 * time.Hour, "interaction stale by 12222h13m20s (δ=2s)"},
	}
	for _, tc := range cases {
		v, reason := p.Evaluate(staleQuery(base, tc.stale, p.Threshold))
		if v != VerdictDeny || reason != tc.want {
			t.Errorf("stale %v: got (%v, %q), want (deny, %q)", tc.stale, v, reason, tc.want)
		}
	}
}

func TestQuantizeStale(t *testing.T) {
	cases := []struct{ in, want time.Duration }{
		{-time.Second, 0},
		{0, 0},
		{99, 99},   // two digits pass through
		{100, 100}, // exactly two significant figures
		{101, 100},
		{999, 990},
		{3250 * time.Millisecond, 3200 * time.Millisecond},
		{1234567 * time.Microsecond, 1200 * time.Millisecond},
	}
	for _, tc := range cases {
		if got := QuantizeStale(tc.in); got != tc.want {
			t.Errorf("QuantizeStale(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

// TestStaleReasonZeroAlloc pins the satellite claim: a warm stale
// denial allocates nothing — the reason is interned, not Sprintf'd per
// decision.
func TestStaleReasonZeroAlloc(t *testing.T) {
	p := Policy{Threshold: 2 * time.Second, Enforce: true}
	base := time.Unix(100, 0)
	q := staleQuery(base, 3250*time.Millisecond, p.Threshold)
	p.Evaluate(q) // warm the cache
	if n := testing.AllocsPerRun(100, func() {
		if v, _ := p.Evaluate(q); v != VerdictDeny {
			t.Fatal("expected deny")
		}
	}); n != 0 {
		t.Fatalf("warm stale denial allocates %v/op, want 0", n)
	}
}

// TestStaleReasonInterned pins that equal (staleness, δ) pairs produce
// the identical string value — what fleet-wide exact-string
// equivalence and the audit scan's reason memo rely on.
func TestStaleReasonInterned(t *testing.T) {
	p := Policy{Threshold: 2 * time.Second, Enforce: true}
	base := time.Unix(100, 0)
	_, a := p.Evaluate(staleQuery(base, 3250*time.Millisecond, p.Threshold))
	// A different raw staleness quantizing to the same bucket must
	// yield the same reason.
	_, b := p.Evaluate(staleQuery(base.Add(time.Hour), 3299*time.Millisecond, p.Threshold))
	if a != b {
		t.Fatalf("same bucket, different reasons: %q vs %q", a, b)
	}
}
