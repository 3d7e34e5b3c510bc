package fleet

import (
	"runtime"
	"testing"
	"time"

	"overhaul/internal/monitor"
)

// liveHeap returns the live heap after a full collection.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// fillSession boots one session of one stamped process and fills its
// audit ring twice over with alternating grants and stale denials.
func fillSession(tb testing.TB, f *Fleet) {
	s := f.CreateSession()
	pid, err := s.Spawn()
	if err != nil {
		tb.Fatal(err)
	}
	if err := s.Notify(pid, base); err != nil {
		tb.Fatal(err)
	}
	for j := 0; j < 2*DefaultAuditCapacity; j++ {
		if _, err := s.Decide(pid, monitor.OpMic, base.Add(time.Duration(j)*time.Second)); err != nil {
			tb.Fatal(err)
		}
	}
}

// fullSessionsHeap returns the live heap per session of a fleet of n
// sessions filled by fillSession.
func fullSessionsHeap(tb testing.TB, n int) float64 {
	tb.Helper()
	heap0 := liveHeap()
	f, err := New(Config{Policy: monitor.Policy{Enforce: true}})
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < n; i++ {
		fillSession(tb, f)
	}
	per := float64(liveHeap()-heap0) / float64(n)
	f.ForEachSession(func(s *Session) {
		if got := len(s.Audit()); got != DefaultAuditCapacity {
			tb.Fatalf("session ring holds %d records, want %d", got, DefaultAuditCapacity)
		}
	})
	return per
}

// TestSessionHeapWithFullRing pins what a session costs once its audit
// ring has filled. With a ring of whole 104-byte Decisions a session
// measured 7,301 B on amd64; the packed ring must hold it to 40% of
// that.
func TestSessionHeapWithFullRing(t *testing.T) {
	const decisionRingBytes = 7301
	per := fullSessionsHeap(t, 1000)
	t.Logf("%.0f B/session with a full %d-record ring", per, DefaultAuditCapacity)
	if limit := 0.4 * decisionRingBytes; per > limit {
		t.Errorf("session heap %.0f B with a full ring, want <= %.0f", per, limit)
	}
}

// BenchmarkFleetSessionHeap reports B/session: the live heap one
// session holds once its audit ring has filled, over 1,000 sessions.
// An op boots one session and fills its ring.
func BenchmarkFleetSessionHeap(b *testing.B) {
	per := fullSessionsHeap(b, 1000)
	f, err := New(Config{Policy: monitor.Policy{Enforce: true}})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fillSession(b, f)
	}
	b.ReportMetric(per, "B/session")
}
