package monitor

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
	"unsafe"
)

// ringModel is the naive audit ring the packed one must agree with:
// whole Decisions, oldest first, fed from the audit sink, which sees
// every decision as Decide built it.
type ringModel struct {
	cap     int
	recs    []Decision
	dropped uint64
}

func (r *ringModel) push(d Decision) {
	if len(r.recs) == r.cap {
		r.recs = r.recs[1:]
		r.dropped++
	}
	r.recs = append(r.recs, d)
}

func (r *ringModel) reset() { r.recs, r.dropped = nil, 0 }

// ringTimes are the instants the round trip must survive: the zero
// time, ordinary times in and out of UTC, a time with a monotonic
// reading, times outside the int64-nanosecond range (before 1678,
// after 2262, year 1) and the range's own ends.
func ringTimes() []time.Time {
	base := time.Date(2016, 6, 28, 9, 0, 0, 0, time.UTC)
	east := time.FixedZone("UTC+5", 5*3600)
	return []time.Time{
		{},
		base,
		base.Add(1500 * time.Millisecond),
		base.Add(3250 * time.Millisecond),
		base.Add(47 * time.Second),
		base.Add(-time.Hour).In(east),
		time.Now(), //overhaul:allow clockcheck the round trip must drop a monotonic reading, and only the wall clock carries one
		time.Date(1500, 3, 1, 12, 0, 0, 7, time.UTC),
		time.Date(1677, 9, 21, 0, 12, 43, 0, time.UTC),
		time.Date(2262, 4, 11, 23, 47, 17, 0, time.UTC),
		time.Date(2300, 1, 1, 0, 0, 0, 1, east),
		time.Time{}.Add(time.Nanosecond),
		time.Unix(0, noTime+1),
		time.Unix(0, 1<<63-1),
	}
}

// TestAuditRingRoundTrip drives Decide, RecordDenial, degraded mode
// and ResetAudit with random inputs and checks Audit and DroppedAudit
// against a naive ring of whole Decisions after every step: field for
// field, Reason with == and times with Equal, every time in UTC with
// no monotonic reading.
func TestAuditRingRoundTrip(t *testing.T) {
	times := ringTimes()
	ops := []Op{OpCopy, OpPaste, OpScreen, OpMic, OpCam, OpOther, "gpu", ""}
	pids := []int{1, 2, 3, 4, -5, 1 << 40}
	thresholds := []time.Duration{time.Millisecond, 500 * time.Millisecond, DefaultThreshold, 7 * time.Second}
	reasons := []string{"", "transient open failure: fail closed", ReasonWithinDelta, "netlink channel dead"}
	rng := rand.New(rand.NewSource(27))
	for trial := 0; trial < 60; trial++ {
		capacity := []int{1, 3, 64}[trial%3]
		cfg := Config{
			Threshold:     thresholds[rng.Intn(len(thresholds))],
			AuditCapacity: capacity,
			Enforce:       rng.Intn(8) != 0,
			ForceGrant:    rng.Intn(8) == 0,
		}
		m, tasks, _ := newTestMonitor(t, cfg)
		for _, pid := range pids[:len(pids)-1] {
			tasks.add(pid)
		}
		tasks.disabled[2] = true
		model := &ringModel{cap: capacity}
		m.SetAuditSink(model.push)
		for step := 0; step < 400; step++ {
			pid := pids[rng.Intn(len(pids))]
			op := ops[rng.Intn(len(ops))]
			opTime := times[rng.Intn(len(times))]
			var what string
			switch k := rng.Intn(20); {
			case k < 3:
				what = "stamp"
				tasks.mu.Lock()
				if _, ok := tasks.stamps[pid]; ok {
					tasks.stamps[pid] = times[rng.Intn(len(times))]
				}
				tasks.mu.Unlock()
			case k < 5:
				what = "record denial"
				m.RecordDenial(pid, op, opTime, reasons[rng.Intn(len(reasons))])
			case k == 5:
				what = "degrade"
				m.SetDegraded(reasons[rng.Intn(len(reasons))])
			case k == 6:
				what = "clear degraded"
				m.ClearDegraded()
			case k == 7 && rng.Intn(4) == 0:
				what = "reset"
				m.ResetAudit()
				model.reset()
			default:
				// Stale denials at many distinct stalenesses: op times
				// spread past a stamp near the base time.
				what = "decide"
				if rng.Intn(2) == 0 {
					opTime = times[1].Add(time.Duration(rng.Int63n(int64(time.Minute))))
				}
				m.Decide(pid, op, opTime)
			}
			desc := fmt.Sprintf("trial %d (cap %d, %+v) step %d (%s)", trial, capacity, cfg, step, what)
			checkRing(t, desc, m, model)
		}
	}
}

// checkRing compares m's audit log with the model's.
func checkRing(t *testing.T, desc string, m *Monitor, model *ringModel) {
	t.Helper()
	if got, want := m.DroppedAudit(), model.dropped; got != want {
		t.Fatalf("%s: DroppedAudit = %d, model %d", desc, got, want)
	}
	got := m.Audit()
	if len(got) != len(model.recs) {
		t.Fatalf("%s: Audit has %d records, model %d", desc, len(got), len(model.recs))
	}
	for i, g := range got {
		w := model.recs[i]
		if g.PID != w.PID || g.Op != w.Op || g.Verdict != w.Verdict || g.Reason != w.Reason || g.Degraded != w.Degraded ||
			!g.OpTime.Equal(w.OpTime) || !g.Stamp.Equal(w.Stamp) {
			t.Fatalf("%s: record %d:\n got %+v\nwant %+v", desc, i, g, w)
		}
		for _, tm := range []time.Time{g.OpTime, g.Stamp} {
			if tm.Location() != time.UTC || tm != tm.Round(0) {
				t.Fatalf("%s: record %d time %v not in UTC without a monotonic reading", desc, i, tm)
			}
		}
	}
}

// TestAuditEntrySize pins the ring's slot: 24 bytes, no pointers.
func TestAuditEntrySize(t *testing.T) {
	if got := unsafe.Sizeof(auditEntry{}); got != 24 {
		t.Fatalf("auditEntry is %d bytes, want 24", got)
	}
}

// TestDegradedDecideZeroAlloc: a degraded Decide allocates nothing
// once the ring and its side slot exist — the denial reason is built
// once by SetDegraded, not per decision.
func TestDegradedDecideZeroAlloc(t *testing.T) {
	m, tasks, clk := newTestMonitor(t, Config{Enforce: true, AuditCapacity: 8})
	tasks.add(7)
	m.SetDegraded("netlink channel dead")
	m.Decide(7, OpMic, clk.Now()) // allocate the ring and the side slot
	if avg := testing.AllocsPerRun(200, func() {
		if m.Decide(7, OpMic, clk.Now()) != VerdictDeny {
			t.Fatal("degraded Decide granted")
		}
	}); avg != 0 {
		t.Errorf("degraded Decide allocates %.1f times per op, want 0", avg)
	}
}

// TestDegradedEvaluateZeroAlloc: a warm degraded Evaluate allocates
// nothing, and its reason text is unchanged.
func TestDegradedEvaluateZeroAlloc(t *testing.T) {
	p := Policy{Threshold: DefaultThreshold, Enforce: true}
	q := Query{Degraded: "netlink channel dead", Exists: true}
	if _, r := p.Evaluate(q); r != "protection degraded: netlink channel dead" {
		t.Fatalf("degraded reason %q", r)
	}
	if n := testing.AllocsPerRun(100, func() {
		if v, _ := p.Evaluate(q); v != VerdictDeny {
			t.Fatal("expected deny")
		}
	}); n != 0 {
		t.Fatalf("warm degraded Evaluate allocates %v/op, want 0", n)
	}
}

// TestRecordDenialZeroAlloc: an audited outside denial allocates
// nothing once the ring and its side slot exist.
func TestRecordDenialZeroAlloc(t *testing.T) {
	m, tasks, clk := newTestMonitor(t, Config{Enforce: true, AuditCapacity: 8})
	tasks.add(7)
	m.RecordDenial(7, OpCam, clk.Now(), "transient open failure: fail closed")
	if avg := testing.AllocsPerRun(200, func() {
		m.RecordDenial(7, OpCam, clk.Now(), "transient open failure: fail closed")
	}); avg != 0 {
		t.Errorf("RecordDenial allocates %.1f times per op, want 0", avg)
	}
}

// TestAuditDuringStaleInterning reads audit rings while other monitors
// intern new stale reasons, for -race: Audit indexes a snapshot of the
// shared stale-reason table that appends keep growing.
func TestAuditDuringStaleInterning(t *testing.T) {
	const workers, decisions = 4, 300
	base := time.Date(2016, 6, 28, 9, 0, 0, 0, time.UTC)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		m, tasks, _ := newTestMonitor(t, Config{Enforce: true, AuditCapacity: 16, Threshold: time.Duration(w+1) * 3 * time.Millisecond})
		tasks.add(1)
		tasks.stamps[1] = base
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < decisions; i++ {
				// Forty stalenesses per δ: the first pass interns a new
				// reason on every denial, without filling the table.
				m.Decide(1, OpMic, base.Add(time.Duration(i%40+1)*time.Hour))
				for _, d := range m.Audit() {
					if d.Verdict == VerdictDeny && d.Reason == "" {
						t.Errorf("stale denial read back with no reason")
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
