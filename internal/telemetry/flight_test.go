package telemetry

import (
	"encoding/json"
	"math/rand"
	"runtime"
	"strconv"
	"testing"
	"time"

	"overhaul/internal/clock"
	"overhaul/internal/probe"
)

// eagerFlight is the reference model for the flight recorder: the
// original implementation, which copied and rendered the whole ring
// into a dump at every trip and shifted the dump slice on eviction.
// The lazy recorder must be observationally identical to it.
type eagerFlight struct {
	flightCap, dumpCap int

	seq     uint64
	ring    []FlightEvent
	head, n int
	dumps   []FlightDump
}

func (m *eagerFlight) record(ev FlightEvent) {
	m.seq++
	ev.Seq = m.seq
	if m.ring == nil {
		m.ring = make([]FlightEvent, m.flightCap)
	}
	if m.n < m.flightCap {
		m.ring[(m.head+m.n)%m.flightCap] = ev
		m.n++
	} else {
		m.ring[m.head] = ev
		m.head = (m.head + 1) % m.flightCap
	}
}

// trip is the deleted eager tripFlight: record the trip event, then
// snapshot the ring.
func (m *eagerFlight) trip(now time.Time, subsystem, reason string) {
	m.record(FlightEvent{Time: now, Subsystem: subsystem, Kind: "trip", Detail: reason})
	d := FlightDump{Seq: m.seq, Time: now, Reason: reason, Events: m.events()}
	if len(m.dumps) >= m.dumpCap {
		copy(m.dumps, m.dumps[1:])
		m.dumps[len(m.dumps)-1] = d
	} else {
		m.dumps = append(m.dumps, d)
	}
}

func (m *eagerFlight) events() []FlightEvent {
	out := make([]FlightEvent, 0, m.n)
	for i := 0; i < m.n; i++ {
		ev := m.ring[(m.head+i)%m.flightCap]
		ev.render()
		out = append(out, ev)
	}
	return out
}

func (m *eagerFlight) dumpsCopy() []FlightDump {
	out := make([]FlightDump, len(m.dumps))
	for i, d := range m.dumps {
		d.Events = append([]FlightEvent(nil), d.Events...)
		out[i] = d
	}
	return out
}

// scribble overwrites everything a caller could reach through a
// returned dump, so a recorder that hands out its own storage shows
// the damage on the next read.
func scribble(dumps []FlightDump) {
	for i := range dumps {
		for j := range dumps[i].Events {
			dumps[i].Events[j] = FlightEvent{Detail: "scribbled"}
		}
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return string(b)
}

// TestFlightDumpsMatchEagerModel runs random traces of recordings,
// trips and reads against the recorder and the eager reference model
// on a simulated clock, and requires byte-identical JSON from every
// read. Reads land at random points and recording continues after
// them; every returned dump is scribbled over before the next step.
func TestFlightDumpsMatchEagerModel(t *testing.T) {
	subsystems := []string{"kernel", "monitor", "xserver"}
	ops := []string{"mic", "camera", "clipboard", ""}
	reasons := []string{"stale stamp", "no interaction", "protection degraded: channel down", ""}
	seeds := 10
	if testing.Short() {
		seeds = 3
	}
	for fc := 1; fc <= 9; fc++ {
		for dc := 1; dc <= 4; dc++ {
			for seed := 1; seed <= seeds; seed++ {
				clk := clock.NewSimulated()
				r := NewWithOptions(clk, Options{FlightCapacity: fc, DumpCapacity: dc})
				m := &eagerFlight{flightCap: fc, dumpCap: dc}
				rng := rand.New(rand.NewSource(int64(seed*100 + fc*10 + dc)))
				for step := 0; step < 300; step++ {
					now := clk.Now()
					sub := subsystems[rng.Intn(len(subsystems))]
					pid := rng.Intn(100)
					op := ops[rng.Intn(len(ops))]
					reason := reasons[rng.Intn(len(reasons))]
					switch k := rng.Intn(20); {
					case k < 6:
						detail := "event " + strconv.Itoa(step)
						r.recordEvent(probe.SpanContext{}, sub, "fault", detail)
						m.record(FlightEvent{Time: now, Subsystem: sub, Kind: "fault", Detail: detail})
					case k < 11:
						verdict := []string{"grant", "deny"}[rng.Intn(2)]
						r.recordDecision(probe.SpanContext{}, sub, pid, op, verdict, reason)
						m.record(FlightEvent{Time: now, Subsystem: sub, Kind: "decision",
							decPID: pid, decOp: op, decVerdict: verdict, decReason: reason})
					case k < 13:
						r.tripFlight(probe.SpanContext{}, sub, reason)
						m.trip(now, sub, reason)
					case k < 15:
						r.tripDenial(probe.SpanContext{}, sub, pid, op, reason)
						// What the monitor passed to the eager tripFlight.
						m.trip(now, sub, "deny pid="+strconv.Itoa(pid)+" op="+op+": "+reason)
					case k < 16:
						clk.Advance(time.Duration(1+rng.Intn(1000)) * time.Microsecond)
					default:
						where := "fc=" + strconv.Itoa(fc) + " dc=" + strconv.Itoa(dc) +
							" seed=" + strconv.Itoa(seed) + " step=" + strconv.Itoa(step)
						compareFlightReads(t, where, rng.Intn(4), r, m)
					}
				}
				compareFlightReads(t, "final", 1, r, m)
				if t.Failed() {
					return
				}
			}
		}
	}
}

// compareFlightReads performs one read of the given kind on both the
// recorder and the model and compares the JSON.
func compareFlightReads(t *testing.T, where string, kind int, r *Recorder, m *eagerFlight) {
	t.Helper()
	var got, want string
	switch kind {
	case 0:
		got, want = mustJSON(t, r.FlightEvents()), mustJSON(t, m.events())
	case 1:
		dumps := r.FlightDumps()
		got, want = mustJSON(t, dumps), mustJSON(t, m.dumpsCopy())
		scribble(dumps)
	case 2:
		d, ok := r.LastFlightDump()
		var md FlightDump
		mok := len(m.dumps) > 0
		if mok {
			md = m.dumpsCopy()[len(m.dumps)-1]
		}
		if ok != mok {
			t.Fatalf("%s: LastFlightDump ok = %v, model %v", where, ok, mok)
		}
		got, want = mustJSON(t, d), mustJSON(t, md)
		scribble([]FlightDump{d})
	case 3:
		s := r.Snapshot()
		got = mustJSON(t, []any{s.Flight, s.Dumps})
		want = mustJSON(t, []any{m.events(), m.dumpsCopy()})
		scribble(s.Dumps)
	}
	if got != want {
		t.Fatalf("%s: read %d differs from the eager model\n got: %s\nwant: %s", where, kind, got, want)
	}
}

func TestFlightTripsCountsEvictedDumps(t *testing.T) {
	r := NewWithOptions(clock.NewSimulated(), Options{DumpCapacity: 2})
	for i := 0; i < 10; i++ {
		r.tripFlight(probe.SpanContext{}, "monitor", "trip "+strconv.Itoa(i))
	}
	if got := r.FlightTrips(); got != 10 {
		t.Fatalf("FlightTrips = %d, want 10", got)
	}
	if got := len(r.FlightDumps()); got != 2 {
		t.Fatalf("retained %d dumps, want 2", got)
	}
	var off *Recorder
	if off.FlightTrips() != 0 {
		t.Fatal("nil recorder counts trips")
	}
}

// TestFlightTripsBounded checks that a trip costs no allocation and
// that the recorder's memory is bounded by its capacities, not by how
// many trips it has taken: both with trips alone (every dump is evicted
// unread) and with traffic between trips (every dump outlives its
// window in the ring and is materialised).
func TestFlightTripsBounded(t *testing.T) {
	trips := 100_000
	if testing.Short() {
		trips = 10_000
	}
	cases := []struct {
		name    string
		opts    Options
		perTrip int // decisions recorded before each trip
	}{
		{"trips-only", Options{}, 0},
		// Eight dumps span 40 events, so each outlives its 17-event
		// window in the ring.
		{"materialising", Options{FlightCapacity: 16, DumpCapacity: 8}, 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := NewWithOptions(clock.NewSimulated(), tc.opts)
			step := func() {
				for i := 0; i < tc.perTrip; i++ {
					r.recordDecision(probe.SpanContext{}, "monitor", 7, "mic", "grant", "fresh stamp")
				}
				r.tripDenial(probe.SpanContext{}, "monitor", 7, "mic", "stale stamp")
			}
			// Warm up past both rings so every buffer exists.
			for i := 0; i < 4*DefaultFlightCapacity; i++ {
				step()
			}
			if avg := testing.AllocsPerRun(1000, step); avg != 0 {
				t.Errorf("trip allocates %.1f times, want 0", avg)
			}
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			for i := 0; i < trips; i++ {
				step()
			}
			runtime.GC()
			runtime.ReadMemStats(&after)
			const slack = 256 << 10
			if after.HeapAlloc > before.HeapAlloc+slack {
				t.Errorf("heap grew %d -> %d bytes over %d trips", before.HeapAlloc, after.HeapAlloc, trips)
			}
			runtime.KeepAlive(r)
		})
	}
}
