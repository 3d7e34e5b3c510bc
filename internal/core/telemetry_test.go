package core_test

import (
	"encoding/json"
	"strconv"
	"strings"
	"testing"
	"time"

	"overhaul/internal/clock"
	"overhaul/internal/core"
	"overhaul/internal/devfs"
	"overhaul/internal/fs"
	"overhaul/internal/probe"
	"overhaul/internal/telemetry"
)

// traceRun boots an instrumented system, replays the canonical
// interaction — click → mic open → grant → alert — and returns the
// recorder plus the rendered trace of that interaction.
func traceRun(t *testing.T) (*telemetry.Recorder, string) {
	t.Helper()
	clk := clock.NewSimulated()
	tel := telemetry.New(clk)
	sys, err := core.Boot(core.Options{
		Clock:       clk,
		Enforce:     true,
		AlertSecret: "tabby-cat",
		Telemetry:   tel,
	})
	if err != nil {
		t.Fatalf("Boot: %v", err)
	}
	mic, err := sys.Helper.Attach(devfs.ClassMicrophone)
	if err != nil {
		t.Fatalf("Attach: %v", err)
	}
	app, err := sys.Launch("recorder")
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	sys.Settle(1500 * time.Millisecond)
	if err := app.Click(); err != nil {
		t.Fatalf("Click: %v", err)
	}
	sys.Settle(50 * time.Millisecond)
	h, err := app.OpenDevice(mic)
	if err != nil {
		t.Fatalf("OpenDevice: %v", err)
	}
	_ = h.Close()
	if n := len(sys.ActiveAlerts()); n == 0 {
		t.Fatalf("granted open raised no alert")
	}

	spans := tel.Spans()
	if len(spans) == 0 {
		t.Fatalf("no spans recorded")
	}
	return tel, telemetry.FormatTrace(tel.TraceSpans(spans[0].Trace))
}

// TestInteractionTraceConnected is the tentpole acceptance criterion:
// a single simulated interaction produces one connected trace with at
// least five spans crossing at least three subsystems, stamped on the
// virtual clock.
func TestInteractionTraceConnected(t *testing.T) {
	tel, _ := traceRun(t)

	spans := tel.Spans()
	root := spans[0].Trace
	for _, s := range spans {
		if s.Trace != root {
			t.Errorf("span #%d (%s.%s) on trace %d, want every span on trace %d — the path is disconnected",
				s.ID, s.Subsystem, s.Name, s.Trace, root)
		}
	}
	trace := tel.TraceSpans(root)
	if len(trace) < 5 {
		t.Errorf("trace has %d spans, want >= 5", len(trace))
	}
	subs := telemetry.Subsystems(trace)
	if len(subs) < 3 {
		t.Errorf("trace crosses %d subsystems (%v), want >= 3", len(subs), subs)
	}
	// The path must reach from the hardware click all the way to the
	// rendered alert, via the kernel-side decision.
	names := map[string]bool{}
	for _, s := range trace {
		names[s.Subsystem+"."+s.Name] = true
		if s.Start.Before(clock.Epoch) {
			t.Errorf("span %s.%s starts %v, before the virtual epoch", s.Subsystem, s.Name, s.Start)
		}
		if !s.Ended {
			t.Errorf("span %s.%s never ended", s.Subsystem, s.Name)
		}
	}
	for _, want := range []string{
		"xserver.hardware_click", "xserver.notify_interaction",
		"monitor.notify", "kernel.open", "monitor.decide", "xserver.alert",
	} {
		if !names[want] {
			t.Errorf("trace is missing span %s; got %v", want, names)
		}
	}
}

// TestStampSpanCrossesPipe: the span that minted a stamp travels with
// it through IPC. A click on one app is handed over a kernel pipe to a
// headless daemon that has never seen input; the daemon's mic open is
// granted on the adopted stamp, and its kernel.open span joins the
// click's trace.
func TestStampSpanCrossesPipe(t *testing.T) {
	clk := clock.NewSimulated()
	reg := probe.NewRegistry()
	sys, err := core.Boot(core.Options{Clock: clk, Enforce: true, AlertSecret: "tabby-cat", Probes: reg})
	if err != nil {
		t.Fatalf("Boot: %v", err)
	}
	mic, err := sys.Helper.Attach(devfs.ClassMicrophone)
	if err != nil {
		t.Fatalf("Attach: %v", err)
	}
	app, err := sys.Launch("recorder")
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	daemon, err := sys.LaunchHeadless("audiod")
	if err != nil {
		t.Fatalf("LaunchHeadless: %v", err)
	}
	// A match-all ring arms every hook, so every span on the path is
	// minted.
	ring := probe.NewRing(256)
	if _, err := reg.AttachSpec("", ring); err != nil {
		t.Fatal(err)
	}

	pipe := sys.Kernel.NewPipe()
	sys.Settle(1500 * time.Millisecond)
	if err := app.Click(); err != nil {
		t.Fatalf("Click: %v", err)
	}
	sys.Settle(50 * time.Millisecond)
	if _, err := pipe.Write(app.Proc.PID(), []byte("record")); err != nil {
		t.Fatalf("pipe Write: %v", err)
	}
	if _, err := pipe.Read(daemon.PID(), make([]byte, 8)); err != nil {
		t.Fatalf("pipe Read: %v", err)
	}
	h, err := sys.Kernel.Open(daemon, mic, fs.AccessRead)
	if err != nil {
		t.Fatalf("daemon mic open on the handed-off stamp: %v", err)
	}
	_ = h.Close()

	buf := make([]probe.Event, 256)
	var click probe.TraceID
	opens := 0
	for _, ev := range buf[:ring.ReadBatch(buf)] {
		switch {
		case ev.Kind == probe.KindInput && click == 0:
			click = ev.Ctx.Trace
		case ev.Kind == probe.KindOpen && ev.PID == int64(daemon.PID()):
			opens++
			if click == 0 || ev.Ctx.Trace != click {
				t.Errorf("daemon kernel.open (phase %d) on trace %d, want the click's trace %d", ev.Phase, ev.Ctx.Trace, click)
			}
		}
	}
	if opens == 0 {
		t.Fatal("daemon's mic open emitted no kernel.open event")
	}
}

// TestInteractionTraceReproducible: the decision-path trace — IDs,
// timestamps, annotations — is a pure function of the script. Two
// identical runs must render byte-identical traces and snapshots.
func TestInteractionTraceReproducible(t *testing.T) {
	telA, traceA := traceRun(t)
	telB, traceB := traceRun(t)
	if traceA != traceB {
		t.Fatalf("traces differ between identical runs:\n--- A ---\n%s--- B ---\n%s", traceA, traceB)
	}
	ja, err := json.Marshal(telA.Snapshot())
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	jb, err := json.Marshal(telB.Snapshot())
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if string(ja) != string(jb) {
		t.Fatalf("snapshots differ between identical runs")
	}
	if !strings.Contains(traceA, "verdict=grant") {
		t.Errorf("trace does not record the grant:\n%s", traceA)
	}
}

// TestUninstrumentedBootStillWorks: a system booted without a recorder
// (the default) must behave identically — nil-recorder telemetry is a
// no-op, not a crash.
func TestUninstrumentedBootStillWorks(t *testing.T) {
	sys, mic, _, err := core.BootDefault()
	if err != nil {
		t.Fatalf("BootDefault: %v", err)
	}
	if sys.Telemetry() != nil {
		t.Fatalf("default boot has a recorder; want nil")
	}
	app, err := sys.Launch("recorder")
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	sys.Settle(1500 * time.Millisecond)
	if err := app.Click(); err != nil {
		t.Fatalf("Click: %v", err)
	}
	sys.Settle(50 * time.Millisecond)
	h, err := app.OpenDevice(mic)
	if err != nil {
		t.Fatalf("OpenDevice without telemetry: %v", err)
	}
	_ = h.Close()
}

// fanOutRun boots one system whose registry feeds the recorder and,
// when rings is set, a match-all ring probe and a pid-scoped one, then
// replays two rounds of click → grant → stale deny. With detach the
// ring probes are detached between the rounds. It returns the
// recorder, the match-all ring's events and the scoped probe.
func fanOutRun(t *testing.T, rings, detach bool) (*telemetry.Recorder, []probe.Event, *probe.Probe) {
	t.Helper()
	clk := clock.NewSimulated()
	tel := telemetry.New(clk)
	reg := probe.NewRegistry()
	sys, err := core.Boot(core.Options{Clock: clk, Enforce: true, AlertSecret: "a", Telemetry: tel, Probes: reg})
	if err != nil {
		t.Fatalf("Boot: %v", err)
	}
	mic, err := sys.Helper.Attach(devfs.ClassMicrophone)
	if err != nil {
		t.Fatalf("Attach: %v", err)
	}
	app, err := sys.Launch("recorder")
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	ring := probe.NewRing(4096)
	var all, scoped *probe.Probe
	if rings {
		if all, err = reg.AttachSpec("", ring); err != nil {
			t.Fatal(err)
		}
		spec := "pid=" + strconv.Itoa(app.Proc.PID())
		if scoped, err = reg.AttachSpec(spec, probe.NewRing(4096)); err != nil {
			t.Fatal(err)
		}
	}
	sys.Settle(1500 * time.Millisecond)
	for round := 0; round < 2; round++ {
		if round == 1 && detach {
			for _, p := range []*probe.Probe{all, scoped} {
				if err := reg.Detach(p.ID()); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := app.Click(); err != nil {
			t.Fatalf("Click: %v", err)
		}
		sys.Settle(50 * time.Millisecond)
		for _, wantErr := range []bool{false, true} { // grant, then stale deny
			h, err := app.OpenDevice(mic)
			if (err != nil) != wantErr {
				t.Fatalf("round %d open: err = %v, want error %v", round, err, wantErr)
			}
			if err == nil {
				_ = h.Close()
			}
			sys.Settle(3 * time.Second)
		}
	}
	buf := make([]probe.Event, ring.Capacity())
	return tel, buf[:ring.ReadBatch(buf)], scoped
}

// TestConsumerFanOut runs the recorder and two ring probes off one
// registry: the ring's kernel.decide events and the recorder's flight
// decisions match one to one, and detaching the rings mid-run leaves
// the recorder's snapshot byte-identical to a run that never had them.
func TestConsumerFanOut(t *testing.T) {
	tel, events, scoped := fanOutRun(t, true, false)
	var decides []probe.Event
	for _, ev := range events {
		if ev.Kind == probe.KindDecide {
			decides = append(decides, ev)
		}
	}
	var decisions []telemetry.FlightEvent
	for _, ev := range tel.FlightEvents() {
		if ev.Kind == "decision" {
			decisions = append(decisions, ev)
		}
	}
	if len(decides) != 4 || len(decisions) != len(decides) {
		t.Fatalf("ring saw %d kernel.decide events, recorder %d decisions; want 4 each", len(decides), len(decisions))
	}
	for i, ev := range decides {
		want := "pid=" + strconv.FormatInt(ev.PID, 10) + " op=" + ev.Dev.String() + " " + ev.Verdict.String() + ": " + ev.Reason
		got := decisions[i]
		if got.Detail != want || got.Trace != ev.Ctx.Trace || got.Span != ev.Ctx.Span {
			t.Errorf("decision %d: recorder %q [%d.%d], ring %q [%d.%d]",
				i, got.Detail, got.Trace, got.Span, want, ev.Ctx.Trace, ev.Ctx.Span)
		}
	}
	if scoped.Matched() == 0 || scoped.Matched() >= uint64(len(events)) {
		t.Errorf("pid-scoped probe matched %d of %d events; want a nonempty strict subset", scoped.Matched(), len(events))
	}

	snapshot := func(tel *telemetry.Recorder) string {
		raw, err := json.Marshal(tel.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		return string(raw)
	}
	detached, _, _ := fanOutRun(t, true, true)
	never, _, _ := fanOutRun(t, false, false)
	if a, b := snapshot(detached), snapshot(never); a != b {
		t.Errorf("detaching ring probes changed the recorder snapshot:\n%s\n---\n%s", a, b)
	}
	if a, b := snapshot(tel), snapshot(never); a != b {
		t.Errorf("attached ring probes changed the recorder snapshot:\n%s\n---\n%s", a, b)
	}
}
