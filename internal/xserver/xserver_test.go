package xserver

import (
	"errors"
	"sync"
	"testing"
	"time"

	"overhaul/internal/clock"
	"overhaul/internal/monitor"
	"overhaul/internal/probe"
)

// fakePolicy is a miniature permission monitor: it records interaction
// notifications and answers queries by temporal proximity, with a 2 s
// threshold.
type fakePolicy struct {
	mu            sync.Mutex
	stamps        map[int]time.Time
	threshold     time.Duration
	notifications int
	queries       []monitor.Op
	failNotify    bool
}

func newFakePolicy() *fakePolicy {
	return &fakePolicy{stamps: make(map[int]time.Time), threshold: 2 * time.Second}
}

func (f *fakePolicy) NotifyInteraction(_ probe.SpanContext, pid int, t time.Time) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.failNotify {
		return errors.New("kernel unreachable")
	}
	f.notifications++
	if t.After(f.stamps[pid]) {
		f.stamps[pid] = t
	}
	return nil
}

func (f *fakePolicy) Query(_ probe.SpanContext, pid int, op monitor.Op, t time.Time) (monitor.Verdict, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.queries = append(f.queries, op)
	stamp, ok := f.stamps[pid]
	if ok && !t.Before(stamp) && t.Sub(stamp) < f.threshold {
		return monitor.VerdictGrant, nil
	}
	return monitor.VerdictDeny, nil
}

func (f *fakePolicy) notificationCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.notifications
}

type xEnv struct {
	clk *clock.Simulated
	srv *Server
	pol *fakePolicy
}

func newXEnv(t *testing.T, protected bool) *xEnv {
	t.Helper()
	clk := clock.NewSimulated()
	var pol *fakePolicy
	var policy Policy
	if protected {
		pol = newFakePolicy()
		policy = pol
	}
	srv, err := NewServer(clk, policy, Config{AlertSecret: "tabby-cat"})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	return &xEnv{clk: clk, srv: srv, pol: pol}
}

// mapVisibleWindow creates, maps and ages a window past the visibility
// threshold so interaction notifications flow.
func (e *xEnv) mapVisibleWindow(t *testing.T, c *Client, x, y, w, h int) WindowID {
	t.Helper()
	id, err := c.CreateWindow(x, y, w, h)
	if err != nil {
		t.Fatalf("CreateWindow: %v", err)
	}
	if err := c.MapWindow(id); err != nil {
		t.Fatalf("MapWindow: %v", err)
	}
	e.clk.Advance(2 * DefaultVisibilityThreshold)
	return id
}

func (e *xEnv) connect(t *testing.T, pid int, name string) *Client {
	t.Helper()
	c, err := e.srv.Connect(pid, name)
	if err != nil {
		t.Fatalf("Connect(%s): %v", name, err)
	}
	return c
}

func TestHardwareClickDispatchAndNotify(t *testing.T) {
	e := newXEnv(t, true)
	c := e.connect(t, 100, "app")
	win := e.mapVisibleWindow(t, c, 10, 10, 200, 100)

	got := e.srv.HardwareClick(50, 50)
	if got != win {
		t.Fatalf("click dispatched to %d, want %d", got, win)
	}
	ev, ok := c.NextEvent()
	if !ok || ev.Type != ButtonPress || ev.Provenance != FromHardware {
		t.Fatalf("event = %+v, ok=%v", ev, ok)
	}
	if e.pol.notificationCount() != 1 {
		t.Fatalf("notifications = %d, want 1", e.pol.notificationCount())
	}
}

func TestHardwareClickOutsideWindows(t *testing.T) {
	e := newXEnv(t, true)
	if got := e.srv.HardwareClick(5, 5); got != Root {
		t.Fatalf("click on empty screen dispatched to %d", got)
	}
	if e.pol.notificationCount() != 0 {
		t.Fatal("notification generated for root click")
	}
}

func TestHardwareKeyGoesToFocus(t *testing.T) {
	e := newXEnv(t, true)
	c := e.connect(t, 100, "editor")
	win := e.mapVisibleWindow(t, c, 0, 0, 100, 100)
	if err := c.SetFocus(win); err != nil {
		t.Fatalf("SetFocus: %v", err)
	}
	if got := e.srv.HardwareKey("ctrl+v"); got != win {
		t.Fatalf("key to %d, want %d", got, win)
	}
	ev, ok := c.NextEvent()
	if !ok || ev.Type != KeyPress || ev.Key != "ctrl+v" {
		t.Fatalf("event = %+v", ev)
	}
}

func TestStackingTopmostWindowWins(t *testing.T) {
	e := newXEnv(t, true)
	bottom := e.connect(t, 1, "bottom")
	top := e.connect(t, 2, "top")
	bWin := e.mapVisibleWindow(t, bottom, 0, 0, 100, 100)
	tWin := e.mapVisibleWindow(t, top, 0, 0, 100, 100)

	if got := e.srv.HardwareClick(50, 50); got != tWin {
		t.Fatalf("click to %d, want topmost %d", got, tWin)
	}
	// Raising the bottom window flips the order.
	if err := bottom.RaiseWindow(bWin); err != nil {
		t.Fatalf("RaiseWindow: %v", err)
	}
	if got := e.srv.HardwareClick(50, 50); got != bWin {
		t.Fatalf("click to %d after raise, want %d", got, bWin)
	}
}

func TestClickjackingVisibilityThreshold(t *testing.T) {
	// A malicious client maps a window right before the user clicks:
	// the event is delivered, but no interaction notification may be
	// generated (S3).
	e := newXEnv(t, true)
	mal := e.connect(t, 666, "clickjacker")
	win, err := mal.CreateWindow(0, 0, 500, 500)
	if err != nil {
		t.Fatalf("CreateWindow: %v", err)
	}
	if err := mal.MapWindow(win); err != nil {
		t.Fatalf("MapWindow: %v", err)
	}
	e.clk.Advance(100 * time.Millisecond) // below the 1 s threshold

	if got := e.srv.HardwareClick(10, 10); got != win {
		t.Fatalf("click to %d, want %d", got, win)
	}
	if _, ok := mal.NextEvent(); !ok {
		t.Fatal("event not delivered")
	}
	if e.pol.notificationCount() != 0 {
		t.Fatal("notification generated for a freshly-mapped window")
	}

	// Once the window has been visible long enough, notifications flow.
	e.clk.Advance(2 * time.Second)
	e.srv.HardwareClick(10, 10)
	if e.pol.notificationCount() != 1 {
		t.Fatalf("notifications = %d, want 1", e.pol.notificationCount())
	}
}

func TestUnmapRemapResetsVisibilityClock(t *testing.T) {
	e := newXEnv(t, true)
	c := e.connect(t, 5, "flasher")
	win := e.mapVisibleWindow(t, c, 0, 0, 100, 100)
	// Hide, wait, pop up over the cursor, catch the click.
	if err := c.UnmapWindow(win); err != nil {
		t.Fatalf("UnmapWindow: %v", err)
	}
	e.clk.Advance(10 * time.Second)
	if err := c.MapWindow(win); err != nil {
		t.Fatalf("MapWindow: %v", err)
	}
	e.clk.Advance(50 * time.Millisecond)
	e.srv.HardwareClick(10, 10)
	if e.pol.notificationCount() != 0 {
		t.Fatal("pop-over window earned a notification")
	}
}

func TestSendEventForcedSynthetic(t *testing.T) {
	// S2: events injected via SendEvent carry the synthetic flag and
	// never produce interaction notifications.
	e := newXEnv(t, true)
	victim := e.connect(t, 10, "victim")
	mal := e.connect(t, 666, "malware")
	vWin := e.mapVisibleWindow(t, victim, 0, 0, 100, 100)

	if err := mal.SendEvent(vWin, Event{Type: KeyPress, Key: "a"}); err != nil {
		t.Fatalf("SendEvent: %v", err)
	}
	ev, ok := victim.NextEvent()
	if !ok {
		t.Fatal("no event delivered")
	}
	if !ev.Synthetic || ev.Provenance != FromSendEvent {
		t.Fatalf("event = %+v, want synthetic send-event", ev)
	}
	if e.pol.notificationCount() != 0 {
		t.Fatal("synthetic event produced an interaction notification")
	}
	if s := e.srv.StatsSnapshot(); s.SyntheticBlocked == 0 {
		t.Fatal("synthetic input not counted as blocked")
	}
}

func TestXTestTaggedNotTrusted(t *testing.T) {
	// S2: XTest carries no wire flag, so the server tags provenance.
	e := newXEnv(t, true)
	victim := e.connect(t, 10, "victim")
	mal := e.connect(t, 666, "malware")
	vWin := e.mapVisibleWindow(t, victim, 0, 0, 100, 100)

	got, err := mal.XTestFakeInput(Event{Type: ButtonPress, X: 10, Y: 10})
	if err != nil {
		t.Fatalf("XTestFakeInput: %v", err)
	}
	if got != vWin {
		t.Fatalf("xtest dispatched to %d, want %d", got, vWin)
	}
	ev, ok := victim.NextEvent()
	if !ok || ev.Provenance != FromXTest {
		t.Fatalf("event = %+v, want xtest provenance", ev)
	}
	if ev.Synthetic {
		t.Fatal("xtest events carry no wire-level synthetic flag")
	}
	if e.pol.notificationCount() != 0 {
		t.Fatal("xtest event produced an interaction notification")
	}
}

func TestXTestKeyToFocus(t *testing.T) {
	e := newXEnv(t, true)
	app := e.connect(t, 10, "app")
	win := e.mapVisibleWindow(t, app, 0, 0, 100, 100)
	if err := app.SetFocus(win); err != nil {
		t.Fatalf("SetFocus: %v", err)
	}
	mal := e.connect(t, 666, "malware")
	got, err := mal.XTestFakeInput(Event{Type: KeyPress, Key: "x"})
	if err != nil || got != win {
		t.Fatalf("XTestFakeInput = %d, %v", got, err)
	}
	if _, err := mal.XTestFakeInput(Event{Type: SelectionNotify}); err == nil {
		t.Fatal("non-input xtest event accepted")
	}
}

func TestNotifyFailureFailsClosed(t *testing.T) {
	e := newXEnv(t, true)
	e.pol.failNotify = true
	c := e.connect(t, 10, "app")
	e.mapVisibleWindow(t, c, 0, 0, 100, 100)
	e.srv.HardwareClick(10, 10)
	// Event still delivered; notification did not count.
	if _, ok := c.NextEvent(); !ok {
		t.Fatal("event lost on kernel failure")
	}
	if s := e.srv.StatsSnapshot(); s.Notifications != 0 {
		t.Fatalf("Notifications = %d, want 0", s.Notifications)
	}
}

func TestVanillaServerNoNotifications(t *testing.T) {
	e := newXEnv(t, false)
	c := e.connect(t, 10, "app")
	e.mapVisibleWindow(t, c, 0, 0, 100, 100)
	e.srv.HardwareClick(10, 10)
	if e.srv.Protected() {
		t.Fatal("vanilla server claims protection")
	}
	if s := e.srv.StatsSnapshot(); s.Notifications != 0 || s.Queries != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestWindowOwnershipEnforced(t *testing.T) {
	e := newXEnv(t, true)
	a := e.connect(t, 1, "a")
	b := e.connect(t, 2, "b")
	win := e.mapVisibleWindow(t, a, 0, 0, 100, 100)

	if err := b.MapWindow(win); !errors.Is(err, ErrBadAccess) {
		t.Fatalf("foreign MapWindow = %v", err)
	}
	if err := b.UnmapWindow(win); !errors.Is(err, ErrBadAccess) {
		t.Fatalf("foreign UnmapWindow = %v", err)
	}
	if err := b.RaiseWindow(win); !errors.Is(err, ErrBadAccess) {
		t.Fatalf("foreign RaiseWindow = %v", err)
	}
	if err := b.SetFocus(win); !errors.Is(err, ErrBadAccess) {
		t.Fatalf("foreign SetFocus = %v", err)
	}
	if err := b.Draw(win, []byte("x")); !errors.Is(err, ErrBadAccess) {
		t.Fatalf("foreign Draw = %v", err)
	}
}

func TestBadWindowErrors(t *testing.T) {
	e := newXEnv(t, true)
	c := e.connect(t, 1, "c")
	if err := c.MapWindow(999); !errors.Is(err, ErrBadWindow) {
		t.Fatalf("MapWindow(999) = %v", err)
	}
	if _, err := c.CreateWindow(0, 0, 0, 10); !errors.Is(err, ErrBadMatch) {
		t.Fatalf("zero-width CreateWindow = %v", err)
	}
}

func TestClientCloseCleansUp(t *testing.T) {
	e := newXEnv(t, true)
	c := e.connect(t, 1, "c")
	win := e.mapVisibleWindow(t, c, 0, 0, 100, 100)
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := c.Close(); !errors.Is(err, ErrDisconnected) {
		t.Fatalf("double Close = %v", err)
	}
	if _, err := c.CreateWindow(0, 0, 1, 1); !errors.Is(err, ErrDisconnected) {
		t.Fatalf("CreateWindow after close = %v", err)
	}
	// The window is gone: clicks land on root.
	if got := e.srv.HardwareClick(10, 10); got != Root {
		t.Fatalf("click to %d after owner closed (win %d)", got, win)
	}
	if len(e.srv.WindowIDs()) != 0 {
		t.Fatal("window survived owner disconnect")
	}
}

func TestAlertsOverlay(t *testing.T) {
	e := newXEnv(t, true)
	a := e.srv.ShowAlert(monitor.AlertRequest{PID: 42, Op: monitor.OpMic, Time: e.clk.Now()})
	if a.Message == "" || a.Secret != "tabby-cat" {
		t.Fatalf("alert = %+v", a)
	}
	if !e.srv.AuthenticAlert(a) {
		t.Fatal("authentic alert rejected")
	}
	active := e.srv.ActiveAlerts()
	if len(active) != 1 {
		t.Fatalf("active = %d", len(active))
	}
	// Alerts expire after the configured duration.
	e.clk.Advance(DefaultAlertDuration + time.Second)
	if len(e.srv.ActiveAlerts()) != 0 {
		t.Fatal("alert did not expire")
	}
	if len(e.srv.AlertHistory()) != 1 {
		t.Fatal("history lost the alert")
	}
}

func TestForgedAlertLacksSecret(t *testing.T) {
	// A malicious client can draw a window that looks like an alert,
	// but it cannot know the visual shared secret.
	e := newXEnv(t, true)
	forged := Alert{Message: "Application [pid 1] is using the camera", Secret: "guess"}
	if e.srv.AuthenticAlert(forged) {
		t.Fatal("forged alert authenticated")
	}
}

func TestAlertMessageWording(t *testing.T) {
	tests := []struct {
		op   monitor.Op
		want string
	}{
		{monitor.OpMic, "Application [pid 7] is recording from the microphone"},
		{monitor.OpCam, "Application [pid 7] is using the camera"},
		{monitor.OpScreen, "Application [pid 7] captured the screen"},
		{monitor.OpCopy, "Application [pid 7] copied to the clipboard"},
		{monitor.OpPaste, "Application [pid 7] read the clipboard"},
		{monitor.OpOther, "Application [pid 7] accessed a protected device (dev)"},
	}
	for _, tt := range tests {
		if got := alertMessage(7, tt.op, false, false); got != tt.want {
			t.Errorf("alertMessage(%s) = %q, want %q", tt.op, got, tt.want)
		}
	}
	blocked := alertMessage(7, monitor.OpCam, true, false)
	if blocked != "Application [pid 7] was blocked from using the camera" {
		t.Errorf("blocked alertMessage = %q", blocked)
	}
}

func TestNewServerValidation(t *testing.T) {
	if _, err := NewServer(nil, nil, Config{}); err == nil {
		t.Fatal("NewServer(nil clock) succeeded")
	}
	if _, err := NewServer(clock.NewSimulated(), nil, Config{}); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
}

func TestConnectValidation(t *testing.T) {
	e := newXEnv(t, true)
	if _, err := e.srv.Connect(1, ""); err == nil {
		t.Fatal("empty client name accepted")
	}
}

func TestEnumStrings(t *testing.T) {
	if KeyPress.String() != "KeyPress" || SelectionNotify.String() != "SelectionNotify" {
		t.Fatal("event type strings wrong")
	}
	if FromHardware.String() != "hardware" || FromXTest.String() != "xtest" {
		t.Fatal("provenance strings wrong")
	}
	if EventType(99).String() == "" || Provenance(99).String() == "" {
		t.Fatal("unknown enum strings empty")
	}
}

func TestClientNamesSorted(t *testing.T) {
	e := newXEnv(t, true)
	e.connect(t, 1, "zeta")
	e.connect(t, 2, "alpha")
	names := e.srv.ClientNames()
	if len(names) != 2 || names[0] != "alpha" || names[1] != "zeta" {
		t.Fatalf("names = %v", names)
	}
}

func TestDrainEvents(t *testing.T) {
	e := newXEnv(t, true)
	c := e.connect(t, 1, "c")
	win := e.mapVisibleWindow(t, c, 0, 0, 100, 100)
	_ = win
	e.srv.HardwareClick(10, 10)
	e.srv.HardwareClick(20, 20)
	if c.PendingEvents() != 2 {
		t.Fatalf("pending = %d", c.PendingEvents())
	}
	evs := c.DrainEvents()
	if len(evs) != 2 || c.PendingEvents() != 0 {
		t.Fatalf("drained %d, pending %d", len(evs), c.PendingEvents())
	}
}

// TestClickDrainReusesQueue: draining a client's queue keeps its
// backing array, so a click followed by the app reading its input
// allocates nothing once the queue has been sized.
func TestClickDrainReusesQueue(t *testing.T) {
	e := newXEnv(t, true)
	c := e.connect(t, 100, "app")
	e.mapVisibleWindow(t, c, 10, 10, 200, 100)
	clickDrain := func() {
		e.srv.HardwareClick(50, 50)
		n := 0
		for {
			if _, ok := c.NextEvent(); !ok {
				break
			}
			n++
		}
		if n == 0 {
			t.Fatal("click delivered no event")
		}
	}
	if got := testing.AllocsPerRun(100, clickDrain); got != 0 {
		t.Fatalf("click and drain: %v allocs, want 0", got)
	}
}
