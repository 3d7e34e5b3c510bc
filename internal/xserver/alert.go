package xserver

import (
	"strconv"
	"time"

	"overhaul/internal/faultinject"
	"overhaul/internal/monitor"
	"overhaul/internal/probe"
)

// Alert is one trusted-output overlay notification. Alerts render on a
// dedicated overlay stacked above every client window; clients have no
// request that can move, obscure, or close them, and each carries the
// user's visual shared secret so forged look-alike windows are
// distinguishable (paper Figure 5).
type Alert struct {
	Message string
	Secret  string // the visual shared secret (authentic alerts only)
	PID     int
	Op      Op
	Blocked bool // true when the alert reports a *blocked* attempt
	// Degraded marks alerts raised while protection is degraded —
	// either a denial issued by a degraded monitor or the banner
	// announcing the degradation itself. Their wording is distinct so
	// the user can tell "you were denied by policy" from "the system
	// cannot currently enforce policy and is blocking everything".
	Degraded bool
	// RenderFailed marks alerts whose overlay rendering failed (fault
	// injection): they never reached the screen but stay in the history
	// as evidence — a failure of the alert engine must not be silent.
	RenderFailed bool
	ShownAt      time.Time
	Expires      time.Time
}

// alertMessage renders the alert text the user sees. It runs on every
// rendered grant, so it concatenates instead of formatting: one
// allocation, the string itself.
func alertMessage(pid int, op Op, blocked, degraded bool) string {
	// what is the verb phrase; with dev set it ends in "(", and the op
	// and ")" follow.
	var what string
	var dev bool
	switch op {
	case monitor.OpMic:
		what = "is recording from the microphone"
	case monitor.OpCam:
		what = "is using the camera"
	case monitor.OpScreen:
		what = "captured the screen"
	case monitor.OpCopy:
		what = "copied to the clipboard"
	case monitor.OpPaste:
		what = "read the clipboard"
	default:
		what, dev = "accessed a protected device (", true
	}
	if blocked {
		dev = false
		switch op {
		case monitor.OpMic:
			what = "was blocked from recording the microphone"
		case monitor.OpCam:
			what = "was blocked from using the camera"
		case monitor.OpScreen:
			what = "was blocked from capturing the screen"
		default:
			what, dev = "was blocked from a protected device (", true
		}
	}
	b := make([]byte, 0, 128)
	b = append(b, "Application [pid "...)
	b = strconv.AppendInt(b, int64(pid), 10)
	b = append(b, "] "...)
	b = append(b, what...)
	if dev {
		b = append(b, op...)
		b = append(b, ')')
	}
	if degraded {
		b = append(b, " (OVERHAUL protection degraded)"...)
	}
	return string(b)
}

// ShowAlert renders a trusted alert for a granted sensitive access
// (V_{A,op}). It is invoked by the Overhaul core when the kernel's
// alert request arrives over the authenticated netlink channel; nothing
// reachable from a Client can call it.
func (s *Server) ShowAlert(req monitor.AlertRequest) Alert {
	// The alert render is the last span of the decision path: it nests
	// under the decide span whose context rode the kernel→user channel
	// inside the request.
	sp := probe.Event{
		TimeNanos: req.Time.UnixNano(), PID: int64(req.PID), Kind: probe.KindAlert, Dev: probe.DevOf(string(req.Op)),
	}
	s.probeAlert.Begin(req.Ctx, &sp)
	defer s.probeAlert.End(&sp)
	s.mu.Lock()
	defer s.mu.Unlock()
	a := s.showAlertLocked(req.PID, req.Op, req.Blocked, req.Degraded)
	sp.Detail = a.Message
	if a.RenderFailed {
		sp.Flags |= probe.FlagFailed
	}
	return a
}

// showAlertLocked renders an alert with s.mu already held — used both by
// ShowAlert and by the capture path, where the display manager raises
// the alert itself because it can identify the requesting process
// without kernel assistance (§III-C).
func (s *Server) showAlertLocked(pid int, op Op, blocked, degraded bool) Alert {
	now := s.clk.Now()
	// Coalesce: an identical alert still on screen is extended rather
	// than re-rendered — the overlay shows one notification per
	// ongoing activity, not one per system call.
	if n := len(s.alerts); n > 0 {
		last := &s.alerts[n-1]
		if last.PID == pid && last.Op == op && last.Blocked == blocked &&
			last.Degraded == degraded && !last.RenderFailed && now.Before(last.Expires) {
			last.Expires = now.Add(DefaultAlertDuration)
			return *last
		}
	}
	return s.renderAlertLocked(Alert{
		Message:  alertMessage(pid, op, blocked, degraded),
		Secret:   s.cfg.AlertSecret,
		PID:      pid,
		Op:       op,
		Blocked:  blocked,
		Degraded: degraded,
		ShownAt:  now,
		Expires:  now.Add(DefaultAlertDuration),
	})
}

// renderAlertLocked runs the overlay render step (the fault point of
// the alert engine) and appends the alert to the history either way:
// a render failure keeps its record — with RenderFailed set and kept
// off the live overlay — so the failure is observable rather than
// silent. Requires s.mu held.
func (s *Server) renderAlertLocked(a Alert) Alert {
	if f := faultinject.Eval(s.cfg.FaultHook, faultinject.PointAlertRender); f.Kind == faultinject.KindError {
		a.RenderFailed = true
		s.stats.AlertRenderFailures++
		if s.probeFault.Wants(int64(a.PID)) {
			s.probeFault.Emit(&probe.Event{
				PID: int64(a.PID), Kind: probe.KindFault, Arg: int64(f.Kind),
				Reason: string(faultinject.PointAlertRender),
				Detail: "injected fault at " + string(faultinject.PointAlertRender) + ": alert not drawn: " + a.Message,
			})
		}
	} else {
		s.stats.AlertsShown++
		if s.probeAlert.Wants(int64(a.PID)) {
			s.probeAlert.Emit(&probe.Event{
				TimeNanos: a.ShownAt.UnixNano(), PID: int64(a.PID), Kind: probe.KindAlert,
				Dev: probe.DevOf(string(a.Op)), Detail: a.Message,
			})
		}
	}
	if len(s.alerts) >= maxAlertHistory {
		s.alerts = s.alerts[1:]
	}
	s.alerts = append(s.alerts, a)
	return a
}

// maxAlertHistory bounds the retained alert records; the on-screen
// overlay only ever shows the last few seconds anyway.
const maxAlertHistory = 4096

// ActiveAlerts returns the alerts currently on screen. The overlay sits
// above the entire stacking order: no window id exists for it, so no
// client request can address — let alone obscure — it.
func (s *Server) ActiveAlerts() []Alert {
	now := s.clk.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Alert, 0, len(s.alerts))
	for _, a := range s.alerts {
		if now.Before(a.Expires) && !a.RenderFailed {
			out = append(out, a)
		}
	}
	return out
}

// AlertHistory returns every alert ever shown.
func (s *Server) AlertHistory() []Alert {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Alert, len(s.alerts))
	copy(out, s.alerts)
	return out
}

// AuthenticAlert reports whether a rendered notification carries the
// user's visual shared secret — how a user (or a test) tells a real
// Overhaul alert from a client window mimicking one.
func (s *Server) AuthenticAlert(a Alert) bool {
	return s.cfg.AlertSecret != "" && a.Secret == s.cfg.AlertSecret
}
