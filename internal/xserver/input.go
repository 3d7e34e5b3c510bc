package xserver

import (
	"fmt"
	"time"

	"overhaul/internal/probe"
)

// notifyInteraction sends N_{A,t} for hardware input delivered to w, if
// the Overhaul policy is active and the window passes the visibility
// threshold (clickjacking defence). Requires s.mu held; the policy call
// itself happens with the lock held because the netlink round-trip is
// synchronous in the paper's design, and the policy layer must not call
// back into the server's input path.
//
// ctx is the span of the input event being dispatched; the notify span
// nests under it, and its ID crosses the channel with the timestamp.
func (s *Server) notifyInteraction(ctx probe.SpanContext, w *window, now time.Time) {
	if s.policy == nil {
		return
	}
	if !s.visibleLongEnough(w, now) {
		return
	}
	if s.obscured(w) {
		// The window is covered by another: input "to" it is not a
		// sighted interaction.
		return
	}
	sp := probe.Event{TimeNanos: now.UnixNano(), PID: int64(w.owner.pid), Kind: probe.KindInteraction}
	s.probeNotify.Begin(ctx, &sp)
	defer s.probeNotify.End(&sp)
	if err := s.policy.NotifyInteraction(sp.Ctx, w.owner.pid, now); err != nil {
		// The kernel channel failing closed means no permission is
		// granted later; the input event itself still flows, and the
		// degraded banner tells the user why grants will stop.
		if sp.Ctx.Valid() {
			sp.Reason = err.Error()
		}
		s.degradeLocked("kernel channel unreachable")
		return
	}
	if s.degraded != "" {
		s.degraded = ""
	}
	s.stats.Notifications++
}

// dispatchInput notifies the kernel of authentic input landing on w
// and emits the xserver.input event for it. Requires s.mu held.
func (s *Server) dispatchInput(sp *probe.Event, w *window, now time.Time) {
	sp.Arg = int64(w.id)
	s.notifyInteraction(sp.Ctx, w, now)
	if pid := int64(w.owner.pid); s.probeInput.Wants(pid) {
		s.probeInput.Emit(&probe.Event{TimeNanos: now.UnixNano(), PID: pid, Kind: probe.KindInput, Ctx: sp.Ctx})
	}
}

// HardwareClick injects a physical pointer button press at screen
// coordinates (x, y), dispatching it to the topmost mapped window there.
// It returns the window that received the event, or 0 when the click
// landed on the root.
func (s *Server) HardwareClick(x, y int) WindowID {
	now := s.clk.Now()
	// The input span is the root of the decision-path trace: everything
	// this click enables (notification, stamp, device open, alert)
	// links back to it.
	sp := probe.Event{TimeNanos: now.UnixNano(), Kind: probe.KindInput, Detail: "click"}
	s.probeInput.Begin(probe.SpanContext{}, &sp)
	defer s.probeInput.End(&sp)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.HardwareEvents++
	w := s.topWindowAt(x, y)
	if w == nil {
		return Root
	}
	s.dispatchInput(&sp, w, now)
	w.owner.deliver(Event{
		Type:       ButtonPress,
		Window:     w.id,
		Time:       now,
		Provenance: FromHardware,
		X:          x,
		Y:          y,
	})
	return w.id
}

// HardwareKey injects a physical key press, dispatched to the focus
// window. It returns the receiving window (0 if none is focused).
func (s *Server) HardwareKey(key string) WindowID {
	now := s.clk.Now()
	sp := probe.Event{TimeNanos: now.UnixNano(), Kind: probe.KindInput, Detail: "key"}
	s.probeInput.Begin(probe.SpanContext{}, &sp)
	defer s.probeInput.End(&sp)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.HardwareEvents++
	if s.focus == Root {
		return Root
	}
	w, err := s.lookupWindow(s.focus)
	if err != nil || !w.mapped {
		return Root
	}
	s.dispatchInput(&sp, w, now)
	w.owner.deliver(Event{
		Type:       KeyPress,
		Window:     w.id,
		Time:       now,
		Provenance: FromHardware,
		Key:        key,
	})
	return w.id
}

// SendEvent is the core X11 SendEvent request: the client asks the
// server to deliver an event to the destination window's owner. The
// protocol forces the synthetic flag on such events, so they can never
// produce interaction notifications (S2).
//
// Under Overhaul the request is additionally screened for
// protocol-breaking selection events (§IV-A): SelectionRequest may never
// be forged, and SelectionNotify is permitted only from the current
// selection owner to the pending requestor — the legitimate step (9) of
// the copy & paste protocol.
func (c *Client) SendEvent(dest WindowID, ev Event) error {
	if !c.alive() {
		return ErrDisconnected
	}
	s := c.srv
	s.wire()
	s.mu.Lock()
	defer s.mu.Unlock()

	w, err := s.lookupWindow(dest)
	if err != nil {
		return err
	}

	ev.Synthetic = true
	ev.Provenance = FromSendEvent
	ev.Window = dest
	ev.Time = s.clk.Now()

	if s.policy != nil {
		switch ev.Type {
		case SelectionRequest:
			// Forged SelectionRequests would trick the owner into
			// handing the clipboard to an eavesdropper.
			s.stats.SyntheticBlocked++
			return fmt.Errorf("send SelectionRequest: %w", ErrBadAccess)
		case SelectionNotify:
			if !s.isProtocolNotify(c, ev, w) {
				s.stats.SyntheticBlocked++
				return fmt.Errorf("send SelectionNotify outside transfer: %w", ErrBadAccess)
			}
		case KeyPress, KeyRelease, ButtonPress, ButtonRelease, MotionNotify:
			// Input events are delivered (applications may honour
			// them) but are synthetic: no interaction notification
			// is ever generated for them.
			s.stats.SyntheticBlocked++
		}
	}

	w.owner.deliver(ev)
	return nil
}

// isProtocolNotify reports whether ev is the legitimate SelectionNotify
// of an in-flight transfer: sender owns the selection and dest is the
// pending requestor's window. Requires s.mu held.
func (s *Server) isProtocolNotify(sender *Client, ev Event, dest *window) bool {
	sel, ok := s.selections[ev.Selection]
	if !ok || sel.owner != sender || sel.pending == nil {
		return false
	}
	return sel.pending.requestorWindow == dest.id
}

// XTestFakeInput injects a synthetic input event through the XTest
// extension. XTest requests carry no synthetic flag on the wire, so the
// paper modifies the server to tag them with their generating extension;
// the tag keeps them out of the trusted input path. The event is
// otherwise processed exactly like hardware input (dispatch by position
// or focus).
func (c *Client) XTestFakeInput(ev Event) (WindowID, error) {
	if !c.alive() {
		return Root, ErrDisconnected
	}
	s := c.srv
	if s.cfg.DisableXTest {
		return Root, fmt.Errorf("xtest: extension disabled: %w", ErrBadAccess)
	}
	now := s.clk.Now()
	s.mu.Lock()
	defer s.mu.Unlock()

	var w *window
	switch ev.Type {
	case ButtonPress, ButtonRelease, MotionNotify:
		w = s.topWindowAt(ev.X, ev.Y)
	case KeyPress, KeyRelease:
		if s.focus != Root {
			if fw, err := s.lookupWindow(s.focus); err == nil && fw.mapped {
				w = fw
			}
		}
	default:
		return Root, fmt.Errorf("xtest: event type %v: %w", ev.Type, ErrBadMatch)
	}
	if s.policy != nil {
		s.stats.SyntheticBlocked++
	}
	if w == nil {
		return Root, nil
	}
	ev.Window = w.id
	ev.Time = now
	ev.Provenance = FromXTest
	ev.Synthetic = false // XTest carries no wire flag; the tag is server-internal
	w.owner.deliver(ev)
	return w.id, nil
}
