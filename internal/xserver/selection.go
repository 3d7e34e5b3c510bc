package xserver

import (
	"fmt"
	"time"

	"overhaul/internal/probe"
)

// query runs a permission query against the kernel monitor. Requires
// s.mu held. With no policy (vanilla server) everything is granted.
func (s *Server) query(pid int, op Op, now time.Time) bool {
	if s.policy == nil {
		return true
	}
	s.stats.Queries++
	// The query span roots its own trace: display-manager-mediated
	// operations begin at the request, and the kernel-side decide span
	// nests under this one via the context carried across the channel.
	sp := probe.Event{
		TimeNanos: now.UnixNano(), PID: int64(pid), Kind: probe.KindQuery, Dev: probe.DevOf(string(op)),
	}
	s.probeQuery.Begin(probe.SpanContext{}, &sp)
	defer s.probeQuery.End(&sp)
	verdict, err := s.policy.Query(sp.Ctx, pid, op, now)
	if err != nil {
		// Fail closed, and flag the degraded episode: a channel that
		// cannot answer queries means nothing sensitive proceeds.
		if sp.Ctx.Valid() {
			sp.Reason = err.Error()
		}
		s.degradeLocked("kernel channel unreachable")
		return false
	}
	sp.Verdict = probe.VerdictOf(verdict.String())
	if s.degraded != "" {
		// The channel answered again: the episode is over.
		s.degraded = ""
	}
	return verdict == VerdictGrant
}

// SetSelection asserts ownership of a selection atom (step 2 of the
// Figure 6 protocol). Under Overhaul the server first confirms with the
// permission monitor that the request is preceded by user interaction
// (the copy keystroke); otherwise the client gets BadAccess.
func (c *Client) SetSelection(name string, win WindowID) error {
	if !c.alive() {
		return ErrDisconnected
	}
	if name == "" {
		return fmt.Errorf("set selection: empty atom: %w", ErrBadAtom)
	}
	s := c.srv
	s.wire()
	now := s.clk.Now()
	s.mu.Lock()
	defer s.mu.Unlock()

	w, err := s.lookupWindow(win)
	if err != nil {
		return err
	}
	if w.owner != c {
		return fmt.Errorf("set selection %s: window %d: %w", name, win, ErrBadAccess)
	}
	if !s.query(c.pid, OpCopy, now) {
		return fmt.Errorf("set selection %s: %w", name, ErrBadAccess)
	}

	sel := s.selections[name]
	if sel == nil {
		sel = &selection{}
		s.selections[name] = sel
	}
	if sel.owner != nil && sel.owner != c {
		sel.owner.deliver(Event{
			Type:      SelectionClear,
			Window:    sel.ownerWindow,
			Time:      now,
			Selection: name,
		})
	}
	sel.owner = c
	sel.ownerWindow = win
	sel.pending = nil
	return nil
}

// GetSelectionOwner returns the window owning the selection (steps 3–4:
// the source confirms it acquired the selection). Root means unowned.
func (c *Client) GetSelectionOwner(name string) (WindowID, error) {
	if !c.alive() {
		return Root, ErrDisconnected
	}
	s := c.srv
	s.wire()
	s.mu.Lock()
	defer s.mu.Unlock()
	sel, ok := s.selections[name]
	if !ok || sel.owner == nil {
		return Root, nil
	}
	return sel.ownerWindow, nil
}

// pasteDeniedError is a selection conversion (a paste) the permission
// monitor denied. Like captureDeniedError it formats its message only
// when read, and it wraps ErrBadAccess.
type pasteDeniedError struct {
	selection string
}

func (e *pasteDeniedError) Error() string {
	return "convert selection " + e.selection + ": " + ErrBadAccess.Error()
}

func (e *pasteDeniedError) Unwrap() error { return ErrBadAccess }

// ConvertSelection asks for the selection's contents to be delivered to
// property on the requestor window (step 6). Under Overhaul the server
// queries the monitor for paste permission first; on grant it relays a
// SelectionRequest event to the owner (step 7).
func (c *Client) ConvertSelection(name, target, property string, requestor WindowID) error {
	if !c.alive() {
		return ErrDisconnected
	}
	if name == "" || property == "" {
		return fmt.Errorf("convert selection: empty atom: %w", ErrBadAtom)
	}
	s := c.srv
	s.wire()
	now := s.clk.Now()
	s.mu.Lock()
	defer s.mu.Unlock()

	w, err := s.lookupWindow(requestor)
	if err != nil {
		return err
	}
	if w.owner != c {
		return fmt.Errorf("convert selection %s: requestor %d: %w", name, requestor, ErrBadAccess)
	}
	if !s.query(c.pid, OpPaste, now) {
		return &pasteDeniedError{selection: name}
	}

	sel, ok := s.selections[name]
	if !ok || sel.owner == nil {
		// Unowned selection: standard X answers with a SelectionNotify
		// carrying an empty property.
		c.deliver(Event{
			Type:      SelectionNotify,
			Window:    requestor,
			Time:      now,
			Selection: name,
			Target:    target,
			Property:  "",
		})
		return nil
	}
	if sel.pending != nil {
		return fmt.Errorf("convert selection %s: transfer in progress: %w", name, ErrBadMatch)
	}
	sel.pending = &pendingTransfer{
		requestor:       c,
		requestorWindow: requestor,
		property:        property,
		target:          target,
	}
	sel.owner.deliver(Event{
		Type:      SelectionRequest,
		Window:    sel.ownerWindow,
		Time:      now,
		Selection: name,
		Target:    target,
		Property:  property,
		Requestor: requestor,
	})
	return nil
}

// ChangeProperty stores data under a property on a window (step 8: the
// selection owner writes the copied data onto the requestor's window).
// PropertyNotify events fire for subscribers — except that, while the
// property carries in-flight clipboard data, Overhaul delivers them only
// to the paste target so eavesdroppers cannot race the transfer.
func (c *Client) ChangeProperty(win WindowID, property string, data []byte) error {
	if !c.alive() {
		return ErrDisconnected
	}
	if property == "" {
		return fmt.Errorf("change property: empty atom: %w", ErrBadAtom)
	}
	s := c.srv
	s.wire()
	now := s.clk.Now()
	s.mu.Lock()
	defer s.mu.Unlock()

	w, err := s.lookupWindow(win)
	if err != nil {
		return err
	}

	// Writing onto a foreign window is legitimate exactly when it
	// completes a pending transfer this client owns.
	inTransfer := s.pendingFor(c, w, property)
	if w.owner != c && !inTransfer {
		if s.policy != nil {
			return fmt.Errorf("change property %s on window %d: %w", property, win, ErrBadAccess)
		}
	}

	stored := make([]byte, len(data))
	copy(stored, data)
	w.props[property] = stored
	if inTransfer {
		w.inFlight[property] = true
	}

	ev := Event{
		Type:     PropertyNotify,
		Window:   win,
		Time:     now,
		Property: property,
	}
	for _, sub := range w.propSubscribers {
		if s.policy != nil && w.inFlight[property] && sub != w.owner {
			// In-flight clipboard data: only the paste target hears
			// about it.
			continue
		}
		sub.deliver(ev)
	}
	return nil
}

// pendingFor reports whether (w, property) is the destination of an
// in-progress transfer whose selection c owns. Requires s.mu held.
func (s *Server) pendingFor(c *Client, w *window, property string) bool {
	for _, sel := range s.selections {
		if sel.owner == c && sel.pending != nil &&
			sel.pending.requestorWindow == w.id && sel.pending.property == property {
			return true
		}
	}
	return false
}

// GetProperty reads a property (step 11–12: the paste target retrieves
// the data). Under Overhaul a property holding in-flight clipboard data
// is readable only by the paste target.
func (c *Client) GetProperty(win WindowID, property string) ([]byte, error) {
	if !c.alive() {
		return nil, ErrDisconnected
	}
	s := c.srv
	s.wire()
	s.mu.Lock()
	defer s.mu.Unlock()

	w, err := s.lookupWindow(win)
	if err != nil {
		return nil, err
	}
	if s.policy != nil && w.inFlight[property] && w.owner != c {
		return nil, fmt.Errorf("get property %s on window %d: clipboard in flight: %w",
			property, win, ErrBadAccess)
	}
	data, ok := w.props[property]
	if !ok {
		return nil, fmt.Errorf("get property %s on window %d: %w", property, win, ErrBadAtom)
	}
	out := make([]byte, len(data))
	copy(out, data)
	return out, nil
}

// DeleteProperty removes a property (step 13). Deleting an in-flight
// clipboard property completes the transfer and clears the pending
// state.
func (c *Client) DeleteProperty(win WindowID, property string) error {
	if !c.alive() {
		return ErrDisconnected
	}
	s := c.srv
	s.wire()
	s.mu.Lock()
	defer s.mu.Unlock()

	w, err := s.lookupWindow(win)
	if err != nil {
		return err
	}
	if w.owner != c {
		return fmt.Errorf("delete property %s on window %d: %w", property, win, ErrBadAccess)
	}
	if _, ok := w.props[property]; !ok {
		return fmt.Errorf("delete property %s on window %d: %w", property, win, ErrBadAtom)
	}
	delete(w.props, property)
	if w.inFlight[property] {
		delete(w.inFlight, property)
		for _, sel := range s.selections {
			if sel.pending != nil && sel.pending.requestorWindow == win &&
				sel.pending.property == property {
				sel.pending = nil
			}
		}
	}
	return nil
}

// SelectPropertyEvents subscribes the client to PropertyNotify events on
// the given window — any client may subscribe to any window, which is
// exactly the eavesdropping avenue the in-flight restriction closes.
func (c *Client) SelectPropertyEvents(win WindowID) error {
	if !c.alive() {
		return ErrDisconnected
	}
	s := c.srv
	s.mu.Lock()
	defer s.mu.Unlock()
	w, err := s.lookupWindow(win)
	if err != nil {
		return err
	}
	for _, sub := range w.propSubscribers {
		if sub == c {
			return nil
		}
	}
	w.propSubscribers = append(w.propSubscribers, c)
	return nil
}
