package xserver

import (
	"fmt"
	"sync"
)

// Client is one X client connection, bound to a process.
type Client struct {
	srv  *Server
	conn int
	pid  int
	name string

	mu     sync.Mutex
	queue  []Event
	closed bool
}

// PID returns the process the connection belongs to.
func (c *Client) PID() int { return c.pid }

// Name returns the client's name.
func (c *Client) Name() string { return c.name }

// deliver appends an event to the client queue.
func (c *Client) deliver(ev Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	c.queue = append(c.queue, ev)
}

// NextEvent pops the oldest pending event; ok is false when the queue
// is empty.
func (c *Client) NextEvent() (ev Event, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.queue) == 0 {
		return Event{}, false
	}
	ev = c.queue[0]
	if len(c.queue) == 1 {
		// Drained: keep the backing array for the next delivery.
		c.queue = c.queue[:0]
	} else {
		c.queue = c.queue[1:]
	}
	return ev, true
}

// PendingEvents returns the number of queued events.
func (c *Client) PendingEvents() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.queue)
}

// DrainEvents pops and returns all pending events.
func (c *Client) DrainEvents() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.queue
	c.queue = nil
	return out
}

// Close disconnects the client. Its windows are unmapped and destroyed
// and any selections it owns are cleared.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrDisconnected
	}
	c.closed = true
	c.mu.Unlock()

	s := c.srv
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.clients, c.conn)
	for id, w := range s.windows {
		if w.owner == c {
			delete(s.windows, id)
			for i, wid := range s.stacking {
				if wid == id {
					s.stacking = append(s.stacking[:i], s.stacking[i+1:]...)
					break
				}
			}
			if s.focus == id {
				s.focus = Root
			}
		}
	}
	for name, sel := range s.selections {
		if sel.owner == c {
			delete(s.selections, name)
		}
	}
	return nil
}

func (c *Client) alive() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return !c.closed
}

// --- window management -------------------------------------------------------

// CreateWindow creates an unmapped window with the given geometry.
func (c *Client) CreateWindow(x, y, w, h int) (WindowID, error) {
	if !c.alive() {
		return 0, ErrDisconnected
	}
	if w <= 0 || h <= 0 {
		return 0, fmt.Errorf("create window %dx%d: %w", w, h, ErrBadMatch)
	}
	s := c.srv
	s.mu.Lock()
	defer s.mu.Unlock()
	id := s.nextWindow
	s.nextWindow++
	s.windows[id] = &window{
		id:       id,
		owner:    c,
		x:        x,
		y:        y,
		w:        w,
		h:        h,
		props:    make(map[string][]byte),
		inFlight: make(map[string]bool),
	}
	s.stacking = append(s.stacking, id)
	return id, nil
}

// MapWindow makes the window visible and raises it. The map time starts
// the visibility-threshold clock used by the clickjacking defence.
func (c *Client) MapWindow(id WindowID) error {
	if !c.alive() {
		return ErrDisconnected
	}
	s := c.srv
	s.mu.Lock()
	defer s.mu.Unlock()
	w, err := s.lookupWindow(id)
	if err != nil {
		return err
	}
	if w.owner != c {
		return fmt.Errorf("map window %d: %w", id, ErrBadAccess)
	}
	if !w.mapped {
		w.mapped = true
		w.mappedAt = s.clk.Now()
	}
	s.raise(id)
	if s.focus == Root {
		s.focus = id
	}
	return nil
}

// UnmapWindow hides the window.
func (c *Client) UnmapWindow(id WindowID) error {
	if !c.alive() {
		return ErrDisconnected
	}
	s := c.srv
	s.mu.Lock()
	defer s.mu.Unlock()
	w, err := s.lookupWindow(id)
	if err != nil {
		return err
	}
	if w.owner != c {
		return fmt.Errorf("unmap window %d: %w", id, ErrBadAccess)
	}
	w.mapped = false
	if s.focus == id {
		s.focus = Root
	}
	return nil
}

// RaiseWindow brings the window to the top of the stacking order.
// Remapping resets the visibility clock only when the window was hidden;
// raising does not.
func (c *Client) RaiseWindow(id WindowID) error {
	if !c.alive() {
		return ErrDisconnected
	}
	s := c.srv
	s.mu.Lock()
	defer s.mu.Unlock()
	w, err := s.lookupWindow(id)
	if err != nil {
		return err
	}
	if w.owner != c {
		return fmt.Errorf("raise window %d: %w", id, ErrBadAccess)
	}
	s.raise(id)
	return nil
}

// SetFocus gives keyboard focus to the window.
func (c *Client) SetFocus(id WindowID) error {
	if !c.alive() {
		return ErrDisconnected
	}
	s := c.srv
	s.mu.Lock()
	defer s.mu.Unlock()
	w, err := s.lookupWindow(id)
	if err != nil {
		return err
	}
	if w.owner != c {
		return fmt.Errorf("focus window %d: %w", id, ErrBadAccess)
	}
	if !w.mapped {
		return fmt.Errorf("focus window %d: not mapped: %w", id, ErrBadMatch)
	}
	s.focus = id
	return nil
}

// Draw replaces the window's content (its "pixels").
func (c *Client) Draw(id WindowID, content []byte) error {
	if !c.alive() {
		return ErrDisconnected
	}
	s := c.srv
	s.mu.Lock()
	defer s.mu.Unlock()
	w, err := s.lookupWindow(id)
	if err != nil {
		return err
	}
	if w.owner != c {
		return fmt.Errorf("draw window %d: %w", id, ErrBadAccess)
	}
	w.content = make([]byte, len(content))
	copy(w.content, content)
	return nil
}
