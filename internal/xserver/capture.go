package xserver

import (
	"fmt"
	"strconv"
)

// captureDeniedError is a screen capture the permission monitor
// denied: req names the request ("GetImage", "CopyArea from"). It
// keeps the message's parts and formats them only when read, so a
// stream of denials pays no formatting no caller reads. It wraps
// ErrBadAccess.
type captureDeniedError struct {
	req    string
	target WindowID
	pid    int
}

func (e *captureDeniedError) Error() string {
	return e.req + " window " + strconv.FormatUint(uint64(e.target), 10) + " by pid " + strconv.Itoa(e.pid) + ": " + ErrBadAccess.Error()
}

func (e *captureDeniedError) Unwrap() error { return ErrBadAccess }

// captureWindow returns a copy of the target window's content; target
// Root composes every mapped window bottom-to-top, which is what a full
// screenshot observes. Requires s.mu held.
func (s *Server) captureWindow(target WindowID) ([]byte, error) {
	if target == Root {
		total := 0
		for _, id := range s.stacking {
			if w := s.windows[id]; w != nil && w.mapped {
				total += len(w.content)
			}
		}
		out := make([]byte, 0, total)
		for _, id := range s.stacking {
			if w := s.windows[id]; w != nil && w.mapped {
				out = append(out, w.content...)
			}
		}
		return out, nil
	}
	w, err := s.lookupWindow(target)
	if err != nil {
		return nil, err
	}
	out := make([]byte, len(w.content))
	copy(out, w.content)
	return out, nil
}

// getImage implements both GetImage and XShmGetImage: they differ only
// in transport (the MIT-SHM extension hands pixels over shared memory),
// and both are mediated identically by Overhaul.
func (c *Client) getImage(req string, target WindowID) ([]byte, error) {
	if !c.alive() {
		return nil, ErrDisconnected
	}
	s := c.srv
	s.wire()
	now := s.clk.Now()
	s.mu.Lock()
	defer s.mu.Unlock()

	s.stats.CaptureRequests++

	// Capturing your own window is never mediated: the data is already
	// yours.
	ownWindow := false
	if target != Root {
		w, err := s.lookupWindow(target)
		if err != nil {
			return nil, err
		}
		ownWindow = w.owner == c
	}
	if !ownWindow {
		if !s.query(c.pid, OpScreen, now) {
			s.stats.CaptureDenied++
			return nil, &captureDeniedError{req: req, target: target, pid: c.pid}
		}
		if s.policy != nil {
			s.showAlertLocked(c.pid, OpScreen, false, false)
		}
	}
	return s.captureWindow(target)
}

// GetImage is the core protocol request for reading display contents:
// the full screen (Root) or a specific window. Under Overhaul the
// request is granted only when correlated with preceding user input.
func (c *Client) GetImage(target WindowID) ([]byte, error) {
	return c.getImage("GetImage", target)
}

// XShmGetImage is the MIT shared-memory variant of GetImage; Overhaul
// interposes on it identically (§IV-A, "Display contents").
func (c *Client) XShmGetImage(target WindowID) ([]byte, error) {
	return c.getImage("XShmGetImage", target)
}

// CopyArea copies a rectangle of display content between two drawables.
// Unlike GetImage it is heavily used for ordinary drawing, so Overhaul
// first inspects the buffer owners: a client copying within its own
// windows proceeds unmediated; copying from a *foreign* window (or the
// root) is screen capture by another name and goes through the same
// input-correlation check.
func (c *Client) CopyArea(src, dst WindowID) error {
	if !c.alive() {
		return ErrDisconnected
	}
	s := c.srv
	s.wire()
	now := s.clk.Now()
	s.mu.Lock()
	defer s.mu.Unlock()

	dstW, err := s.lookupWindow(dst)
	if err != nil {
		return err
	}
	if dstW.owner != c {
		return fmt.Errorf("CopyArea to window %d: %w", dst, ErrBadAccess)
	}

	sameOwner := false
	if src != Root {
		srcW, err := s.lookupWindow(src)
		if err != nil {
			return err
		}
		sameOwner = srcW.owner == dstW.owner
	}
	if !sameOwner {
		s.stats.CaptureRequests++
		if !s.query(c.pid, OpScreen, now) {
			s.stats.CaptureDenied++
			return &captureDeniedError{req: "CopyArea from", target: src, pid: c.pid}
		}
		if s.policy != nil {
			s.showAlertLocked(c.pid, OpScreen, false, false)
		}
	}

	content, err := s.captureWindow(src)
	if err != nil {
		return err
	}
	dstW.content = content
	return nil
}

// CopyPlane is the bit-plane variant of CopyArea; Overhaul treats it
// identically.
func (c *Client) CopyPlane(src, dst WindowID) error {
	return c.CopyArea(src, dst)
}
