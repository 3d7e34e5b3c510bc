// Package xserver implements the simulated display server Overhaul
// modifies: an X11-like server with clients, windows, input dispatch,
// the ICCCM selection (clipboard) protocol, screen-capture requests, and
// the trusted-output alert overlay.
//
// The server reproduces the enforcement seams of the paper's modified
// X.Org (§IV-A): every input event carries *provenance* (hardware
// driver, SendEvent, or the XTest extension), so the trusted input path
// can filter synthetic events; interaction notifications are generated
// only for hardware events delivered to windows that have been visible
// beyond a threshold (the clickjacking defence); SetSelection,
// ConvertSelection, GetImage, XShmGetImage and cross-client
// CopyArea/CopyPlane consult the kernel permission monitor through an
// injected Policy; and alerts render on an overlay no client can obscure
// or forge (a visual shared secret authenticates them).
//
// Constructing the server with a nil Policy yields a faithful *vanilla*
// X server — the baseline configuration used by the Table I benchmarks.
package xserver

import (
	"fmt"
	"time"

	"overhaul/internal/monitor"
	"overhaul/internal/probe"
)

// EventType enumerates the X11 event vocabulary the simulation needs.
type EventType int

// Event types.
const (
	KeyPress EventType = iota + 1
	KeyRelease
	ButtonPress
	ButtonRelease
	MotionNotify
	SelectionRequest
	SelectionNotify
	SelectionClear
	PropertyNotify
)

// String names the event type.
func (t EventType) String() string {
	switch t {
	case KeyPress:
		return "KeyPress"
	case KeyRelease:
		return "KeyRelease"
	case ButtonPress:
		return "ButtonPress"
	case ButtonRelease:
		return "ButtonRelease"
	case MotionNotify:
		return "MotionNotify"
	case SelectionRequest:
		return "SelectionRequest"
	case SelectionNotify:
		return "SelectionNotify"
	case SelectionClear:
		return "SelectionClear"
	case PropertyNotify:
		return "PropertyNotify"
	default:
		return fmt.Sprintf("EventType(%d)", int(t))
	}
}

// Provenance records where an event originated. This is the tag the
// paper adds to the X server so the input-dispatch path can distinguish
// hardware input from the two synthetic injection facilities.
type Provenance int

// Provenances.
const (
	// FromHardware marks events generated by a physical input driver.
	FromHardware Provenance = iota + 1
	// FromSendEvent marks events injected via the core SendEvent
	// request; the X protocol forces the synthetic flag on them.
	FromSendEvent
	// FromXTest marks events injected via the XTest extension, which
	// carries no flag — the paper tags them inside the server.
	FromXTest
)

// String names the provenance.
func (p Provenance) String() string {
	switch p {
	case FromHardware:
		return "hardware"
	case FromSendEvent:
		return "send-event"
	case FromXTest:
		return "xtest"
	default:
		return fmt.Sprintf("Provenance(%d)", int(p))
	}
}

// WindowID identifies a window. 0 is the root window.
type WindowID uint32

// Root is the root window (the whole screen).
const Root WindowID = 0

// Event is one X event as delivered to a client.
type Event struct {
	Type       EventType
	Window     WindowID
	Time       time.Time
	Provenance Provenance
	Synthetic  bool // the wire-level SendEvent flag

	// Input payload.
	Key  string
	X, Y int

	// Selection payload.
	Selection string
	Target    string
	Property  string
	Requestor WindowID
}

// Op re-exports the monitor's operation vocabulary for callers that
// interact only with the display server.
type Op = monitor.Op

// Verdict re-exports the monitor's verdict type.
type Verdict = monitor.Verdict

// Re-exported operation and verdict values for display-server callers.
const (
	OpCopy       = monitor.OpCopy
	OpPaste      = monitor.OpPaste
	OpScreen     = monitor.OpScreen
	OpMic        = monitor.OpMic
	OpCam        = monitor.OpCam
	VerdictGrant = monitor.VerdictGrant
	VerdictDeny  = monitor.VerdictDeny
)

// Policy is the display server's window into the kernel permission
// monitor, reached over the authenticated netlink channel in the
// assembled system.
//
// Every call carries the trace context of the server-side span that
// issued it, so the kernel side can link its own spans to the input
// event (or query) that caused them — span IDs cross the channel
// exactly like interaction timestamps do. Implementations that do not
// trace simply ignore the context; a zero context is always valid.
//
// A nil Policy turns all Overhaul behaviour off (vanilla X server).
type Policy interface {
	// NotifyInteraction reports an authentic hardware input event
	// delivered to the client owned by pid at time t (N_{A,t}).
	NotifyInteraction(ctx probe.SpanContext, pid int, t time.Time) error
	// Query asks whether pid may perform op at time t (Q_{A,t}),
	// returning the monitor's verdict (R_{A,t}).
	Query(ctx probe.SpanContext, pid int, op Op, t time.Time) (Verdict, error)
}
