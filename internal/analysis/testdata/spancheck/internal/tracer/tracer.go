// Package tracer is a spancheck fixture: spans begun with a hook's
// Begin must be ended on every return path.
package tracer

// Hook mimics a probe hook's span surface.
type Hook struct{}

// Event mimics a probe event: the span's begin and end event.
type Event struct{ Name string }

// Begin begins the span of ev.
func (h *Hook) Begin(parent int, ev *Event) {}

// End ends the span of ev.
func (h *Hook) End(ev *Event) {}

// Wants mimics the pid-window guard.
func (h *Hook) Wants() bool { return true }

func work() {}

// Deferred is the repository convention: Begin immediately followed
// by defer End.
func Deferred(h *Hook) {
	sp := Event{Name: "deferred"}
	h.Begin(0, &sp)
	defer h.End(&sp)
	work()
}

// Sequential ends the span explicitly before falling off the end.
func Sequential(h *Hook) {
	sp := Event{Name: "sequential"}
	h.Begin(0, &sp)
	work()
	h.End(&sp)
}

// EndBeforeEveryReturn ends on the early path and the fall-through.
func EndBeforeEveryReturn(h *Hook, cond bool) int {
	sp := Event{Name: "branches"}
	h.Begin(0, &sp)
	if cond {
		h.End(&sp)
		return 1
	}
	h.End(&sp)
	return 0
}

// BranchLocal begins and ends inside one branch.
func BranchLocal(h *Hook, sensitive bool) {
	var sp Event
	if sensitive {
		h.Begin(0, &sp)
		defer h.End(&sp)
	}
	work()
}

// Guarded is the guarded form: the span begins inside the guard and
// the defer after it covers both paths — the kernel.Open shape.
func Guarded(h *Hook) {
	var sp Event
	if h.Wants() {
		sp = Event{Name: "guarded"}
		h.Begin(0, &sp)
	}
	defer h.End(&sp)
	work()
}

// GuardedNeverEnded begins inside the guard and never ends.
func GuardedNeverEnded(h *Hook) {
	var sp Event
	if h.Wants() {
		h.Begin(0, &sp) // want "span sp is never ended"
	}
	work()
}

// GuardedEarlyReturn returns between the guard and the defer.
func GuardedEarlyReturn(h *Hook, cond bool) int {
	var sp Event
	if h.Wants() {
		h.Begin(0, &sp)
	}
	if cond {
		return 1 // want "may not be ended on this return path"
	}
	defer h.End(&sp)
	return 0
}

// Unnamed begins a span on an event nothing can end.
func Unnamed(h *Hook) {
	h.Begin(0, &Event{Name: "unnamed"}) // want "Begin on an unnamed event"
}

// WrongEvent ends a different event than it began.
func WrongEvent(h *Hook) {
	sp, other := Event{}, Event{}
	h.Begin(0, &sp) // want "span sp is never ended"
	defer h.End(&other)
	work()
}

// NeverEnded begins a span and forgets it.
func NeverEnded(h *Hook) {
	sp := Event{Name: "leak"}
	h.Begin(0, &sp) // want "span sp is never ended"
	work()
}

// EarlyReturn leaks the span on the error path.
func EarlyReturn(h *Hook, cond bool) int {
	sp := Event{Name: "early"}
	h.Begin(0, &sp)
	if cond {
		return 1 // want "may not be ended on this return path"
	}
	h.End(&sp)
	return 0
}

// DeferTooLate installs the defer after a return has already escaped.
func DeferTooLate(h *Hook, cond bool) int {
	sp := Event{Name: "late"}
	h.Begin(0, &sp)
	if cond {
		return 1 // want "may not be ended on this return path"
	}
	defer h.End(&sp)
	return 0
}

// InsideLiteral checks that function literals are scanned too.
func InsideLiteral(h *Hook) func() {
	return func() {
		sp := Event{Name: "lit"}
		h.Begin(0, &sp) // want "span sp is never ended"
	}
}

// Suppressed demonstrates the allow annotation.
func Suppressed(h *Hook) {
	sp := Event{Name: "allowed"}
	h.Begin(0, &sp) //overhaul:allow spancheck fixture demonstrates suppression
}
