// Package clock provides the time source used by every simulated
// subsystem in the repository.
//
// Overhaul's access-control decisions are *temporal*: a privileged
// operation is granted only if it occurs within a threshold δ of an
// authentic user input event. Reproducing the paper's behaviour
// deterministically therefore requires full control over time. The
// Clock interface abstracts "now"; Simulated is a manually advanced
// clock used by tests, the study simulations, and the 21-day empirical
// experiment, while System wraps the wall clock for the performance
// benchmarks where real elapsed time is what we measure.
package clock

import (
	"sync"
	"sync/atomic"
	"time"
)

// Clock is a source of the current instant. Implementations must be
// safe for concurrent use.
type Clock interface {
	// Now returns the current instant according to this clock.
	Now() time.Time
}

// System is a Clock backed by the operating system's clocks: the wall
// instant read once, when the process starts, advanced by the monotonic
// time elapsed since. A read is one monotonic clock read instead of
// time.Now's two (wall and monotonic), and wall-clock steps after start
// never move it, so δ comparisons of its instants are monotonic. Its
// instants carry a monotonic reading. Its zero value is ready to use.
type System struct{}

var _ Clock = System{}

// boot is the process's one wall-clock read; every System instant and
// every Stopwatch reading is measured from it.
var boot = time.Now()

// Now implements Clock.
func (System) Now() time.Time { return boot.Add(time.Since(boot)) }

// Epoch is the instant at which every Simulated clock starts. A fixed,
// recognisable epoch keeps traces and golden test outputs stable.
var Epoch = time.Date(2016, time.June, 28, 9, 0, 0, 0, time.UTC) // DSN 2016 week

// Simulated is a deterministic, manually advanced clock.
//
// The zero value starts at Epoch. Advance moves time forward; Set jumps
// to an absolute instant (never backwards). All methods are safe for
// concurrent use; Now is a single atomic load, so the decision hot
// paths that read virtual time never serialize behind the writers.
type Simulated struct {
	// cur is the current instant; nil means the clock has never been
	// advanced and sits at Epoch. Writers swap in a fresh pointer, so
	// readers see a consistent time.Time without taking mu.
	cur atomic.Pointer[time.Time]
	mu  sync.Mutex // serializes Advance/Set
}

var _ Clock = (*Simulated)(nil)

// NewSimulated returns a Simulated clock positioned at Epoch.
func NewSimulated() *Simulated {
	return NewSimulatedAt(Epoch)
}

// NewSimulatedAt returns a Simulated clock positioned at start.
func NewSimulatedAt(start time.Time) *Simulated {
	c := &Simulated{}
	c.cur.Store(&start)
	return c
}

// Now implements Clock.
func (c *Simulated) Now() time.Time {
	if p := c.cur.Load(); p != nil {
		return *p
	}
	return Epoch
}

// Advance moves the clock forward by d and returns the new instant.
// Negative durations are ignored: simulated time never runs backwards.
func (c *Simulated) Advance(d time.Duration) time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()

	now := c.Now()
	if d > 0 {
		now = now.Add(d)
	}
	c.cur.Store(&now)
	return now
}

// Set jumps the clock to t if t is not before the current instant.
// It returns the clock's instant after the call.
func (c *Simulated) Set(t time.Time) time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()

	now := c.Now()
	if t.After(now) {
		now = t
	}
	c.cur.Store(&now)
	return now
}

// Stopwatch measures real elapsed time for the harnesses that time
// actual hardware (Table I, the multiview overhead report) and so
// cannot run on an injected Clock. It lives here so every wall-clock
// read stays inside the one package clockcheck exempts. Each reading
// is the single monotonic read System.Now takes.
type Stopwatch struct {
	start time.Duration // monotonic offset from boot
}

// StartStopwatch begins a measurement.
func StartStopwatch() Stopwatch {
	return Stopwatch{start: time.Since(boot)}
}

// Lap returns the elapsed time and restarts the stopwatch.
func (s *Stopwatch) Lap() time.Duration {
	now := time.Since(boot)
	d := now - s.start
	s.start = now
	return d
}
