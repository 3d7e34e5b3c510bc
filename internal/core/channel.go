package core

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"overhaul/internal/clock"
	"overhaul/internal/netlink"
)

// ErrChannelDown is returned once the kernel↔X channel has been
// declared dead: retries were exhausted (or the failure was
// permanent), the monitor has been switched into fail-closed degraded
// mode, and every mediated path denies until ReconnectX.
var ErrChannelDown = errors.New("core: netlink channel down")

// Channel retry defaults: a transient fault is retried a couple of
// times with doubling backoff before the channel is declared dead.
const (
	DefaultChannelRetries = 2
	DefaultChannelBackoff = 5 * time.Millisecond
)

// channel wraps the netlink connection between the display server and
// the kernel with the degradation policy both of its users share:
// bounded retry with backoff for transient faults, then a one-way
// transition to "down" that flips the permission monitor into
// fail-closed degraded mode. Backoff is realised on the simulated
// clock — the channel never sleeps on a wall clock.
type channel struct {
	hub    *netlink.Hub
	clk    clock.Clock
	pid    int // the X server's PID (the peer of every message)
	onDown func(reason string)

	// conn synchronizes itself with atomics. It is nil while the
	// channel is down (and until Boot first resets it).
	conn atomic.Pointer[netlink.Conn]
}

// permanent reports whether err can never be cured by retrying the
// same call (the peer is gone, not glitching).
func permanent(err error) bool {
	return errors.Is(err, netlink.ErrClosed) ||
		errors.Is(err, netlink.ErrNotConnected) ||
		errors.Is(err, netlink.ErrNoHandler)
}

// pause realises one backoff step (attempt ≥ 1) by advancing the
// simulated clock; with a real clock the retry is immediate, since
// blocking the decision path on a wall-clock sleep would be worse
// than the fault.
func (ch *channel) pause(attempt int) {
	if sim, ok := ch.clk.(*clock.Simulated); ok {
		sim.Advance(DefaultChannelBackoff << (attempt - 1))
	}
}

// markDown performs the one-way down transition, notifying onDown
// exactly once per outage: of racing callers, only the one whose swap
// takes the connection notifies. The callback must not call back into
// the channel.
func (ch *channel) markDown() {
	if ch.conn.Swap(nil) != nil && ch.onDown != nil {
		ch.onDown("netlink channel down")
	}
}

// reset installs a fresh connection and clears the down state
// (ReconnectX).
func (ch *channel) reset(conn *netlink.Conn) {
	ch.conn.Store(conn)
}

// direction picks which way a channel message travels.
type direction bool

const (
	toKernel direction = false // userspace→kernel (Conn.Call)
	toUser   direction = true  // kernel→userspace (Hub.CallUser)
)

// call sends one message in direction dir with the retry policy.
func (ch *channel) call(dir direction, msg any) (any, error) {
	conn := ch.conn.Load()
	if conn == nil {
		return nil, ErrChannelDown
	}
	var lastErr error
	for attempt := 0; attempt <= DefaultChannelRetries; attempt++ {
		if attempt > 0 {
			ch.pause(attempt)
		}
		var reply any
		var err error
		if dir == toUser {
			reply, err = ch.hub.CallUser(ch.pid, msg)
		} else {
			reply, err = conn.Call(msg)
		}
		if err == nil {
			return reply, nil
		}
		lastErr = err
		if permanent(err) {
			break
		}
	}
	ch.markDown()
	return nil, fmt.Errorf("%w: %v", ErrChannelDown, lastErr)
}
