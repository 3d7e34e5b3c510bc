// Package netlink simulates the Linux netlink facility as used by
// Overhaul: a duplex kernel↔userspace message channel with kernel-side
// peer authentication.
//
// The paper (§IV-B, "Secure communication channel") establishes a
// netlink channel between the kernel permission monitor and the X
// server. Netlink itself does not authenticate; Overhaul's kernel
// instead *introspects* the connecting userspace process — checking that
// its executable is loaded from the well-known, superuser-owned path of
// the X binaries — before trusting it. This package reproduces that
// structure: a Hub lives on the kernel side, userspace processes Connect
// with their PID, and the Hub consults an Authenticator before admitting
// them. Both directions are synchronous calls, mirroring the
// request/response use in the paper (interaction notifications and
// permission queries upward, alert requests downward).
//
// The per-message paths take no lock: what they read is one immutable
// hubConfig behind an atomic pointer. The rare writers (the setters,
// Connect and Close) copy it and swap the copy in under the hub mutex.
package netlink

import (
	"errors"
	"fmt"
	"maps"
	"sync"
	"sync/atomic"

	"overhaul/internal/faultinject"
	"overhaul/internal/probe"
)

// Sentinel errors.
var (
	ErrAuthFailed   = errors.New("netlink: peer authentication failed")
	ErrClosed       = errors.New("netlink: connection closed")
	ErrNoHandler    = errors.New("netlink: no handler installed")
	ErrNotConnected = errors.New("netlink: peer not connected")
	ErrDuplicate    = errors.New("netlink: pid already connected")
	// ErrChannelFault marks a message lost to an injected channel
	// fault. Callers treat it like any transport failure: the message
	// did not arrive, and the affected decision path must fail closed.
	ErrChannelFault = errors.New("netlink: channel fault")
)

// Handler processes one message and returns a reply.
type Handler func(msg any) (any, error)

// Authenticator decides whether the process with the given PID may
// connect. The kernel's implementation introspects the process's
// executable path and owner, per the paper.
type Authenticator interface {
	AuthenticatePeer(pid int) error
}

// AuthenticatorFunc adapts a function to the Authenticator interface.
type AuthenticatorFunc func(pid int) error

var _ Authenticator = AuthenticatorFunc(nil)

// AuthenticatePeer implements Authenticator.
func (f AuthenticatorFunc) AuthenticatePeer(pid int) error { return f(pid) }

// Stats counts channel activity.
type Stats struct {
	Connects     uint64
	AuthFailures uint64
	UserToKernel uint64
	KernelToUser uint64
	// Fault-injection accounting (zero without an armed hook).
	Dropped    uint64
	Delayed    uint64
	Duplicated uint64
}

// hubStats is the hub's live counter block. Every field is an atomic
// so the per-message paths never take the hub lock just to count.
type hubStats struct {
	connects     atomic.Uint64
	authFailures atomic.Uint64
	userToKernel atomic.Uint64
	kernelToUser atomic.Uint64
	dropped      atomic.Uint64
	delayed      atomic.Uint64
	duplicated   atomic.Uint64
}

// hubConfig is what the per-message paths read, immutable once
// published.
type hubConfig struct {
	kernelHandler Handler
	conns         map[int]*Conn
	faults        faultinject.Hook
	// probeSend/probeRecv are the netlink.send (kernel→user) and
	// netlink.recv (user→kernel) attach points and probeFault the
	// system.fault one, resolved in SetProbes.
	probeSend, probeRecv, probeFault *probe.Hook
}

// Hub is the kernel endpoint of a netlink family. It is safe for
// concurrent use.
type Hub struct {
	auth Authenticator

	// stats synchronizes itself with atomics; it is not guarded by mu.
	stats hubStats
	// cfg synchronizes itself with atomics; it is not guarded by mu.
	// Writers copy and swap it under mu, so none loses another's change.
	cfg atomic.Pointer[hubConfig]

	mu sync.Mutex
}

// NewHub creates a hub whose connections are vetted by auth.
func NewHub(auth Authenticator) (*Hub, error) {
	if auth == nil {
		return nil, errors.New("netlink: nil authenticator")
	}
	h := &Hub{auth: auth}
	h.cfg.Store(&hubConfig{conns: make(map[int]*Conn)})
	return h, nil
}

// update publishes a copy of the configuration changed by fn.
func (h *Hub) update(fn func(cfg *hubConfig)) {
	h.mu.Lock()
	defer h.mu.Unlock()
	cfg := *h.cfg.Load()
	fn(&cfg)
	h.cfg.Store(&cfg)
}

// SetKernelHandler installs the handler for userspace→kernel messages.
func (h *Hub) SetKernelHandler(fn Handler) {
	h.update(func(cfg *hubConfig) { cfg.kernelHandler = fn })
}

// SetFaultHook installs the fault-injection hook consulted on every
// message in both directions (PointNetlinkUserToKernel and
// PointNetlinkKernelToUser). A nil hook disables injection.
func (h *Hub) SetFaultHook(hook faultinject.Hook) {
	h.update(func(cfg *hubConfig) { cfg.faults = hook })
}

// SetProbes resolves the hub's probe attach points from reg. A nil
// registry (the default) leaves the channel uninstrumented.
func (h *Hub) SetProbes(reg *probe.Registry) {
	h.update(func(cfg *hubConfig) {
		cfg.probeSend = reg.Hook(probe.HookNetlinkSend)
		cfg.probeRecv = reg.Hook(probe.HookNetlinkRecv)
		cfg.probeFault = reg.Hook(probe.HookFault)
	})
}

// applyFault evaluates the channel fault point for one message to or
// from pid and updates the fault counters. The returned fault tells
// the caller whether to drop (KindError) or double-deliver
// (KindDuplicate) the message; delays have already been realised on
// the virtual clock by the injector.
func (h *Hub) applyFault(cfg *hubConfig, p faultinject.Point, pid int) faultinject.Fault {
	f := faultinject.Eval(cfg.faults, p)
	if !f.Injected() {
		return f
	}
	switch f.Kind {
	case faultinject.KindError:
		h.stats.dropped.Add(1)
	case faultinject.KindDelay:
		h.stats.delayed.Add(1)
	case faultinject.KindDuplicate:
		h.stats.duplicated.Add(1)
	}
	if pb := cfg.probeFault; pb.Wants(int64(pid)) {
		ev := probe.Event{PID: int64(pid), Kind: probe.KindFault, Arg: int64(f.Kind), Reason: string(p)}
		if f.Kind == faultinject.KindError {
			// A dropped channel message is exactly the failure the
			// enforcement stack must survive closed; name the fault
			// point so a post-mortem dump shows what the channel lost.
			ev.Detail = "injected fault at " + string(p) + ": message dropped"
		}
		pb.Emit(&ev)
	}
	return f
}

// Connect authenticates the peer and returns its connection. A given
// PID may hold at most one connection at a time.
func (h *Hub) Connect(pid int, userHandler Handler) (*Conn, error) {
	if err := h.auth.AuthenticatePeer(pid); err != nil {
		h.stats.authFailures.Add(1)
		return nil, fmt.Errorf("%w: pid %d: %v", ErrAuthFailed, pid, err)
	}

	h.mu.Lock()
	defer h.mu.Unlock()
	cfg := *h.cfg.Load()
	if _, ok := cfg.conns[pid]; ok {
		return nil, fmt.Errorf("%w: pid %d", ErrDuplicate, pid)
	}
	c := &Conn{hub: h, pid: pid, userHandler: userHandler}
	cfg.conns = maps.Clone(cfg.conns)
	cfg.conns[pid] = c
	h.cfg.Store(&cfg)
	h.stats.connects.Add(1)
	return c, nil
}

// CallUser sends a kernel→userspace message to the connection held by
// pid and returns its reply.
func (h *Hub) CallUser(pid int, msg any) (any, error) {
	cfg := h.cfg.Load()
	c, ok := cfg.conns[pid]
	h.stats.kernelToUser.Add(1)
	if pb := cfg.probeSend; pb.Wants(int64(pid)) {
		pb.Emit(&probe.Event{PID: int64(pid), Kind: probe.KindSend})
	}

	if !ok {
		return nil, fmt.Errorf("%w: pid %d", ErrNotConnected, pid)
	}
	fn := c.userHandler
	if fn == nil {
		return nil, fmt.Errorf("%w: pid %d has no user handler", ErrNoHandler, pid)
	}
	switch f := h.applyFault(cfg, faultinject.PointNetlinkKernelToUser, pid); f.Kind {
	case faultinject.KindError:
		return nil, fmt.Errorf("%w: kernel→user pid %d: %w", ErrChannelFault, pid, f.Err)
	case faultinject.KindDuplicate:
		// The message arrives twice; the reply to the first copy is
		// lost in favour of the retransmission's.
		_, _ = fn(msg)
	}
	return fn(msg)
}

// Connected reports whether pid holds a live connection.
func (h *Hub) Connected(pid int) bool {
	_, ok := h.cfg.Load().conns[pid]
	return ok
}

// StatsSnapshot returns a copy of the hub's counters.
func (h *Hub) StatsSnapshot() Stats {
	return Stats{
		Connects:     h.stats.connects.Load(),
		AuthFailures: h.stats.authFailures.Load(),
		UserToKernel: h.stats.userToKernel.Load(),
		KernelToUser: h.stats.kernelToUser.Load(),
		Dropped:      h.stats.dropped.Load(),
		Delayed:      h.stats.delayed.Load(),
		Duplicated:   h.stats.duplicated.Load(),
	}
}

func (h *Hub) drop(pid int) {
	h.update(func(cfg *hubConfig) {
		cfg.conns = maps.Clone(cfg.conns)
		delete(cfg.conns, pid)
	})
}

// Conn is a userspace endpoint.
type Conn struct {
	hub         *Hub
	pid         int
	userHandler Handler

	// closed synchronizes itself with atomics; it is not guarded by mu.
	closed atomic.Bool

	mu sync.Mutex // serialises Close
}

// PID returns the peer PID this connection was authenticated as.
func (c *Conn) PID() int { return c.pid }

// Call sends a userspace→kernel message and returns the kernel's reply.
func (c *Conn) Call(msg any) (any, error) {
	if c.closed.Load() {
		return nil, ErrClosed
	}

	cfg := c.hub.cfg.Load()
	c.hub.stats.userToKernel.Add(1)
	if pb := cfg.probeRecv; pb.Wants(int64(c.pid)) {
		pb.Emit(&probe.Event{PID: int64(c.pid), Kind: probe.KindRecv})
	}

	fn := cfg.kernelHandler
	if fn == nil {
		return nil, ErrNoHandler
	}
	switch f := c.hub.applyFault(cfg, faultinject.PointNetlinkUserToKernel, c.pid); f.Kind {
	case faultinject.KindError:
		return nil, fmt.Errorf("%w: user→kernel pid %d: %w", ErrChannelFault, c.pid, f.Err)
	case faultinject.KindDuplicate:
		// Double delivery: the kernel handler runs twice (the monitor's
		// newest-wins stamp semantics make notifications idempotent;
		// duplicated queries simply audit twice). The first reply is
		// superseded by the retransmission's.
		_, _ = fn(msg)
	}
	return fn(msg)
}

// Close tears the connection down. Closing twice returns ErrClosed.
func (c *Conn) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed.Load() {
		return ErrClosed
	}
	c.closed.Store(true)
	c.hub.drop(c.pid)
	return nil
}
