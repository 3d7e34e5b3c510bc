package xserver

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"overhaul/internal/clock"
	"overhaul/internal/faultinject"
	"overhaul/internal/probe"
)

// Sentinel errors (the X protocol's error vocabulary, abridged).
var (
	ErrBadAccess    = errors.New("xserver: bad access")
	ErrBadWindow    = errors.New("xserver: bad window")
	ErrBadMatch     = errors.New("xserver: bad match")
	ErrBadAtom      = errors.New("xserver: bad atom")
	ErrDisconnected = errors.New("xserver: client disconnected")
)

// DefaultVisibilityThreshold is how long a window must have been mapped
// and visible before input delivered to it produces interaction
// notifications — the clickjacking defence from §IV-A.
const DefaultVisibilityThreshold = time.Second

// DefaultAlertDuration is how long a trusted-output alert stays on
// screen ("a few seconds", §IV-A).
const DefaultAlertDuration = 3 * time.Second

// Config parameterises the server.
type Config struct {
	// VisibilityThreshold gates interaction notifications; zero
	// selects DefaultVisibilityThreshold; negative disables the
	// defence entirely (ablation only).
	VisibilityThreshold time.Duration
	// AlertSecret is the user-chosen visual shared secret rendered
	// into every authentic alert (the cat image in the paper's
	// Figure 5).
	AlertSecret string
	// DisableXTest rejects XTest extension requests outright — the
	// stricter deployment §IV-A contemplates for machines that do not
	// need GUI automation. Synthetic injection then has no entry point
	// at all.
	DisableXTest bool
	// WireWork models the per-request X protocol transport cost
	// (serialisation + socket round trip), in abstract work units.
	// The paper's clipboard numbers (~1.16 ms per paste) are dominated
	// by this cost; the in-process simulation would otherwise make
	// Overhaul's single extra permission query look disproportionate.
	// Zero (the default) disables it; the benchmark harness enables it
	// for both the baseline and the Overhaul server.
	WireWork int
	// FaultHook, when non-nil, is consulted at PointAlertRender on
	// every overlay render (chaos testing of the alert engine).
	FaultHook faultinject.Hook
	// Probes, when non-nil, arms the display server's attach points:
	// xserver.input (authentic hardware input), xserver.notify,
	// xserver.query, xserver.alert, and the fault and degrade points.
	Probes *probe.Registry
}

// Stats counts server activity.
type Stats struct {
	HardwareEvents   uint64
	SyntheticBlocked uint64 // synthetic events excluded from trusted input
	Notifications    uint64 // interaction notifications sent to the kernel
	Queries          uint64 // permission queries sent to the kernel
	AlertsShown      uint64
	CaptureRequests  uint64
	CaptureDenied    uint64
	// PolicyErrors counts kernel-channel calls that returned transport
	// errors (each fails closed).
	PolicyErrors uint64
	// AlertRenderFailures counts overlay renders that failed; the
	// alerts stay in the history with RenderFailed set.
	AlertRenderFailures uint64
}

// Server is the display server. It is safe for concurrent use.
type Server struct {
	clk    clock.Clock
	policy Policy
	cfg    Config
	// Attach points, resolved once; unattached cost is one atomic load
	// per hardware event, notification, query or alert.
	probeInput, probeNotify, probeQuery, probeAlert *probe.Hook
	probeFault, probeDegrade                        *probe.Hook

	mu         sync.Mutex
	clients    map[int]*Client // by connection id
	nextConn   int
	windows    map[WindowID]*window
	nextWindow WindowID
	stacking   []WindowID // bottom -> top
	focus      WindowID
	selections map[string]*selection
	alerts     []Alert
	degraded   string // non-empty: the channel to the kernel is failing
	stats      Stats
}

// window is the server-side window state.
type window struct {
	id              WindowID
	owner           *Client
	x, y            int
	w, h            int
	mapped          bool
	mappedAt        time.Time
	content         []byte
	props           map[string][]byte
	propSubscribers []*Client
	// inFlight names properties currently carrying clipboard data in
	// transit to this window's owner (paste protection, §IV-A).
	inFlight map[string]bool
}

// selection is the state of one selection atom (e.g. CLIPBOARD).
type selection struct {
	owner       *Client
	ownerWindow WindowID
	// pending is the in-progress transfer, nil when idle.
	pending *pendingTransfer
}

// pendingTransfer tracks steps (6)–(13) of the Figure 6 protocol.
type pendingTransfer struct {
	requestor       *Client
	requestorWindow WindowID
	property        string
	target          string
}

// NewServer constructs the display server. policy may be nil for a
// vanilla (non-Overhaul) server.
func NewServer(clk clock.Clock, policy Policy, cfg Config) (*Server, error) {
	if clk == nil {
		return nil, errors.New("xserver: nil clock")
	}
	switch {
	case cfg.VisibilityThreshold == 0:
		cfg.VisibilityThreshold = DefaultVisibilityThreshold
	case cfg.VisibilityThreshold < 0:
		cfg.VisibilityThreshold = 0 // defence off
	}
	reg := cfg.Probes
	return &Server{
		clk:          clk,
		policy:       policy,
		cfg:          cfg,
		probeInput:   reg.Hook(probe.HookXServerInput),
		probeNotify:  reg.Hook(probe.HookXServerNotify),
		probeQuery:   reg.Hook(probe.HookXServerQuery),
		probeAlert:   reg.Hook(probe.HookXServerAlert),
		probeFault:   reg.Hook(probe.HookFault),
		probeDegrade: reg.Hook(probe.HookDegrade),
		clients:      make(map[int]*Client),
		nextConn:     1,
		windows:      make(map[WindowID]*window),
		nextWindow:   1,
		selections:   make(map[string]*selection),
	}, nil
}

// Protected reports whether the server runs with an Overhaul policy.
func (s *Server) Protected() bool { return s.policy != nil }

// Degraded returns the reason the server considers its kernel channel
// broken and whether it currently does.
func (s *Server) Degraded() (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.degraded, s.degraded != ""
}

// ClearDegraded resets the degraded episode (the channel was repaired,
// e.g. by the core reconnecting it).
func (s *Server) ClearDegraded() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.degraded = ""
}

// degradeLocked records a failed kernel-channel call and, on the first
// failure of an episode, raises the distinct protection-degraded
// banner on the overlay: the user must learn that enforcement — not
// policy — is why everything is suddenly blocked. Requires s.mu held
// (which is why the banner goes through renderAlertLocked, never
// ShowAlert).
func (s *Server) degradeLocked(reason string) {
	s.stats.PolicyErrors++
	if s.degraded != "" {
		return // episode already announced
	}
	s.degraded = reason
	if s.probeDegrade.Wants(0) {
		s.probeDegrade.Emit(&probe.Event{Kind: probe.KindDegrade, Detail: "xserver", Reason: "protection degraded: " + reason})
	}
	now := s.clk.Now()
	s.renderAlertLocked(Alert{
		Message:  "OVERHAUL protection degraded: " + reason + " — sensitive access is blocked",
		Secret:   s.cfg.AlertSecret,
		Blocked:  true,
		Degraded: true,
		ShownAt:  now,
		Expires:  now.Add(DefaultAlertDuration),
	})
}

// wireSink defeats dead-code elimination of the wire-work loop.
var wireSink uint64

// wire burns the simulated per-request transport cost. It must be
// called outside s.mu.
func (s *Server) wire() {
	if s.cfg.WireWork <= 0 {
		return
	}
	var sum uint64
	for i := 0; i < s.cfg.WireWork*1024; i++ {
		sum = sum*1099511628211 + uint64(i)
	}
	wireSink = sum
}

// StatsSnapshot returns a copy of the counters.
func (s *Server) StatsSnapshot() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Connect attaches a new client. pid is the client process's PID; in
// the real system the server resolves it from the client socket via the
// kernel, so it is unforgeable — callers here are trusted test harness
// code standing in for that machinery.
func (s *Server) Connect(pid int, name string) (*Client, error) {
	if name == "" {
		return nil, errors.New("xserver: empty client name")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	c := &Client{srv: s, conn: s.nextConn, pid: pid, name: name}
	s.clients[s.nextConn] = c
	s.nextConn++
	return c, nil
}

// lookupWindow returns the window or ErrBadWindow. Requires s.mu held.
func (s *Server) lookupWindow(id WindowID) (*window, error) {
	w, ok := s.windows[id]
	if !ok {
		return nil, fmt.Errorf("window %d: %w", id, ErrBadWindow)
	}
	return w, nil
}

// raise moves id to the top of the stacking order. Requires s.mu held.
func (s *Server) raise(id WindowID) {
	for i, wid := range s.stacking {
		if wid == id {
			s.stacking = append(s.stacking[:i], s.stacking[i+1:]...)
			break
		}
	}
	s.stacking = append(s.stacking, id)
}

// topWindowAt returns the topmost mapped window containing (x, y).
// Requires s.mu held.
func (s *Server) topWindowAt(x, y int) *window {
	for i := len(s.stacking) - 1; i >= 0; i-- {
		w := s.windows[s.stacking[i]]
		if w == nil || !w.mapped {
			continue
		}
		if x >= w.x && x < w.x+w.w && y >= w.y && y < w.y+w.h {
			return w
		}
	}
	return nil
}

// visibleLongEnough reports whether w has been mapped at least the
// visibility threshold. Requires s.mu held.
func (s *Server) visibleLongEnough(w *window, now time.Time) bool {
	if !w.mapped {
		return false
	}
	return now.Sub(w.mappedAt) >= s.cfg.VisibilityThreshold
}

// obscured reports whether w's centre is covered by a different window
// higher in the stacking order. A fully covered focus window must not
// mint interactions: the user cannot see what they are typing into
// (S3). Requires s.mu held.
func (s *Server) obscured(w *window) bool {
	cx, cy := w.x+w.w/2, w.y+w.h/2
	top := s.topWindowAt(cx, cy)
	return top != nil && top != w
}

// WindowIDs returns all window ids in stacking order (bottom to top).
func (s *Server) WindowIDs() []WindowID {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]WindowID, len(s.stacking))
	copy(out, s.stacking)
	return out
}

// ClientNames returns connected client names, sorted (diagnostics).
func (s *Server) ClientNames() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.clients))
	for _, c := range s.clients {
		out = append(out, c.name)
	}
	sort.Strings(out)
	return out
}
