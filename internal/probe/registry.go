package probe

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// The fixed attach-point vocabulary. Each name is compiled into one
// hot path; the Registry creates all of them up front so subsystems
// can resolve their hooks once at construction time.
const (
	// HookKernelOpen fires in the kernel's augmented open(2) for every
	// open that passes UNIX permission checks, with the mediation
	// outcome (grant/deny for sensitive devices, none otherwise).
	HookKernelOpen = "kernel.open"
	// HookKernelDecide fires for every permission decision record —
	// monitor decisions and externally-recorded fail-closed denials —
	// with full decision metadata. Its event stream is byte-equivalent
	// to the audit ring (the probe ≡ audit oracle property).
	HookKernelDecide = "kernel.decide"
	// HookMonitorEvaluate spans a monitor decision: it begins once the
	// pure policy rule (monitor.Policy.Evaluate) has produced a verdict
	// inside Decide, and ends when the decision (alert included) is
	// done.
	HookMonitorEvaluate = "monitor.evaluate"
	// HookXServerInput fires for authentic hardware input dispatched
	// to a window (clicks and keys; synthetic input never fires it).
	HookXServerInput = "xserver.input"
	// HookNetlinkSend fires per kernel→user channel message.
	HookNetlinkSend = "netlink.send"
	// HookNetlinkRecv fires per user→kernel channel message.
	HookNetlinkRecv = "netlink.recv"
	// HookFleetDispatch fires per fleet ingress request routed to a
	// session, with the session ID and (for decides) the verdict.
	HookFleetDispatch = "fleet.dispatch"
	// HookMonitorNotify spans the monitor's interaction-stamp write.
	HookMonitorNotify = "monitor.notify"
	// HookXServerNotify spans an interaction notification the display
	// server sends for authentic input.
	HookXServerNotify = "xserver.notify"
	// HookXServerQuery spans a permission query the display server
	// sends (clipboard, screen capture).
	HookXServerQuery = "xserver.query"
	// HookXServerAlert spans a kernel-requested trusted alert and fires
	// for every alert the overlay draws.
	HookXServerAlert = "xserver.alert"
	// HookNetlinkCall spans each display-server channel call: the
	// notify, query and alert round trips.
	HookNetlinkCall = "netlink.call"
	// HookFault fires for every injected fault a trust seam observes.
	HookFault = "system.fault"
	// HookDegrade fires when protection degrades: the monitor going
	// fail-closed, the display server losing its channel, or a checker
	// catching an invariant violation.
	HookDegrade = "system.degrade"
	// HookRecover fires when degraded protection is restored.
	HookRecover = "system.recover"
)

// hookNames is the vocabulary in stable display order.
var hookNames = []string{
	HookKernelOpen,
	HookKernelDecide,
	HookMonitorEvaluate,
	HookXServerInput,
	HookNetlinkSend,
	HookNetlinkRecv,
	HookFleetDispatch,
	HookMonitorNotify,
	HookXServerNotify,
	HookXServerQuery,
	HookXServerAlert,
	HookNetlinkCall,
	HookFault,
	HookDegrade,
	HookRecover,
}

// HookNames returns the attach-point vocabulary in stable order.
func HookNames() []string {
	out := make([]string, len(hookNames))
	copy(out, hookNames)
	return out
}

// KnownHook reports whether name is in the attach-point vocabulary.
func KnownHook(name string) bool {
	for _, n := range hookNames {
		if n == name {
			return true
		}
	}
	return false
}

// Probe is one attached predicate + sink pair.
type Probe struct {
	id      uint64
	spec    Spec
	ring    *Ring
	hooks   []string // attach-point names, in vocabulary order
	matched atomic.Uint64
}

// ID returns the registry-assigned probe ID.
func (p *Probe) ID() uint64 { return p.id }

// Spec returns the compiled predicate.
func (p *Probe) Spec() Spec { return p.spec }

// Ring returns the probe's event sink.
func (p *Probe) Ring() *Ring { return p.ring }

// Matched returns how many events satisfied the predicate (published
// plus dropped at the ring).
func (p *Probe) Matched() uint64 { return p.matched.Load() }

// Hooks returns the attach-point names the probe is bound to.
func (p *Probe) Hooks() []string {
	out := make([]string, len(p.hooks))
	copy(out, p.hooks)
	return out
}

// Info is the List view of one attached probe.
type Info struct {
	ID      uint64   `json:"id"`
	Spec    string   `json:"spec"`
	Hooks   []string `json:"hooks"`
	Matched uint64   `json:"matched"`
	Dropped uint64   `json:"dropped"`
}

// Registry owns the fixed hook set, the span ID counters, and the
// attach/detach surface. One registry instruments one system; passing
// it through the subsystem configs (monitor.Config.Probes,
// core.Options.Probes, ...) wires its hooks into the hot paths. Safe
// for concurrent use; attach/detach are copy-on-write swaps, so
// in-flight emissions always see a consistent snapshot.
type Registry struct {
	mu     sync.Mutex
	hooks  map[string]*Hook
	probes map[uint64]*Probe
	nextID uint64

	// traces and spans are the last trace and span IDs minted.
	traces, spans atomic.Uint64
}

// mint allocates the context of a span beginning under parent.
func (r *Registry) mint(parent SpanContext) SpanContext {
	ctx := SpanContext{Trace: parent.Trace, Span: SpanID(r.spans.Add(1))}
	if ctx.Trace == 0 {
		ctx.Trace = TraceID(r.traces.Add(1))
	}
	return ctx
}

// NewRegistry creates a registry with the full attach-point
// vocabulary, all hooks unarmed.
func NewRegistry() *Registry {
	r := &Registry{
		hooks:  make(map[string]*Hook, len(hookNames)),
		probes: make(map[uint64]*Probe),
	}
	for _, name := range hookNames {
		r.hooks[name] = &Hook{name: name, reg: r}
	}
	return r
}

// Hook resolves an attach point by name. Nil-safe: a nil registry (the
// uninstrumented default) and an unknown name both return a nil hook,
// which is never armed — so subsystems resolve unconditionally.
func (r *Registry) Hook(name string) *Hook {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.hooks[name]
}

// Attach binds a probe: events at the spec's hook (all hooks when
// spec.Hook is empty) that match the spec are published to ring.
func (r *Registry) Attach(spec Spec, ring *Ring) (*Probe, error) {
	if r == nil {
		return nil, fmt.Errorf("probe: attach on nil registry")
	}
	if ring == nil {
		return nil, fmt.Errorf("probe: attach with nil ring")
	}
	targets := hookNames
	if spec.Hook != "" {
		if !KnownHook(spec.Hook) {
			return nil, fmt.Errorf("probe: unknown hook %q", spec.Hook)
		}
		targets = []string{spec.Hook}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextID++
	p := &Probe{id: r.nextID, spec: spec, ring: ring}
	p.hooks = append(p.hooks, targets...)
	for _, name := range targets {
		h := r.hooks[name]
		h.probes = append(h.probes[:len(h.probes):len(h.probes)], p)
		h.rebuild()
	}
	r.probes[p.id] = p
	return p, nil
}

// AttachConsumer feeds c every event at the named hooks, inline in
// Emit, for the life of the registry.
func (r *Registry) AttachConsumer(c Consumer, hooks ...string) error {
	if r == nil {
		return fmt.Errorf("probe: attach on nil registry")
	}
	for _, name := range hooks {
		if !KnownHook(name) {
			return fmt.Errorf("probe: unknown hook %q", name)
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, name := range hooks {
		h := r.hooks[name]
		h.consumers = append(h.consumers[:len(h.consumers):len(h.consumers)], c)
		h.rebuild()
	}
	return nil
}

// AttachSpec parses a textual spec and attaches it.
func (r *Registry) AttachSpec(text string, ring *Ring) (*Probe, error) {
	spec, err := ParseSpec(text)
	if err != nil {
		return nil, err
	}
	return r.Attach(spec, ring)
}

// Detach unbinds a probe from every hook it was attached to. Emissions
// in flight may still publish to its ring; after Detach returns, new
// emissions no longer see it.
func (r *Registry) Detach(id uint64) error {
	if r == nil {
		return fmt.Errorf("probe: detach on nil registry")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	p, ok := r.probes[id]
	if !ok {
		return fmt.Errorf("probe: no probe with id %d", id)
	}
	delete(r.probes, id)
	for _, name := range p.hooks {
		h := r.hooks[name]
		for i, q := range h.probes {
			if q == p {
				h.probes = append(h.probes[:i:i], h.probes[i+1:]...)
				break
			}
		}
		h.rebuild()
	}
	return nil
}

// List snapshots the attached probes, ordered by ID.
func (r *Registry) List() []Info {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Info, 0, len(r.probes))
	for _, p := range r.probes {
		out = append(out, Info{
			ID:      p.id,
			Spec:    p.spec.String(),
			Hooks:   p.Hooks(),
			Matched: p.Matched(),
			Dropped: p.ring.Dropped(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
