package telemetry

import (
	"sort"
	"strconv"
	"time"

	"overhaul/internal/probe"
)

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// maxSpanAttrs bounds per-span annotations. Fixed-size storage keeps
// annotation allocation-free; the decision span uses four and no span
// uses more.
const maxSpanAttrs = 6

// attr is fixed-size annotation storage. Integer values are kept as
// numbers and rendered only when the span is snapshot, so annotating a
// pid costs no strconv allocation on the hot path.
type attr struct {
	key   string
	str   string
	num   int64
	isNum bool
}

func strAttr(key, value string) attr       { return attr{key: key, str: value} }
func numAttr(key string, value int64) attr { return attr{key: key, num: value, isNum: true} }

// spanRec is one retained span.
type spanRec struct {
	ctx       probe.SpanContext
	parent    probe.SpanID
	subsystem string
	name      string
	start     time.Time
	end       int64 // unix nanos; 0 = still open
	nattrs    int
	attrs     [maxSpanAttrs]attr
}

// annotate appends attrs, dropping any beyond maxSpanAttrs.
func (s *spanRec) annotate(attrs []attr) {
	s.nattrs += copy(s.attrs[s.nattrs:], attrs)
}

// tracerStore is the span ring. Span IDs are dense per registry, so
// span id lives at ring[(id-1)%len(ring)]: a begin evicts whatever
// older span held its slot, and an end finds its span without a
// search.
type tracerStore struct {
	ring    []spanRec // allocated on first use
	newest  probe.SpanID
	dropped uint64
}

func (t *tracerStore) slot(id probe.SpanID) *spanRec {
	return &t.ring[uint64(id-1)%uint64(len(t.ring))]
}

// beginSpan opens the record of the span ev begins. Like endSpan, it
// requires r.mu held.
func (r *Recorder) beginSpan(ev *probe.Event, subsystem, name string, attrs ...attr) {
	t := &r.tracer
	if t.ring == nil {
		t.ring = make([]spanRec, r.spanCap)
	}
	s := t.slot(ev.Ctx.Span)
	if s.ctx.Span != 0 {
		// Drop-oldest keeps the recorder bounded; the drop is counted so
		// a truncated trace is distinguishable from a complete one.
		t.dropped++
	}
	// Field by field: the attrs past nattrs are dead, so zeroing them
	// would be wasted work on every span.
	s.ctx, s.parent, s.subsystem, s.name, s.start, s.end, s.nattrs = ev.Ctx, ev.Parent, subsystem, name, r.now(), 0, 0
	s.annotate(attrs)
	t.newest = max(t.newest, ev.Ctx.Span)
}

// endSpan closes the span ev ends at the recorder's current instant,
// appending attrs; ending twice keeps the first end time. A span
// already evicted is gone.
func (r *Recorder) endSpan(ev *probe.Event, attrs ...attr) {
	n := r.now().UnixNano()
	r.lastEnd = n
	if t := &r.tracer; t.ring != nil {
		if s := t.slot(ev.Ctx.Span); s.ctx.Span == ev.Ctx.Span {
			s.annotate(attrs)
			if s.end == 0 {
				s.end = n
			}
		}
	}
}

// SpanRecord is the immutable snapshot form of a span.
type SpanRecord struct {
	Trace     probe.TraceID `json:"trace"`
	ID        probe.SpanID  `json:"id"`
	Parent    probe.SpanID  `json:"parent,omitempty"`
	Subsystem string        `json:"subsystem"`
	Name      string        `json:"name"`
	Start     time.Time     `json:"start"`
	End       time.Time     `json:"end,omitempty"`
	Ended     bool          `json:"ended"`
	Attrs     []Attr        `json:"attrs,omitempty"`
}

// record snapshots one span.
func (s *spanRec) record() SpanRecord {
	rec := SpanRecord{
		Trace:     s.ctx.Trace,
		ID:        s.ctx.Span,
		Parent:    s.parent,
		Subsystem: s.subsystem,
		Name:      s.name,
		Start:     s.start,
	}
	if s.nattrs > 0 {
		rec.Attrs = make([]Attr, s.nattrs)
		for i, a := range s.attrs[:s.nattrs] {
			v := a.str
			if a.isNum {
				v = strconv.FormatInt(a.num, 10)
			}
			rec.Attrs[i] = Attr{Key: a.key, Value: v}
		}
	}
	if s.end != 0 {
		rec.End = time.Unix(0, s.end).UTC()
		rec.Ended = true
	}
	return rec
}

// spans appends a record for every retained span matching keep, in
// begin order.
func (r *Recorder) spans(keep func(*spanRec) bool) []SpanRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	t := &r.tracer
	out := []SpanRecord{}
	lo := probe.SpanID(1)
	if t.newest > probe.SpanID(r.spanCap) {
		lo = t.newest - probe.SpanID(r.spanCap) + 1
	}
	for id := lo; id <= t.newest; id++ {
		if s := t.slot(id); s.ctx.Span == id && (keep == nil || keep(s)) {
			out = append(out, s.record())
		}
	}
	return out
}

// Spans returns every retained span in begin order.
func (r *Recorder) Spans() []SpanRecord {
	if r == nil {
		return nil
	}
	return r.spans(nil)
}

// SpansDropped reports how many spans were evicted by the bound.
func (r *Recorder) SpansDropped() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.tracer.dropped
}

// TraceOf resolves the trace a retained span belongs to.
func (r *Recorder) TraceOf(id probe.SpanID) (probe.TraceID, bool) {
	if r == nil || id == 0 {
		return 0, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	t := &r.tracer
	if t.ring == nil {
		return 0, false
	}
	if s := t.slot(id); s.ctx.Span == id {
		return s.ctx.Trace, true
	}
	return 0, false
}

// TraceSpans returns the retained spans of one trace, in begin order
// (which is also causal order: parents begin before their children).
func (r *Recorder) TraceSpans(tr probe.TraceID) []SpanRecord {
	if r == nil {
		return nil
	}
	out := r.spans(func(s *spanRec) bool { return s.ctx.Trace == tr })
	if len(out) == 0 {
		return nil
	}
	return out
}

// Subsystems returns the distinct subsystems appearing in the given
// records, sorted (diagnostics and acceptance checks).
func Subsystems(spans []SpanRecord) []string {
	seen := make(map[string]bool)
	var out []string
	for _, s := range spans {
		if !seen[s.Subsystem] {
			seen[s.Subsystem] = true
			out = append(out, s.Subsystem)
		}
	}
	sort.Strings(out)
	return out
}
