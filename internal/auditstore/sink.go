package auditstore

import (
	"sync"
	"sync/atomic"

	"overhaul/internal/monitor"
)

// Tail incrementally mirrors a decision stream (the monitor's audit
// log, a fleet session's ring) into a store: each Sync appends every
// decision past the cursor. It is how the chaos runner keeps its
// durable trail in step with the in-memory audit between steps.
type Tail struct {
	mu      sync.Mutex
	st      *FileStore
	session uint64
	cursor  int
}

// NewTail builds a tail over st, stamping every record with the given
// session id. The cursor starts at the store's current record count,
// so a tail over a freshly reopened store resumes exactly where the
// recovered prefix ends.
func NewTail(st *FileStore, session uint64) (*Tail, error) {
	n, err := st.Count()
	if err != nil {
		return nil, err
	}
	return &Tail{st: st, session: session, cursor: n}, nil
}

// Cursor returns how many stream decisions have been durably appended.
func (t *Tail) Cursor() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.cursor
}

// Sync appends stream[cursor:] to the store and advances the cursor
// per record appended. On a store failure it returns the number
// appended before the failure and the error; the cursor stays
// consistent, so a Rebind to a reopened store resumes cleanly.
func (t *Tail) Sync(stream []monitor.Decision) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	appended := 0
	for t.cursor < len(stream) {
		if _, err := t.st.Append(FromDecision(stream[t.cursor], t.session)); err != nil {
			return appended, err
		}
		t.cursor++
		appended++
	}
	return appended, nil
}

// Rebind points the tail at a (typically reopened) store and re-anchors
// the cursor at its recovered record count: decisions the crash lost
// are re-appended by the next Sync, decisions that survived are not
// duplicated.
func (t *Tail) Rebind(st *FileStore) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	n, err := st.Count()
	if err != nil {
		return err
	}
	t.st = st
	t.cursor = n
	return nil
}

// SinkStats counts what a BatchSink did — most importantly the appends
// that failed, because the sink itself swallows errors (an audit
// callback inside the decision path must never block or fail the
// decision).
type SinkStats struct {
	Appends atomic.Uint64
	Errors  atomic.Uint64
}

// BatchAppender is what a BatchSink writes to: commit a contiguous run
// of records with one durable acknowledgement. *FileStore implements
// it with its group commit; a wrapper that times or counts the commits
// may embed the store and override AppendBatch.
type BatchAppender interface {
	AppendBatch([]Record) (uint64, error)
}

// BatchSink buffers a session's decisions and commits them in batches:
// the durable-ack wait is paid once per batch instead of once per
// decision, which is what lets a thousand sessions share one store at
// load-generator rates. Decisions are appended to the store in sink
// order; a batch is cut when the buffer reaches its limit, and Flush
// cuts whatever is pending (call it before reading the store or
// exiting). A limit of 1 appends every decision durably as it happens.
// Errors are counted in stats (nil for "don't care"), never returned
// into the decision path — a failed flush counts every record of the
// batch in stats.Errors as a dropped acknowledgement (the batch commits
// atomically, so none was acknowledged), keeping the store's
// fail-closed state observable.
type BatchSink struct {
	mu      sync.Mutex
	st      BatchAppender
	session uint64
	limit   int
	buf     []Record
	stats   *SinkStats
}

// NewBatchSink builds a batching sink over st for one session. limit
// is the records-per-flush bound (values < 1 mean 1: degenerate to
// per-decision appends).
func NewBatchSink(st BatchAppender, session uint64, limit int, stats *SinkStats) *BatchSink {
	if limit < 1 {
		limit = 1
	}
	return &BatchSink{st: st, session: session, limit: limit, stats: stats,
		buf: make([]Record, 0, limit)}
}

// Sink returns the fleet.Session.SetAuditSink callback.
func (b *BatchSink) Sink() func(monitor.Decision) {
	return func(d monitor.Decision) {
		b.mu.Lock()
		b.buf = append(b.buf, FromDecision(d, b.session))
		if len(b.buf) >= b.limit {
			b.flushLocked()
		}
		b.mu.Unlock()
	}
}

// Flush commits any buffered decisions now.
func (b *BatchSink) Flush() {
	b.mu.Lock()
	if len(b.buf) > 0 {
		b.flushLocked()
	}
	b.mu.Unlock()
}

func (b *BatchSink) flushLocked() {
	n := uint64(len(b.buf))
	_, err := b.st.AppendBatch(b.buf)
	b.buf = b.buf[:0]
	if b.stats != nil {
		b.stats.Appends.Add(n)
		if err != nil {
			b.stats.Errors.Add(n)
		}
	}
}
