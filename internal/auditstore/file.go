package auditstore

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"

	"overhaul/internal/faultinject"
)

// Options parameterises a FileStore.
type Options struct {
	// SegmentRecords rotates the active segment after this many
	// records. Every rotation footers and closes a file and creates the
	// next, inside the serialized commit, so small segments tax every
	// append; see DefaultSegmentRecords for the measured size. Zero
	// selects DefaultSegmentRecords.
	SegmentRecords int
	// BatchRecords caps how many queued appends one group commit may
	// drain into a single segment write. Zero selects
	// DefaultBatchRecords.
	BatchRecords int
	// BatchBytes caps the encoded size of one group-commit batch.
	// Zero selects DefaultBatchBytes.
	BatchBytes int
	// Hook is the fault-injection hook consulted at every write seam
	// (append, batch commit, rotation). Nil never injects.
	// Recovery (Open) runs fault-free by construction: reopening is the
	// repair path, and a repair path that can be re-broken mid-repair
	// would turn every injected crash into an unbounded crash loop.
	Hook faultinject.Hook
	// Sync fsyncs segment data when a segment is sealed at rotation,
	// when recovery's normalization publishes one, and at Close.
	// Without it an acknowledged append has reached the kernel, so it
	// survives a crash of this process but not a power loss or a
	// kernel crash.
	Sync bool
}

// Defaults for Options.
const (
	// DefaultSegmentRecords is the knee of a fleet-storm sweep (2
	// vCPUs, 100k-event trials from an empty store; EXPERIMENTS.md,
	// "audit-store segment size"): throughput rose from 256 records
	// (~16 KB segments) through 1,024 and 2,048 to 4,096, and no
	// further at 8,192.
	DefaultSegmentRecords = 4096
	DefaultBatchRecords   = 256
	DefaultBatchBytes     = 1 << 20
)

// Recovery reports what Open found and did. A store that came back
// with anything other than a clean, contiguous, CRC-verified stream
// says so here — never a silent gap.
type Recovery struct {
	// Segments is the number of segment files scanned.
	Segments int
	// Records is the size of the recovered consistent prefix.
	Records int
	// LastSeq is the last sequence number in the recovered prefix.
	LastSeq uint64
	// Clean reports a perfectly ordinary open: contiguous stream, no
	// torn bytes, no leftovers.
	Clean bool
	// Truncated reports that data present in the directory was
	// discarded: a damaged frame or a record beyond a sequence gap. A
	// damaged copy whose sequences an intact copy supplied is reported
	// too, though it costs no records.
	Truncated bool
	// TruncatedFile and TruncatedOffset locate the first discarded
	// byte when Truncated.
	TruncatedFile   string
	TruncatedOffset int
	// Reason says what was wrong there ("" when clean).
	Reason string
	// DroppedRecords counts decodable records discarded (beyond a
	// sequence gap); DroppedBytes counts undecodable tail bytes.
	DroppedRecords int
	DroppedBytes   int
	// RemovedFiles lists tmp leftovers and damaged or duplicate
	// segments that normalization rewrote away.
	RemovedFiles []string
}

// FileStore is the audit store: an append-only binary segment log with
// an in-memory index in front of it that answers every query. Concurrent
// appends are group-committed: callers enqueue under the store mutex,
// the first-comer becomes the commit leader and drains the queue into
// one framed segment write per batch, and an append is acknowledged
// only when its batch is durable. Writes go to the segment first and
// the index second, so the index only ever reflects durable records.
// After a torn write or an injected crash every operation fails with
// ErrStoreFailed until the directory is reopened: Open replays the
// segments to a consistent, CRC-verified prefix and reports the exact
// truncation point. It is safe for concurrent use.
type FileStore struct {
	// mu guards the queue/acknowledgement state below and the Recovery
	// report; commitDone is signalled on batch durability, failure,
	// and leadership release.
	mu         sync.Mutex
	commitDone sync.Cond
	queue      []Record
	lastSeq    uint64 // last assigned sequence number
	durableSeq uint64 // last durably committed sequence number
	committing bool   // a commit leader (or exclusive op) owns the file state
	failed     error
	closed     bool
	stats      BatchStats

	dir      string
	opts     Options
	idx      *index
	recovery Recovery

	// File state below is owned by whichever goroutine holds
	// committing (the group-commit leader, Close) and by Open before
	// the store is published — never accessed under mu alone.
	cur       *os.File
	curID     uint64
	curRecs   int
	curOff    uint64       // bytes written to the active segment
	curIdx    []blockEntry // sparse block index of the active segment
	curMax    int64        // max record-time nanos seen in the active segment
	sealed    int          // sealed segment files
	nextID    uint64
	enc       FrameEncoder
	wbuf      []byte // reusable batch write buffer
	frameOffs []int  // reusable per-batch frame offsets into wbuf
	batch     []Record
}

// Open opens (creating if needed) a store directory, recovering it to
// a consistent state: tmp leftovers are discarded and the segments are
// merged into the longest contiguous, CRC-verified prefix (see merger;
// ScanSegments reads a directory through the same merge). A v1 JSONL
// segment in the directory fails the open, naming the file.
// When anything had to be discarded, the surviving prefix is rewritten
// into a fresh segment and the damaged files removed, so a second open
// is clean; the Recovery report (FileStore.Recovery) records exactly
// what was found.
func Open(dir string, opts Options) (*FileStore, error) {
	if opts.SegmentRecords == 0 {
		opts.SegmentRecords = DefaultSegmentRecords
	}
	if opts.SegmentRecords < 0 {
		return nil, fmt.Errorf("auditstore: negative segment size %d", opts.SegmentRecords)
	}
	if opts.BatchRecords <= 0 {
		opts.BatchRecords = DefaultBatchRecords
	}
	if opts.BatchBytes <= 0 {
		opts.BatchBytes = DefaultBatchBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("auditstore: open %s: %w", dir, err)
	}
	fs := &FileStore{dir: dir, opts: opts, idx: newIndex(), nextID: 1, curMax: math.MinInt64}
	fs.commitDone.L = &fs.mu
	if err := fs.recover(); err != nil {
		return nil, err
	}
	fs.lastSeq = fs.idx.lastSeq()
	fs.durableSeq = fs.lastSeq
	return fs, nil
}

// Dir returns the store directory. dir is immutable after Open, but
// taking the lock keeps the guarded-field contract uniform.
func (fs *FileStore) Dir() string {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.dir
}

// Recovery returns the report of the Open that produced this store.
func (fs *FileStore) Recovery() Recovery {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.recovery
}

// segPath renders the segment file path for a file id.
func (fs *FileStore) segPath(id uint64) string {
	return filepath.Join(fs.dir, fmt.Sprintf("%s%08x%s", segPrefix, id, segSuffix))
}

// recover reads the directory through the segment merge and rebuilds
// a consistent store state.
func (fs *FileStore) recover() error {
	segs, tmps, err := loadSegments(fs.dir, nil)
	if err != nil {
		return fmt.Errorf("auditstore: recover %s: %w", fs.dir, err)
	}
	rec := &fs.recovery
	for _, name := range tmps {
		// A crashed staging write: its contents were never part of the
		// published stream.
		if err := os.Remove(filepath.Join(fs.dir, name)); err != nil {
			return fmt.Errorf("auditstore: recover %s: %w", fs.dir, err)
		}
		rec.RemovedFiles = append(rec.RemovedFiles, name)
	}
	rec.Segments = len(segs)
	for _, s := range segs {
		if s.id >= fs.nextID {
			fs.nextID = s.id + 1
		}
	}

	// The walk only picks the runs; the index takes them in one pass.
	var m merger
	var runs []run
	m.walk(segs, func(f *frames, from, to int) bool {
		runs = append(runs, run{f: f, from: from, to: to})
		return true
	})
	fs.idx.load(runs)
	rec.DroppedBytes = m.droppedBytes
	for _, s := range segs[m.stop:] {
		// Beyond the end of the stream: whatever these hold is lost.
		rec.DroppedRecords += len(s.frames.ents)
		if t := s.frames.trunc; t != nil {
			rec.DroppedBytes += s.size - t.Offset
		}
	}
	rec.Truncated = m.reason != ""
	rec.TruncatedFile, rec.TruncatedOffset, rec.Reason = m.file, m.offset, m.reason
	rec.Records = fs.idx.count()
	rec.LastSeq = fs.idx.lastSeq()

	anomaly := len(tmps) > 0 || m.overlap || rec.Truncated
	for _, s := range segs {
		if s.count == 0 && s.frames.trunc == nil && s.id < fs.nextID-1 {
			// An empty segment that is not the newest file: a crash
			// window between creating the active file and first writing
			// to it, later superseded. Harmless, but normalize it away.
			// It is judged by file id, not merge position: empty
			// segments sort last in the merge whatever their id.
			anomaly = true
		}
	}
	rec.Clean = !anomaly
	if anomaly {
		return fs.normalize(segs)
	}
	// Clean open: adopt the layout as it stands. The newest segment
	// stays active if it is unsealed (no footer); everything else is
	// sealed. A full active segment is left for the next commit to
	// rotate.
	fs.sealed = len(segs)
	if len(segs) > 0 && segs[len(segs)-1].footer == nil {
		s := segs[len(segs)-1]
		f, err := os.OpenFile(filepath.Join(fs.dir, s.name), os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("auditstore: recover %s: %w", fs.dir, err)
		}
		fs.sealed--
		fs.cur, fs.curID, fs.curRecs = f, s.id, s.count
		fs.curOff = uint64(s.size)
		fs.curIdx, fs.curMax = s.frames.blocks, s.maxT
	}
	return nil
}

// normalize rewrites the recovered prefix into one fresh segment and
// removes every older file, so the directory decodes cleanly next
// time. It publishes the fresh segment before removing anything, so a
// crash in between leaves it beside its sources, which the next open
// reads past as duplicates and normalizes again. Runs fault-free (see
// Options.Hook).
func (fs *FileStore) normalize(old []*segment) error {
	if fs.idx.count() > 0 {
		path := fs.segPath(fs.nextID)
		fs.nextID++
		buf, err := fs.encodeAll()
		if err == nil {
			err = fs.writeSegment(path, buf)
		}
		if err != nil {
			return fmt.Errorf("auditstore: normalize %s: %w", fs.dir, err)
		}
		fs.sealed++
	}
	for _, s := range old {
		if err := os.Remove(filepath.Join(fs.dir, s.name)); err != nil {
			return fmt.Errorf("auditstore: normalize %s: %w", fs.dir, err)
		}
		fs.recovery.RemovedFiles = append(fs.recovery.RemovedFiles, s.name)
	}
	return nil
}

// encodeAll renders every indexed record as one complete sealed v2
// segment (header, frames, footer with block index) in memory,
// building each Record from its entry and kind-table tuple as it
// encodes it. Only recovery's normalization uses it; the append hot
// path streams through the reusable group-commit buffers instead. The
// buffer is sized once up front, so it is allocated once instead of
// growing and copying as it fills.
func (fs *FileStore) encodeAll() ([]byte, error) {
	v := fs.idx.snapshot()
	size := len(segMagicV2) + footerSize(v.n/indexEvery+2)
	for i := range v.n {
		k := &v.kinds[v.at(i).kind]
		size += estimateSize(&Record{Op: k.op, Verdict: k.verdict, Reason: k.reason})
	}
	buf := append(make([]byte, 0, size), segMagicV2...)
	var enc FrameEncoder
	entries := make([]blockEntry, 0, v.n/indexEvery+2)
	maxSoFar := int64(math.MinInt64)
	var r Record
	var err error
	for i := range v.n {
		if i%indexEvery == 0 {
			entries = append(entries, blockEntry{seq: v.base + uint64(i), off: uint64(len(buf)), maxBefore: maxSoFar})
		}
		v.fill(i, &r)
		if buf, err = enc.AppendRecord(buf, &r); err != nil {
			return nil, fmt.Errorf("segment stage: %w", err)
		}
		// A zero time is noTime, the maximum's floor, so it never raises it.
		maxSoFar = max(maxSoFar, v.at(i).time)
	}
	entries = append(entries, blockEntry{seq: v.base + uint64(v.n), off: uint64(len(buf)), maxBefore: maxSoFar})
	return appendFooter(buf, entries), nil
}

// writeSegment publishes a complete segment at path: stage it into a
// tmp file, fsync (with Options.Sync), and rename. A crash before the
// rename leaves a tmp leftover that recovery discards.
func (fs *FileStore) writeSegment(path string, buf []byte) error {
	tmp := path + tmpSuffix
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("stage: %w", err)
	}
	if _, err := f.Write(buf); err != nil {
		f.Close() //overhaul:allow errdrop best-effort close before reporting the write failure
		return fmt.Errorf("stage: %w", err)
	}
	if fs.opts.Sync {
		if err := f.Sync(); err != nil {
			f.Close() //overhaul:allow errdrop best-effort close before reporting the sync failure
			return fmt.Errorf("sync: %w", err)
		}
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("stage: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("rename: %w", err)
	}
	return nil
}

// failLocked marks the store broken. Every later operation repeats the
// failure until the directory is reopened. Callers hold mu and own the
// file state (they are the commit leader or an exclusive op), so
// releasing the active handle here is race-free.
func (fs *FileStore) failLocked(cause error) error {
	fs.failed = fmt.Errorf("%w: %v", ErrStoreFailed, cause)
	if fs.cur != nil {
		fs.cur.Close() //overhaul:allow errdrop the store is already failed; the handle is released best-effort
		fs.cur = nil
	}
	return fs.failed
}

// checkLocked returns the standing failure, if any.
func (fs *FileStore) checkLocked() error {
	if fs.closed {
		return ErrClosed
	}
	return fs.failed
}

// check is checkLocked for callers that do not hold mu.
func (fs *FileStore) check() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.checkLocked()
}

// openActive creates a fresh active segment file and writes its
// header. Leader-owned.
func (fs *FileStore) openActive() error {
	id := fs.nextID
	path := fs.segPath(id)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("create segment: %w", err)
	}
	if _, err := f.WriteString(segMagicV2); err != nil {
		f.Close() //overhaul:allow errdrop best-effort close before reporting the header write failure
		return fmt.Errorf("segment header: %w", err)
	}
	fs.nextID++
	fs.cur, fs.curID, fs.curRecs = f, id, 0
	fs.curOff = uint64(len(segMagicV2))
	fs.curIdx = fs.curIdx[:0]
	fs.curMax = math.MinInt64
	return nil
}

// sealActive writes the active segment's footer (block index plus
// sentinel entry) and closes it, counting it as sealed. Leader-owned.
func (fs *FileStore) sealActive() error {
	entries := append(fs.curIdx, blockEntry{seq: fs.idx.lastSeq() + 1, off: fs.curOff, maxBefore: fs.curMax})
	fs.wbuf = appendFooter(fs.wbuf[:0], entries)
	if _, err := fs.cur.Write(fs.wbuf); err != nil {
		return fmt.Errorf("seal footer: %w", err)
	}
	if fs.opts.Sync {
		if err := fs.cur.Sync(); err != nil {
			return fmt.Errorf("seal sync: %w", err)
		}
	}
	if err := fs.cur.Close(); err != nil {
		return fmt.Errorf("seal close: %w", err)
	}
	fs.sealed++
	fs.cur, fs.curRecs = nil, 0
	fs.curIdx = fs.curIdx[:0]
	return nil
}

// rotateSeg seals the active segment and opens a fresh one, evaluating
// the crash fault point at each protocol window (before and after the
// seal). A sealed segment is never written again. Leader-owned.
func (fs *FileStore) rotateSeg() error {
	if f := faultinject.Eval(fs.opts.Hook, faultinject.PointStoreRotate); f.Injected() {
		return fmt.Errorf("rotate (pre-seal): %w", f.Err)
	}
	if err := fs.sealActive(); err != nil {
		return fmt.Errorf("rotate: %w", err)
	}
	if f := faultinject.Eval(fs.opts.Hook, faultinject.PointStoreRotate); f.Injected() {
		return fmt.Errorf("rotate (post-seal): %w", f.Err)
	}
	return fs.openActive()
}

// SegmentCount returns (sealed, active) segment counts — observability
// for tests and the dashboard. It waits out any in-flight commit so
// the counts are a consistent snapshot.
func (fs *FileStore) SegmentCount() (sealed int, active int) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	for fs.committing {
		fs.commitDone.Wait()
	}
	sealed = fs.sealed
	if fs.cur != nil {
		active = 1
	}
	return sealed, active
}

// Get returns the record with the given sequence number; ok is false
// if it is not in the store. Reads fail too once the store failed: a
// store that cannot vouch for its tail must not answer as if it could.
func (fs *FileStore) Get(seq uint64) (Record, bool, error) {
	if err := fs.check(); err != nil {
		return Record{}, false, err
	}
	r, ok := fs.idx.get(seq)
	return r, ok, nil
}

// Scan yields every durable record matching q in ascending sequence
// order until the query is exhausted or yield returns false.
func (fs *FileStore) Scan(q Query, yield func(Record) bool) error {
	if err := fs.check(); err != nil {
		return err
	}
	fs.idx.scan(q, yield)
	return nil
}

// Iter returns a streaming scan over the durable records: an Iterator
// yields into a caller-owned Record, so steady-state iteration
// performs no allocation.
func (fs *FileStore) Iter(q Query) (*Iterator, error) {
	if err := fs.check(); err != nil {
		return nil, err
	}
	return fs.idx.iter(q), nil
}

// Count returns the number of durable records in the store.
func (fs *FileStore) Count() (int, error) {
	if err := fs.check(); err != nil {
		return 0, err
	}
	return fs.idx.count(), nil
}

// Close releases the store: in-flight commits are waited out, then the
// active segment is flushed and released. Queued appends that never
// made it into a durable batch fail with ErrClosed — they were never
// acknowledged. Closing a failed store releases resources without
// clearing the failure (reopen recovers).
func (fs *FileStore) Close() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.closed {
		return ErrClosed
	}
	fs.closed = true
	fs.commitDone.Broadcast()
	for fs.committing {
		fs.commitDone.Wait()
	}
	if fs.cur != nil {
		if fs.opts.Sync {
			if err := fs.cur.Sync(); err != nil {
				fs.cur.Close() //overhaul:allow errdrop best-effort release after the sync failure being reported
				fs.cur = nil
				return err
			}
		}
		err := fs.cur.Close()
		fs.cur = nil
		return err
	}
	return nil
}
