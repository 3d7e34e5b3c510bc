package auditstore

import (
	"fmt"
	"math"
	"math/bits"
	"time"

	"overhaul/internal/faultinject"
)

// Group commit. Concurrent appenders enqueue their records under
// the store mutex; the first-comer becomes the commit leader, drains
// the queue into batches bounded by Options.BatchRecords/BatchBytes,
// and issues one framed segment write per batch. The leader never
// waits for more records: a batch is whatever queued while the
// previous write ran. Followers wait on the condition variable until
// their sequence number is durable. The crash contract is exactly the serial store's: a record
// is acknowledged only after the write carrying it returned, so the
// recovered prefix always contains every acknowledged record and
// never an unsubmitted one. Two new fault windows extend the crash
// matrix (PointStoreBatch): a torn mid-batch write, and a crash
// between the write and the acknowledgements — the batch is durable
// but its appenders all see the failure.

// BatchStats aggregates what the group-commit leader did: how many
// batches were committed, how many records they carried, and a
// power-of-two histogram of batch sizes. Read it via
// FileStore.BatchStats.
type BatchStats struct {
	// Batches and Records count durable commits and the records they
	// carried; MaxBatch is the largest single batch.
	Batches  uint64
	Records  uint64
	MaxBatch int
	// SizeHist buckets batch sizes as 1, 2, ≤4, ≤8, …, ≤128, >128.
	SizeHist [9]uint64
	// CompactedRecords counts the records compaction rewrote, automatic
	// and manual: the write amplification beyond the first append.
	CompactedRecords uint64
}

// BatchBucketLabel names SizeHist bucket i.
func BatchBucketLabel(i int) string {
	switch {
	case i <= 0:
		return "1"
	case i == 1:
		return "2"
	case i < len(BatchStats{}.SizeHist)-1:
		return fmt.Sprintf("le%d", 1<<i)
	default:
		return fmt.Sprintf("gt%d", 1<<(len(BatchStats{}.SizeHist)-2))
	}
}

// record tallies one committed batch of n records.
func (s *BatchStats) record(n int) {
	s.Batches++
	s.Records += uint64(n)
	if n > s.MaxBatch {
		s.MaxBatch = n
	}
	b := bits.Len(uint(n - 1)) // 1→0, 2→1, 3..4→2, 5..8→3, …
	if n <= 0 {
		b = 0
	}
	if b >= len(s.SizeHist) {
		b = len(s.SizeHist) - 1
	}
	s.SizeHist[b]++
}

// BatchStats returns a snapshot of the group-commit statistics.
func (fs *FileStore) BatchStats() BatchStats {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.stats
}

// estimateSize approximates a record's encoded v2 frame size without
// encoding it, for the BatchBytes bound.
func estimateSize(r *Record) int {
	return 40 + len(r.Op) + len(r.Verdict) + len(r.Reason)
}

// validateRecord rejects records the binary codec cannot represent
// before a sequence number is burned on them, so an oversized or
// out-of-range record fails its own Append without failing the store.
func validateRecord(r *Record) error {
	_, _, err := checkFields(r.Time, r.Stamp, r.PID, len(r.Op)+len(r.Verdict)+len(r.Reason))
	return err
}

// checkFields is validateRecord over a record's parts: its two times,
// its pid and the total length of its strings. It returns the times as
// entry nanoseconds (noTime for a zero time).
func checkFields(t, stamp time.Time, pid, strs int) (tn, sn int64, err error) {
	tn, sn = noTime, noTime
	if n, ok, err := timeNanos(t); err != nil {
		return 0, 0, err
	} else if ok {
		tn = n
	}
	if n, ok, err := timeNanos(stamp); err != nil {
		return 0, 0, err
	} else if ok {
		sn = n
	}
	if int64(pid) < math.MinInt32 || int64(pid) > math.MaxInt32 {
		return 0, 0, fmt.Errorf("auditstore: pid %d outside int32", pid)
	}
	if strs+64 > MaxPayload {
		return 0, 0, fmt.Errorf("auditstore: record strings %d bytes exceed payload bound %d", strs, MaxPayload)
	}
	return tn, sn, nil
}

// Append adds one record to the stream and returns its assigned
// sequence number (sequences are contiguous from 1). A record carrying
// a non-zero Seq must carry exactly the next sequence number, or the
// append fails with ErrSeqMismatch. It is a one-record AppendBatch.
func (fs *FileStore) Append(r Record) (uint64, error) {
	return fs.AppendBatch([]Record{r})
}

// AppendBatch appends a slice of records as one atomic enqueue: the
// records receive contiguous sequence numbers and the call returns the
// last one once all are durable — either because this caller became
// the commit leader and wrote them, or because a concurrent leader
// did. A full active segment rotates *before* the batch write, so a
// crash mid-rotation never loses an acknowledged record. Records
// carrying a non-zero Seq must match their assigned position. An empty
// batch is a no-op returning the current last durable sequence.
func (fs *FileStore) AppendBatch(recs []Record) (uint64, error) {
	fs.mu.Lock()
	if err := fs.checkLocked(); err != nil {
		fs.mu.Unlock()
		return 0, err
	}
	if len(recs) == 0 {
		seq := fs.durableSeq
		fs.mu.Unlock()
		return seq, nil
	}
	for i := range recs {
		if recs[i].Seq != 0 && recs[i].Seq != fs.lastSeq+1+uint64(i) {
			fs.mu.Unlock()
			return 0, ErrSeqMismatch
		}
		if err := validateRecord(&recs[i]); err != nil {
			fs.mu.Unlock()
			return 0, err
		}
	}
	var last uint64
	for i := range recs {
		r := recs[i]
		fs.lastSeq++
		r.Seq = fs.lastSeq
		last = r.Seq
		fs.queue = append(fs.queue, r)
	}
	//overhaul:allow lockordercheck group-commit leader handoff: awaitDurableLocked either waits on the condvar (which releases mu) or leads via runCommitsLocked, which explicitly unlocks before the segment write and relocks to acknowledge — mu is never acquired while held
	if err := fs.awaitDurableLocked(last); err != nil {
		fs.mu.Unlock()
		return 0, err
	}
	fs.mu.Unlock()
	return last, nil
}

// awaitDurableLocked blocks until sequence seq is durable, becoming
// the commit leader whenever none is active. Leadership is re-checked
// on every wake-up: an exclusive op (Compact, a finished leader) may
// release the committing flag with this record still queued, and a
// follower that only ever waited would then block forever — so a
// woken follower that finds no leader promotes itself and commits the
// queue. Called and returns with mu held.
func (fs *FileStore) awaitDurableLocked(seq uint64) error {
	for fs.durableSeq < seq && fs.failed == nil && !fs.closed {
		if !fs.committing {
			if len(fs.queue) == 0 {
				// Nothing queued yet seq is not durable: a failure
				// path drained without recording — impossible by
				// construction, but fail closed below rather than
				// spin claiming empty leadership.
				break
			}
			fs.committing = true
			fs.runCommitsLocked()
			continue
		}
		fs.commitDone.Wait()
	}
	if fs.durableSeq >= seq {
		return nil
	}
	if fs.failed != nil {
		return fs.failed
	}
	if fs.closed {
		return ErrClosed
	}
	// Leadership ended with the queue drained by a failure path that
	// did not record one — impossible by construction, but fail closed.
	return ErrStoreFailed
}

// runCommitsLocked drains the queue as the commit leader: cut a batch,
// release mu for the write, reacquire to acknowledge. Called with mu
// held and committing freshly claimed; returns with mu held and
// leadership released.
func (fs *FileStore) runCommitsLocked() {
	for len(fs.queue) > 0 && fs.failed == nil && !fs.closed {
		n := fs.cutLocked()
		fs.batch = append(fs.batch[:0], fs.queue[:n]...)
		rest := copy(fs.queue, fs.queue[n:])
		fs.queue = fs.queue[:rest]
		fs.mu.Unlock()

		err := fs.commitBatch(fs.batch)

		fs.mu.Lock()
		if err != nil {
			fs.failLocked(err) //overhaul:allow errdrop the failure is recorded in fs.failed; every waiter observes it
		} else {
			fs.durableSeq = fs.batch[len(fs.batch)-1].Seq
			fs.stats.record(len(fs.batch))
		}
		fs.commitDone.Broadcast()
	}
	fs.committing = false
	fs.commitDone.Broadcast()
}

// cutLocked sizes the next batch: at least one record, at most
// BatchRecords, stopping before a record that would push the encoded
// estimate past BatchBytes.
func (fs *FileStore) cutLocked() int {
	n, bytes := 0, 0
	for n < len(fs.queue) && n < fs.opts.BatchRecords {
		sz := estimateSize(&fs.queue[n])
		if n > 0 && bytes+sz > fs.opts.BatchBytes {
			break
		}
		bytes += sz
		n++
	}
	return n
}

// commitBatch writes one batch to the active segment and indexes it.
// Called by the leader with mu released; owns the file state. The
// fault windows preserve the serial crash matrix exactly: each record
// still evaluates PointStoreAppend once (a torn write leaves prior
// frames plus half the failing frame; a crash leaves nothing), and the
// two PointStoreBatch windows bracket the batch write itself.
func (fs *FileStore) commitBatch(batch []Record) error {
	if fs.curRecs >= fs.opts.SegmentRecords && fs.cur != nil {
		if err := fs.rotateSeg(); err != nil {
			return err
		}
	}
	if fs.cur == nil {
		if err := fs.openActive(); err != nil {
			return err
		}
	}
	fs.wbuf = fs.wbuf[:0]
	fs.frameOffs = fs.frameOffs[:0]
	for i := range batch {
		start := len(fs.wbuf)
		fs.frameOffs = append(fs.frameOffs, start)
		var err error
		fs.wbuf, err = fs.enc.AppendRecord(fs.wbuf, &batch[i])
		if err != nil {
			return fmt.Errorf("append encode: %w", err)
		}
		if f := faultinject.Eval(fs.opts.Hook, faultinject.PointStoreAppend); f.Injected() {
			if f.Kind == faultinject.KindError {
				// Torn write: the process died (or the disk lied)
				// mid-frame. Everything up to half of this record's
				// frame reaches the log; recovery must cut it.
				frameLen := len(fs.wbuf) - start
				if _, werr := fs.cur.Write(fs.wbuf[:start+frameLen/2]); werr != nil {
					return fmt.Errorf("append (torn): %w", werr)
				}
				return fmt.Errorf("append (torn): %w", f.Err)
			}
			return fmt.Errorf("append: %w", f.Err)
		}
	}
	if f := faultinject.Eval(fs.opts.Hook, faultinject.PointStoreBatch); f.Injected() {
		if f.Kind == faultinject.KindError {
			// Torn mid-batch write: half the batch buffer lands,
			// tearing some frame in the middle.
			if _, werr := fs.cur.Write(fs.wbuf[:len(fs.wbuf)/2]); werr != nil {
				return fmt.Errorf("batch (torn): %w", werr)
			}
			return fmt.Errorf("batch (torn): %w", f.Err)
		}
		return fmt.Errorf("batch (pre-write): %w", f.Err)
	}
	if _, err := fs.cur.Write(fs.wbuf); err != nil {
		return fmt.Errorf("append: %w", err)
	}
	if f := faultinject.Eval(fs.opts.Hook, faultinject.PointStoreBatch); f.Injected() {
		// The write is durable but the acknowledgements are lost: every
		// appender in the batch sees the failure, and recovery may
		// legitimately return these unacknowledged records.
		return fmt.Errorf("batch (pre-ack): %w", f.Err)
	}
	for i := range batch {
		if fs.curRecs%indexEvery == 0 {
			fs.curIdx = append(fs.curIdx, blockEntry{
				seq:       batch[i].Seq,
				off:       fs.curOff + uint64(fs.frameOffs[i]),
				maxBefore: fs.curMax,
			})
		}
		if tn, ok, err := timeNanos(batch[i].Time); ok && err == nil && tn > fs.curMax {
			fs.curMax = tn
		}
		fs.curRecs++
	}
	fs.curOff += uint64(len(fs.wbuf))
	if err := fs.idx.add(batch...); err != nil {
		return fmt.Errorf("append index: %w", err)
	}
	return nil
}
