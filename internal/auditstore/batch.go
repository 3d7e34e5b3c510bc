package auditstore

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"time"

	"overhaul/internal/clock"
	"overhaul/internal/faultinject"
)

// Group commit. An appender assigns its records' sequence numbers and
// encodes their frames and index entries onto the queue under the
// store mutex; the first-comer becomes the commit leader, cuts the
// queue into batches bounded by Options.BatchRecords/BatchBytes, and
// issues one segment write per batch, indexing it from the prebuilt
// entries. The leader never waits for more records: a batch is
// whatever queued while the previous write ran. It leads until its own
// records are durable and then hands off: the records queued behind
// them are led by their own appenders. Followers wait on their own
// core — spinning on the commit generation for up to spinWait with
// more than one P, then parking on the condition variable — until
// their sequence number is durable or the leadership is free. The
// crash contract is exactly the serial store's: a record is
// acknowledged only after the write carrying it returned, so the
// recovered prefix always contains every acknowledged record and
// never an unsubmitted one. Two fault windows extend the crash matrix
// (PointStoreBatch): a torn mid-batch write, and a crash between the
// write and the acknowledgements — the batch is durable but its
// appenders all see the failure.

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

// checkFields rejects a record the binary codec cannot represent,
// given its parts: its two times, its pid and the total length of its
// strings. Appends check every record before a sequence number is
// burned on it, so such a record fails its own append without failing
// the store. It returns the times as entry nanoseconds (noTime for a
// zero time).
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

// queued is one record awaiting commit: its index entry, kind not yet
// interned, and where its frame ends in the queue's byte buffer. Its
// kind bytes are the kindLen bytes before the frame's CRC.
type queued struct {
	e        entry
	end      int
	kindLen  uint32
	degraded bool
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
	fs.lock()
	last, err := fs.appendLocked(recs)
	fs.mu.Unlock()
	return last, err
}

// appendLocked is AppendBatch under mu.
func (fs *FileStore) appendLocked(recs []Record) (uint64, error) {
	if err := fs.checkLocked(); err != nil {
		return 0, err
	}
	if len(recs) == 0 {
		return fs.durableSeq, nil
	}
	if err := fs.enqueueLocked(recs); err != nil {
		return 0, err
	}
	last := fs.lastSeq
	if err := fs.awaitDurableLocked(last); err != nil {
		return 0, err
	}
	return last, nil
}

// enqueueLocked assigns recs the next sequence numbers and encodes
// their frames and index entries onto the queue. A record the codec
// cannot represent, or one whose non-zero Seq is not its position,
// fails the whole call before any sequence number is burned: the
// frames encoded so far are cut off the queue again.
func (fs *FileStore) enqueueLocked(recs []Record) error {
	bufMark, queueMark := len(fs.qbuf), len(fs.queue)
	for i := range recs {
		r := &recs[i]
		seq := fs.lastSeq + 1 + uint64(i)
		err := ErrSeqMismatch
		if r.Seq == 0 || r.Seq == seq {
			err = fs.encodeLocked(seq, r)
		}
		if err != nil {
			fs.qbuf, fs.queue = fs.qbuf[:bufMark], fs.queue[:queueMark]
			return err
		}
	}
	fs.lastSeq += uint64(len(recs))
	return nil
}

// encodeLocked validates r and appends its frame, under sequence
// number seq, and its queue entry.
func (fs *FileStore) encodeLocked(seq uint64, r *Record) error {
	tn, sn, err := checkFields(r.Time, r.Stamp, r.PID, len(r.Op)+len(r.Verdict)+len(r.Reason))
	if err != nil {
		return err
	}
	q := queued{e: entry{time: tn, stamp: sn, session: r.Session, pid: int32(r.PID)}, degraded: r.Degraded}
	var kindLen int
	fs.qbuf, kindLen = appendFrame(fs.qbuf, seq, &q.e, r)
	q.end, q.kindLen = len(fs.qbuf), uint32(kindLen)
	fs.queue = append(fs.queue, q)
	return nil
}

// awaitDurableLocked blocks until sequence seq is durable, becoming
// the commit leader whenever none is active. Leadership is re-checked
// on every wake-up, so a follower never waits on a leader that is
// gone: a leader that releases leadership with records still queued
// wakes their appenders, and the first to take mu promotes itself and
// commits the queue. Called and returns with mu held.
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
			fs.runCommitsLocked(seq)
			continue
		}
		fs.waitLocked()
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

// spinWait bounds how long an appender spins on its own core before
// it parks: waiting for a broadcast (waitLocked) or for mu (lock). A
// follower waits out at most the batch in flight, and a commit takes
// 18–40 µs at its 99th percentile without Options.Sync (traced
// fleet-storm, append_batch_p99_us), but one that rotates the segment
// — seal, close, create — took 32–255 µs on the 2-vCPU reference
// host. The bound covers a rotating commit, so only a stalled disk or
// a Sync rotation parks a follower (EXPERIMENTS.md, "group commit
// scheduling").
const spinWait = 250 * time.Microsecond

// spinFor polls done on this core until it reports true or spinWait
// has passed, and reports which. Every 64 polls it reads the clock and
// yields the P to any goroutine runnable on it, such as a GC worker:
// without the yield, a follower spinning through a GC cycle delayed
// the leader's batch past spinWait often enough to park followers
// again (EXPERIMENTS.md, "group commit scheduling").
func spinFor(done func() bool) bool {
	for sw, spent := clock.StartStopwatch(), time.Duration(0); spent < spinWait; spent += sw.Lap() {
		for range 64 {
			if done() {
				return true
			}
		}
		runtime.Gosched()
	}
	return false
}

// waitLocked waits for the next commitDone broadcast. With more than
// one P it first releases mu and spins on the commit generation: a
// parked follower is readied onto the broadcasting leader's P and stays
// runnable until an idle P's thread wakes and steals it, while a
// spinning one sees the broadcast on its own core. On one P a spinner
// would only delay the leader, so the follower parks at once. Called
// and returns with mu held. A broadcast bumps the generation under mu,
// so a generation unchanged after relocking means none was missed, and
// the follower parks on the condition variable as before.
func (fs *FileStore) waitLocked() {
	if fs.spin {
		gen := fs.commitGen.Load()
		fs.mu.Unlock()
		spinFor(func() bool { return fs.commitGen.Load() != gen })
		fs.lock()
		if fs.commitGen.Load() != gen {
			return
		}
	}
	fs.commitDone.Wait()
}

// lock acquires mu. mu is held only to enqueue or acknowledge a batch,
// a few microseconds, and a blocked Lock parks with the same hand-off
// cost as a parked follower, so with more than one P it first spins on
// TryLock, which only loads the mutex word until it is free.
func (fs *FileStore) lock() {
	if fs.spin && spinFor(fs.mu.TryLock) {
		return
	}
	fs.mu.Lock() //overhaul:allow lockcheck the caller releases mu: lock is mu.Lock with a spin in front
}

// broadcastLocked wakes every waiter, spinning or parked: on batch
// durability, failure, leadership release and Close. Callers hold mu.
func (fs *FileStore) broadcastLocked() {
	fs.commitGen.Add(1)
	fs.commitDone.Broadcast()
}

// runCommitsLocked commits the queue as the commit leader until
// sequence own — the leader's own last record — is durable: cut a
// batch, release mu for the write, reacquire to acknowledge. Records
// still queued behind the leader's own are left to their appenders:
// the broadcast that releases the leadership wakes them, and the first
// to take mu leads. Called with mu held, committing freshly claimed,
// own not yet durable and the store neither failed nor closed; returns
// with mu held and leadership released.
func (fs *FileStore) runCommitsLocked(own uint64) {
	for {
		first := fs.durableSeq + 1 // the queue's head: every earlier record is durable
		n, size := fs.cutLocked()
		batch, buf := fs.queue[:n], fs.qbuf[:size]
		// The rest of the queue moves to the spare buffers, so
		// appenders keep encoding while the leader writes this batch.
		fs.qbuf = append(fs.spareBuf[:0], fs.qbuf[size:]...)
		fs.queue = append(fs.spareQueue[:0], fs.queue[n:]...)
		for i := range fs.queue {
			fs.queue[i].end -= size
		}
		fs.mu.Unlock()

		err := fs.commitBatch(first, buf, batch)

		fs.lock()
		fs.spareBuf, fs.spareQueue = buf[:0], batch[:0]
		if err != nil {
			fs.failLocked(err) //overhaul:allow errdrop the failure is recorded in fs.failed; every waiter observes it
		} else {
			fs.durableSeq = first + uint64(n) - 1
			fs.stats.record(n)
		}
		// An empty queue with own not durable is impossible by
		// construction; awaitDurableLocked fails such an append closed.
		if fs.durableSeq >= own || len(fs.queue) == 0 || fs.failed != nil || fs.closed {
			break
		}
		fs.broadcastLocked()
	}
	fs.committing = false
	fs.broadcastLocked()
}

// cutLocked sizes the next batch: at least one record, at most
// BatchRecords, stopping before a record whose frame would push the
// batch past BatchBytes. It returns the record count and the bytes
// their frames take at the head of the queue's buffer.
func (fs *FileStore) cutLocked() (n, size int) {
	for n < len(fs.queue) && n < fs.opts.BatchRecords {
		end := fs.queue[n].end
		if n > 0 && end > fs.opts.BatchBytes {
			break
		}
		n, size = n+1, end
	}
	return n, size
}

// commitBatch writes one batch — buf, the frames of the queued records
// batch, the first carrying sequence number first — to the active
// segment and indexes it. Called by the leader with mu released; owns
// the file state. The fault windows preserve the serial crash matrix
// exactly: each record still evaluates PointStoreAppend once (a torn
// write leaves prior frames plus half the failing frame; a crash
// leaves nothing), and the two PointStoreBatch windows bracket the
// batch write itself.
func (fs *FileStore) commitBatch(first uint64, buf []byte, batch []queued) error {
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
	for i := range batch {
		if f := faultinject.Eval(fs.opts.Hook, faultinject.PointStoreAppend); f.Injected() {
			if f.Kind == faultinject.KindError {
				// Torn write: the process died (or the disk lied)
				// mid-frame. Everything up to half of this record's
				// frame reaches the log; recovery must cut it.
				start := frameStart(batch, i)
				if _, werr := fs.cur.Write(buf[:start+(batch[i].end-start)/2]); werr != nil {
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
			if _, werr := fs.cur.Write(buf[:len(buf)/2]); werr != nil {
				return fmt.Errorf("batch (torn): %w", werr)
			}
			return fmt.Errorf("batch (torn): %w", f.Err)
		}
		return fmt.Errorf("batch (pre-write): %w", f.Err)
	}
	if _, err := fs.cur.Write(buf); err != nil {
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
				seq:       first + uint64(i),
				off:       fs.curOff + uint64(frameStart(batch, i)),
				maxBefore: fs.curMax,
			})
		}
		// A zero time is noTime, the maximum's floor, so it never raises it.
		fs.curMax = max(fs.curMax, batch[i].e.time)
		fs.curRecs++
	}
	fs.curOff += uint64(len(buf))
	if err := fs.idx.addBatch(first, buf, batch); err != nil {
		return fmt.Errorf("append index: %w", err)
	}
	return nil
}

// frameStart is the offset of record i's frame in its batch's buffer.
func frameStart(batch []queued, i int) int {
	if i == 0 {
		return 0
	}
	return batch[i-1].end
}
