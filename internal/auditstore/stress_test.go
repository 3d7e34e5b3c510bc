package auditstore_test

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"overhaul/internal/auditstore"
)

// TestConcurrentAppendScan hammers one store with concurrent writers
// and readers — the shape `make race` exists for. Writers append
// batches of one to four records, each with a reason the kind table
// has not seen, and small segments keep automatic compaction running;
// readers alternate Scan with an Iter drained in steps. Writers
// interleave arbitrarily but the store must still assign a contiguous
// sequence, keep every acked record, and answer scans and iterators
// consistently throughout.
func TestConcurrentAppendScan(t *testing.T) {
	// The subtest keeps the name it had when segments were JSONL.
	t.Run("jsonl", func(t *testing.T) {
		st, err := auditstore.Open(t.TempDir(), auditstore.Options{SegmentRecords: 64, CompactSealed: 3})
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		defer st.Close()

		const writers, perWriter = 4, 100
		errs := make(chan error, writers+2)
		var writerWG, readerWG sync.WaitGroup
		done := make(chan struct{})

		for w := 0; w < writers; w++ {
			w := w
			writerWG.Add(1)
			go func() {
				defer writerWG.Done()
				var batch []auditstore.Record
				for i := 0; i < perWriter; i++ {
					r := mkRecord(i)
					r.PID = 1000 + w
					r.Reason = fmt.Sprintf("writer %d record %d", w, i)
					batch = append(batch, r)
					if len(batch) <= i%4 && i < perWriter-1 {
						continue
					}
					if _, err := st.AppendBatch(batch); err != nil {
						errs <- fmt.Errorf("writer %d append %d: %w", w, i, err)
						return
					}
					batch = batch[:0]
				}
			}()
		}
		for rdr := 0; rdr < 2; rdr++ {
			readerWG.Add(1)
			go func() {
				defer readerWG.Done()
				for {
					select {
					case <-done:
						return
					default:
					}
					// A scan or iterator mid-write must still see a
					// gap-free sequence prefix.
					prev := uint64(0)
					err := st.Scan(auditstore.Query{}, func(r auditstore.Record) bool {
						if r.Seq != prev+1 {
							errs <- fmt.Errorf("scan gap: %d after %d", r.Seq, prev)
							return false
						}
						prev = r.Seq
						return true
					})
					if err != nil {
						errs <- fmt.Errorf("concurrent scan: %w", err)
						return
					}
					it, err := st.Iter(auditstore.Query{Reason: "record"})
					if err != nil {
						errs <- fmt.Errorf("concurrent iter: %w", err)
						return
					}
					prev = 0
					for r := (auditstore.Record{}); it.Next(&r); {
						if r.Seq != prev+1 {
							errs <- fmt.Errorf("iter gap: %d after %d", r.Seq, prev)
							return
						}
						prev = r.Seq
						if r.Seq%16 == 0 {
							runtime.Gosched() // let appends land under the live snapshot
						}
					}
				}
			}()
		}

		writerWG.Wait()
		close(done)
		readerWG.Wait()
		close(errs)
		for err := range errs {
			t.Fatalf("concurrent failure: %v", err)
		}

		n, err := st.Count()
		if err != nil || n != writers*perWriter {
			t.Fatalf("count = %d err=%v, want %d", n, err, writers*perWriter)
		}
		// Every writer's every record is present exactly once.
		seen := make(map[string]bool, n)
		if err := st.Scan(auditstore.Query{}, func(r auditstore.Record) bool {
			if seen[r.Reason] {
				t.Errorf("duplicate record %q", r.Reason)
			}
			seen[r.Reason] = true
			return true
		}); err != nil {
			t.Fatalf("final scan: %v", err)
		}
		if len(seen) != writers*perWriter {
			t.Fatalf("distinct records = %d, want %d", len(seen), writers*perWriter)
		}
	})
}
