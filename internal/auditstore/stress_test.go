package auditstore_test

import (
	"fmt"
	"sync"
	"testing"

	"overhaul/internal/auditstore"
)

// TestConcurrentAppendScan hammers one store with concurrent writers
// and readers — the shape `make race` exists for. Writers interleave
// arbitrarily but the store must still assign a contiguous sequence,
// keep every acked record, and answer scans consistently throughout.
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
				for i := 0; i < perWriter; i++ {
					r := mkRecord(i)
					r.PID = 1000 + w
					r.Reason = fmt.Sprintf("writer %d record %d", w, i)
					if _, err := st.Append(r); err != nil {
						errs <- fmt.Errorf("writer %d append %d: %w", w, i, err)
						return
					}
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
					// A scan mid-write must still see a gap-free
					// sequence prefix.
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
