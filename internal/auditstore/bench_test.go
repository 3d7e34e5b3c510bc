package auditstore_test

import (
	"fmt"
	"runtime"
	"testing"

	"overhaul/internal/auditstore"
)

// Per-scale benchmark tables in the crumbs style (SNIPPETS.md Snippet
// 2): every operation at 10/100/1k/10k records, so BENCH_overhaul.json
// records how each scales and bench-compare blocks regressions at any
// scale, not just the one a change happened to be tuned on. Rows are
// named file/N and run with Sync off: the tables measure the store,
// not the filesystem.
var benchScales = [...]int{10, 100, 1000, 10000}

// benchStore builds a prefilled store of the given size.
func benchStore(b *testing.B, n int) *auditstore.FileStore {
	b.Helper()
	st, err := auditstore.Open(b.TempDir(), auditstore.Options{})
	if err != nil {
		b.Fatalf("open: %v", err)
	}
	for i := 0; i < n; i++ {
		if _, err := st.Append(mkRecord(i)); err != nil {
			b.Fatalf("prefill %d: %v", i, err)
		}
	}
	// Settle the heap before the timer starts: these loops are short
	// (sub-µs ops × 2000 iterations), so whether a GC cycle lands inside
	// the timed region otherwise dominates run-to-run variance.
	runtime.GC()
	return st
}

func BenchmarkStoreAppend(b *testing.B) {
	for _, n := range benchScales {
		b.Run(fmt.Sprintf("file/%d", n), func(b *testing.B) {
			st := benchStore(b, n)
			defer st.Close()
			recs := make([]auditstore.Record, b.N)
			for i := range recs {
				recs[i] = mkRecord(n + i)
			}
			runtime.GC()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := st.Append(recs[i]); err != nil {
					b.Fatalf("append: %v", err)
				}
			}
		})
	}
}

func BenchmarkStoreGet(b *testing.B) {
	for _, n := range benchScales {
		b.Run(fmt.Sprintf("file/%d", n), func(b *testing.B) {
			st := benchStore(b, n)
			defer st.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				seq := uint64(i%n) + 1
				if _, ok, err := st.Get(seq); !ok || err != nil {
					b.Fatalf("get %d: ok=%v err=%v", seq, ok, err)
				}
			}
		})
	}
}

// BenchmarkStoreEncodeV2 measures one record through the v2 binary
// frame encoder into a reused buffer — the per-record cost inside a
// group commit. The 0-alloc figure is load-bearing: overhaul-benchjson
// hard-gates it, because one allocation here multiplies across every
// record the fleet ever appends.
func BenchmarkStoreEncodeV2(b *testing.B) {
	recs := make([]auditstore.Record, 64)
	for i := range recs {
		recs[i] = mkRecord(i)
		recs[i].Seq = uint64(i + 1)
	}
	var enc auditstore.FrameEncoder
	buf := make([]byte, 0, 1<<12)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = enc.AppendRecord(buf[:0], &recs[i%len(recs)])
		if err != nil {
			b.Fatalf("encode: %v", err)
		}
	}
}

// BenchmarkStoreScanSince measures a time-bounded tail query — the
// "what happened in the last minute" shape. The since bound lands 90%
// into the stream, so a seek (binary search on the time-ordered index)
// touches ~10% of the records a full pass would.
func BenchmarkStoreScanSince(b *testing.B) {
	for _, n := range benchScales {
		b.Run(fmt.Sprintf("file/%d", n), func(b *testing.B) {
			st := benchStore(b, n)
			defer st.Close()
			q := auditstore.Query{
				Since:   mkRecord(n * 9 / 10).Time,
				Verdict: "deny",
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				matched := 0
				err := st.Scan(q, func(auditstore.Record) bool {
					matched++
					return true
				})
				if err != nil || matched == 0 {
					b.Fatalf("scan since: matched=%d err=%v", matched, err)
				}
			}
		})
	}
}

func BenchmarkStoreScan(b *testing.B) {
	// Scan measures a full filtered pass: the deny posting list (~1/3
	// of records) plus a reason substring check — the shape an
	// overhaul-top triage query takes.
	q := auditstore.Query{Verdict: "deny", Reason: "recent"}
	for _, n := range benchScales {
		b.Run(fmt.Sprintf("file/%d", n), func(b *testing.B) {
			st := benchStore(b, n)
			defer st.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				matched := 0
				err := st.Scan(q, func(auditstore.Record) bool {
					matched++
					return true
				})
				if err != nil || matched == 0 {
					b.Fatalf("scan: matched=%d err=%v", matched, err)
				}
			}
		})
	}
}

// BenchmarkStoreAppendSustained appends one record at a time to a file
// store that already holds history records, in 256-record segments, so
// the rotations a long-lived store pays run inside the timed loop. A
// record is written once and a rotation touches only the active
// segment, so ns/op should not grow with history. At the Makefile's
// -benchtime=2000x the loop spans about eight rotations.
func BenchmarkStoreAppendSustained(b *testing.B) {
	for _, history := range []int{1000, 10000, 100000} {
		b.Run(fmt.Sprintf("history=%d", history), func(b *testing.B) {
			st, err := auditstore.Open(b.TempDir(), auditstore.Options{SegmentRecords: 256})
			if err != nil {
				b.Fatalf("open: %v", err)
			}
			defer st.Close()
			batch := make([]auditstore.Record, 0, auditstore.DefaultBatchRecords)
			for i := 0; i < history; i++ {
				if batch = append(batch, mkRecord(i)); len(batch) == cap(batch) || i == history-1 {
					if _, err := st.AppendBatch(batch); err != nil {
						b.Fatalf("prefill %d: %v", i, err)
					}
					batch = batch[:0]
				}
			}
			recs := make([]auditstore.Record, b.N)
			for i := range recs {
				recs[i] = mkRecord(history + i)
			}
			runtime.GC()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := st.Append(recs[i]); err != nil {
					b.Fatalf("append: %v", err)
				}
			}
		})
	}
}

// BenchmarkStoreAppendBatch32 makes 32-record AppendBatch calls into a
// store that starts empty, the way a fleet session's batching sink
// flushes, so rotation runs inside the timed loop. The seg=256 row
// keeps the segment size the store defaulted to before
// DefaultSegmentRecords was measured; at the Makefile's -benchtime=2000x
// (64,000 records) it pays 249 rotations against the default's 15.
func BenchmarkStoreAppendBatch32(b *testing.B) {
	for _, seg := range []struct {
		name string
		recs int
	}{{"256", 256}, {"default", 0}} {
		b.Run("seg="+seg.name, func(b *testing.B) {
			st, err := auditstore.Open(b.TempDir(), auditstore.Options{SegmentRecords: seg.recs})
			if err != nil {
				b.Fatalf("open: %v", err)
			}
			defer st.Close()
			recs := make([]auditstore.Record, 32*b.N)
			for i := range recs {
				recs[i] = mkRecord(i)
			}
			runtime.GC()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := st.AppendBatch(recs[32*i : 32*i+32]); err != nil {
					b.Fatalf("append batch: %v", err)
				}
			}
		})
	}
}

// BenchmarkStoreReopen measures Open on a closed store of n records:
// listing, reading and decoding the segments, the merge, and loading
// the index. heapB/rec is the live heap the reopened store holds per
// record, which moves with anything else on the heap; idxB/rec is the
// index's own capacities per record (IndexBytes), which does not.
func BenchmarkStoreReopen(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("file/%d", n), func(b *testing.B) {
			st := benchStore(b, n)
			dir := st.Dir()
			if err := st.Close(); err != nil {
				b.Fatalf("close: %v", err)
			}
			heap0 := liveHeap()
			var heap int64
			var idx int
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st, err := auditstore.Open(dir, auditstore.Options{})
				if err != nil {
					b.Fatalf("reopen: %v", err)
				}
				if i == b.N-1 {
					b.StopTimer()
					heap = liveHeap() - heap0
					idx = st.IndexBytes()
					b.StartTimer()
				}
				if err := st.Close(); err != nil {
					b.Fatalf("close: %v", err)
				}
			}
			b.ReportMetric(float64(heap)/float64(n), "heapB/rec")
			b.ReportMetric(float64(idx)/float64(n), "idxB/rec")
		})
	}
}
