package auditstore_test

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"slices"
	"testing"

	"overhaul/internal/auditstore"
	"overhaul/internal/faultinject"
)

func TestOpenRejectsBadOptions(t *testing.T) {
	for _, opts := range []auditstore.Options{
		{SegmentRecords: -1},
		{CompactSealed: 1}, // a fan-in of 1 would merge one segment into itself forever
	} {
		if st, err := auditstore.Open(t.TempDir(), opts); err == nil {
			st.Close() //overhaul:allow errdrop the open should have failed; release it best-effort
			t.Errorf("Open(%+v) succeeded, want an error", opts)
		}
	}
}

// tierOf is the compaction tier of a sealed segment of recs records:
// ⌊log_k(recs/s)⌋, and 0 below s.
func tierOf(recs, s, k int) int {
	t := 0
	for n := recs / s; n >= k; n /= k {
		t++
	}
	return t
}

// wantLayout is the sealed layout after rotations rotations of s-record
// segments at fan-in k: the base-k digits of rotations, most
// significant first, each digit d standing for d segments of s·k^t
// records.
func wantLayout(rotations, s, k int) []int {
	var out []int
	for t, size := 0, s; rotations > 0; t, size = t+1, size*k {
		for d := rotations % k; d > 0; d-- {
			out = append(out, size)
		}
		rotations /= k
	}
	slices.Reverse(out)
	return out
}

// checkTiers asserts the sealed layout of a store filled serially with
// n records of s-record segments at fan-in k: sizes non-increasing,
// at most k−1 segments per tier, and exactly the base-k counter.
func checkTiers(t *testing.T, st *auditstore.FileStore, s, k, n int) []int {
	t.Helper()
	_, recs := st.SealedLayout()
	perTier := map[int]int{}
	for i, r := range recs {
		if i > 0 && r > recs[i-1] {
			t.Fatalf("sealed sizes %v increase at %d", recs, i)
		}
		tier := tierOf(r, s, k)
		if perTier[tier]++; perTier[tier] > k-1 {
			t.Fatalf("sealed sizes %v hold %d segments of tier %d, want at most %d", recs, perTier[tier], tier, k-1)
		}
	}
	// Rotation r happens when record r·s+1 arrives.
	if want := wantLayout((n-1)/s, s, k); !slices.Equal(recs, want) {
		t.Fatalf("sealed sizes %v after %d records, want %v", recs, n, want)
	}
	return recs
}

// ceilLog is ⌈log_k(n/s)⌉: the smallest c with s·k^c ≥ n.
func ceilLog(n, s, k int) int {
	c := 0
	for size := s; size < n; size *= k {
		c++
	}
	return c
}

// TestCompactionTiers is the size-tiered compaction property: the
// sealed segments always form a base-k counter, each record is
// rewritten at most ⌈log_k(N/s)⌉ times, and a clean reopen adopts the
// layout and keeps cascading from it.
func TestCompactionTiers(t *testing.T) {
	for _, c := range []struct{ s, k, n int }{
		{1, 2, 300}, {3, 3, 500}, {8, 3, 1000}, {4, 8, 2500}, {16, 2, 900}, {5, 4, 41},
	} {
		t.Run(fmt.Sprintf("s%d-k%d-n%d", c.s, c.k, c.n), func(t *testing.T) {
			dir := t.TempDir()
			opts := auditstore.Options{SegmentRecords: c.s, CompactSealed: c.k}
			st, err := auditstore.Open(dir, opts)
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			fillStore(t, st, c.n)
			layout := checkTiers(t, st, c.s, c.k, c.n)
			rewritten := st.BatchStats().CompactedRecords
			if bound := c.n * ceilLog(c.n, c.s, c.k); rewritten > uint64(bound) {
				t.Fatalf("compaction rewrote %d records, want at most N·⌈log_k(N/s)⌉ = %d", rewritten, bound)
			}
			if err := st.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}

			st2, err := auditstore.Open(dir, opts)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer st2.Close() //overhaul:allow errdrop test cleanup
			if rec := st2.Recovery(); !rec.Clean || rec.Records != c.n {
				t.Fatalf("reopen recovery = %+v, want clean %d records", rec, c.n)
			}
			if _, recs := st2.SealedLayout(); !slices.Equal(recs, layout) {
				t.Fatalf("reopen adopted sealed sizes %v, want %v", recs, layout)
			}
			for i := c.n; i < 2*c.n; i++ {
				if _, err := st2.Append(mkRecord(i)); err != nil {
					t.Fatalf("append %d after reopen: %v", i, err)
				}
			}
			checkTiers(t, st2, c.s, c.k, 2*c.n)
			checkPrefix(t, st2, 2*c.n)
		})
	}

	// Group commit writes a whole batch into the active segment, so a
	// batch of more than (k−1)·s records seals a segment above tier 0
	// right after smaller ones. Those must still merge: no sealed
	// segment may be followed by k−1 or more segments of no lower
	// tier, which caps the sealed count at (k−1)·(tiers present).
	for _, c := range []struct{ s, k, batch, n int }{
		{4, 3, 13, 3000}, {32, 8, 256, 20000}, {2, 2, 7, 2000},
	} {
		t.Run(fmt.Sprintf("batch-s%d-k%d-b%d-n%d", c.s, c.k, c.batch, c.n), func(t *testing.T) {
			dir := t.TempDir()
			opts := auditstore.Options{SegmentRecords: c.s, CompactSealed: c.k, BatchRecords: c.batch}
			st, err := auditstore.Open(dir, opts)
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			rng := rand.New(rand.NewPCG(uint64(c.s), uint64(c.batch)))
			// active mirrors commitBatch: a batch goes whole into the
			// active segment, which rotates before a batch once full.
			active, oversized := 0, false
			for i := 0; i < c.n; {
				size := min(1+rng.IntN(c.batch), c.n-i)
				if active >= c.s {
					oversized = oversized || tierOf(active, c.s, c.k) > 0
					active = 0
				}
				active += size
				batch := make([]auditstore.Record, size)
				for j := range batch {
					batch[j] = mkRecord(i + j)
				}
				if _, err := st.AppendBatch(batch); err != nil {
					t.Fatalf("append batch at %d: %v", i, err)
				}
				i += size
				_, recs := st.SealedLayout()
				checkAbsorbed(t, recs, c.s, c.k)
			}
			if !oversized {
				t.Fatalf("no batch sealed a segment above tier 0; the case does not exercise the rule")
			}
			rewritten := st.BatchStats().CompactedRecords
			if bound := c.n * ceilLog(c.n, c.s, c.k); rewritten > uint64(bound) {
				t.Fatalf("compaction rewrote %d records, want at most N·⌈log_k(N/s)⌉ = %d", rewritten, bound)
			}
			_, layout := st.SealedLayout()
			if err := st.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}

			st2, err := auditstore.Open(dir, opts)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer st2.Close() //overhaul:allow errdrop test cleanup
			if rec := st2.Recovery(); !rec.Clean || rec.Records != c.n {
				t.Fatalf("reopen recovery = %+v, want clean %d records", rec, c.n)
			}
			if _, recs := st2.SealedLayout(); !slices.Equal(recs, layout) {
				t.Fatalf("reopen adopted sealed sizes %v, want %v", recs, layout)
			}
			checkPrefix(t, st2, c.n)
		})
	}
}

// checkAbsorbed asserts that no sealed segment is followed by k−1 or
// more segments of no lower tier (the merge rule, applied to every
// window rather than only the newest), and the file-count bound it
// implies: at most (k−1) sealed segments per tier present.
func checkAbsorbed(t *testing.T, recs []int, s, k int) {
	t.Helper()
	tiers := map[int]bool{}
	lowest := math.MaxInt // lowest tier after index i
	for i := len(recs) - 1; i >= 0; i-- {
		tier := tierOf(recs[i], s, k)
		if len(recs)-1-i >= k-1 && lowest >= tier {
			t.Fatalf("sealed sizes %v: segment %d (tier %d) is followed by %d segments of no lower tier; want them merged",
				recs, i, tier, len(recs)-1-i)
		}
		lowest = min(lowest, tier)
		tiers[tier] = true
	}
	if len(recs) > (k-1)*len(tiers) {
		t.Fatalf("sealed sizes %v: %d segments over %d tiers, want at most %d", recs, len(recs), len(tiers), (k-1)*len(tiers))
	}
}

// TestCrashTailMerge extends the crash matrix to a tail merge: a merge
// of the newest tier-0 segments while an older, higher-tier sealed
// segment stays in place. A crash at each of the four compaction
// windows must leave that older segment byte-identical, reopen must
// recover exactly the acked prefix, and the open after that is clean.
func TestCrashTailMerge(t *testing.T) {
	const s, k = 4, 3
	// 5 rotations leave sealed sizes [12 4 4]; the 6th completes three
	// tier-0 segments and merges just those.
	const built = 5*s + 1
	windows := []string{"begin", "torn-tmp", "pre-rename", "pre-cleanup"}
	for w, name := range windows {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			opts := auditstore.Options{SegmentRecords: s, CompactSealed: k}
			st, err := auditstore.Open(dir, opts)
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			fillStore(t, st, built)
			paths, recs := st.SealedLayout()
			if !slices.Equal(recs, []int{12, 4, 4}) {
				t.Fatalf("sealed sizes %v, want [12 4 4]", recs)
			}
			older, err := os.ReadFile(paths[0])
			if err != nil {
				t.Fatalf("read older segment: %v", err)
			}
			if err := st.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}

			inj, err := faultinject.New(1, faultinject.Rule{
				Point: faultinject.PointStoreCompact, Kind: faultinject.KindCrash, After: w, Count: 1,
			})
			if err != nil {
				t.Fatalf("injector: %v", err)
			}
			crashOpts := opts
			crashOpts.Hook = inj.Hook()
			st, err = auditstore.Open(dir, crashOpts)
			if err != nil {
				t.Fatalf("open armed: %v", err)
			}
			acked := built
			for ; acked < 2*built; acked++ {
				if _, err := st.Append(mkRecord(acked)); err != nil {
					if !errors.Is(err, auditstore.ErrStoreFailed) {
						t.Fatalf("append %d: %v, want ErrStoreFailed", acked, err)
					}
					break
				}
			}
			if len(inj.Events()) == 0 || acked != 6*s {
				t.Fatalf("window %s: %d events, %d acked; want the crash at the 6th rotation's merge (%d acked)",
					name, len(inj.Events()), acked, 6*s)
			}
			if err := st.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}
			if got, err := os.ReadFile(paths[0]); err != nil || !bytes.Equal(got, older) {
				t.Fatalf("older sealed segment changed by a tail-merge crash (err %v)", err)
			}

			st2, err := auditstore.Open(dir, opts)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			checkPrefix(t, st2, acked)
			if err := st2.Close(); err != nil {
				t.Fatalf("close recovered: %v", err)
			}
			st3, err := auditstore.Open(dir, opts)
			if err != nil {
				t.Fatalf("second reopen: %v", err)
			}
			defer st3.Close() //overhaul:allow errdrop test cleanup
			if rec := st3.Recovery(); !rec.Clean {
				t.Fatalf("second reopen not clean: %+v", rec)
			}
			checkPrefix(t, st3, acked)
		})
	}
}
