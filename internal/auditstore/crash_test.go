package auditstore_test

import (
	"errors"
	"strings"
	"testing"

	"overhaul/internal/auditstore"
	"overhaul/internal/faultinject"
)

// TestCrashRecoveryProperty is the crash-recovery property test: for
// every faultinject crash window — torn append, crash mid-rotation at
// either protocol window, crash mid-compaction at any of its four
// windows, both in the first merge and in the second, which at fan-in
// 3 is a tail merge beside an older sealed segment — reopening the
// directory yields a byte-identical prefix of
// the pre-crash stream. Acked records are never lost, unacked records
// never appear, and any discarded bytes are reported, never silent.
// The table is seeded and spans segment sizes so every window lands in
// differently-shaped directories.
func TestCrashRecoveryProperty(t *testing.T) {
	type faultSpec struct {
		name string
		rule faultinject.Rule
	}
	// After selects the exact window: appends evaluate PointStoreAppend
	// once per call, rotations evaluate PointStoreRotate at 2 windows,
	// compactions evaluate PointStoreCompact at 4. A spec whose name ends
	// in -sync runs every open with Options.Sync, so the fsync branches
	// of rotation, compaction, the reopen's normalization and Close all
	// execute.
	specs := []faultSpec{
		{"append-torn-early", faultinject.Rule{Point: faultinject.PointStoreAppend, Kind: faultinject.KindError, After: 3, Count: 1}},
		{"append-torn-mid", faultinject.Rule{Point: faultinject.PointStoreAppend, Kind: faultinject.KindError, After: 57, Count: 1}},
		{"append-torn-late", faultinject.Rule{Point: faultinject.PointStoreAppend, Kind: faultinject.KindError, After: 166, Count: 1}},
		{"append-crash", faultinject.Rule{Point: faultinject.PointStoreAppend, Kind: faultinject.KindCrash, After: 41, Count: 1}},
		{"append-torn-repeated", faultinject.Rule{Point: faultinject.PointStoreAppend, Kind: faultinject.KindError, Prob: 0.02}},
		{"rotate-crash-pre-seal", faultinject.Rule{Point: faultinject.PointStoreRotate, Kind: faultinject.KindCrash, Count: 1}},
		{"rotate-crash-post-seal", faultinject.Rule{Point: faultinject.PointStoreRotate, Kind: faultinject.KindCrash, After: 1, Count: 1}},
		{"rotate-crash-later", faultinject.Rule{Point: faultinject.PointStoreRotate, Kind: faultinject.KindCrash, After: 4, Count: 1}},
		{"compact-crash-begin", faultinject.Rule{Point: faultinject.PointStoreCompact, Kind: faultinject.KindCrash, Count: 1}},
		{"compact-crash-torn-tmp", faultinject.Rule{Point: faultinject.PointStoreCompact, Kind: faultinject.KindCrash, After: 1, Count: 1}},
		{"compact-crash-pre-rename", faultinject.Rule{Point: faultinject.PointStoreCompact, Kind: faultinject.KindCrash, After: 2, Count: 1}},
		{"compact-crash-pre-cleanup", faultinject.Rule{Point: faultinject.PointStoreCompact, Kind: faultinject.KindCrash, After: 3, Count: 1}},
		{"compact-crash-pre-cleanup-sync", faultinject.Rule{Point: faultinject.PointStoreCompact, Kind: faultinject.KindCrash, After: 3, Count: 1}},
		{"tail-merge-crash-begin", faultinject.Rule{Point: faultinject.PointStoreCompact, Kind: faultinject.KindCrash, After: 4, Count: 1}},
		{"tail-merge-crash-torn-tmp", faultinject.Rule{Point: faultinject.PointStoreCompact, Kind: faultinject.KindCrash, After: 5, Count: 1}},
		{"tail-merge-crash-pre-rename", faultinject.Rule{Point: faultinject.PointStoreCompact, Kind: faultinject.KindCrash, After: 6, Count: 1}},
		{"tail-merge-crash-pre-cleanup", faultinject.Rule{Point: faultinject.PointStoreCompact, Kind: faultinject.KindCrash, After: 7, Count: 1}},
	}
	segSizes := []int{1, 3, 8, 32}
	const total = 200

	for _, spec := range specs {
		for _, segRecs := range segSizes {
			spec, segRecs := spec, segRecs
			t.Run(spec.name+"/seg"+itoa(segRecs), func(t *testing.T) {
				dir := t.TempDir()
				inj, err := faultinject.New(int64(segRecs)*1000+int64(len(spec.name)), spec.rule)
				if err != nil {
					t.Fatalf("injector: %v", err)
				}
				sync := strings.HasSuffix(spec.name, "-sync")
				opts := auditstore.Options{SegmentRecords: segRecs, CompactSealed: 3, Sync: sync}
				armed := opts
				armed.Hook = inj.Hook()
				st, err := auditstore.Open(dir, armed)
				if err != nil {
					t.Fatalf("open: %v", err)
				}

				// Drive appends until the injected crash (or the end).
				acked := 0
				for i := 0; i < total; i++ {
					if _, err := st.Append(mkRecord(i)); err != nil {
						if !errors.Is(err, auditstore.ErrStoreFailed) {
							t.Fatalf("append %d: %v, want ErrStoreFailed", i, err)
						}
						break
					}
					acked++
				}
				if len(inj.Events()) == 0 {
					t.Fatalf("fault %s never fired in %d appends at segment size %d — dead table row", spec.name, total, segRecs)
				}
				if err := st.Close(); err != nil {
					t.Fatalf("close: %v", err)
				}

				// Reopen: the recovered store must hold exactly the acked
				// prefix, byte-identical (checkPrefix compares encodings).
				st2, err := auditstore.Open(dir, opts)
				if err != nil {
					t.Fatalf("reopen: %v", err)
				}
				checkPrefix(t, st2, acked)
				rec := st2.Recovery()
				if sync && rec.Clean {
					// A pre-cleanup crash leaves the merge output beside
					// its sources, which the reopen must normalize away.
					t.Fatalf("reopen after a pre-cleanup crash was clean: %+v", rec)
				}
				if rec.DroppedBytes > 0 && (rec.Reason == "" || rec.TruncatedFile == "") {
					t.Fatalf("recovery dropped %d bytes silently: %+v", rec.DroppedBytes, rec)
				}
				if !rec.Clean && rec.Truncated && rec.Reason == "" {
					t.Fatalf("truncated recovery without a reason: %+v", rec)
				}

				// The recovered store is a working store: finish the
				// stream on it and verify the whole prefix again.
				for i := acked; i < total; i++ {
					if _, err := st2.Append(mkRecord(i)); err != nil {
						t.Fatalf("append %d after recovery: %v", i, err)
					}
				}
				checkPrefix(t, st2, total)
				if err := st2.Close(); err != nil {
					t.Fatalf("close recovered: %v", err)
				}

				// And a third open is clean: recovery normalized the
				// damage away instead of re-reporting it forever.
				st3, err := auditstore.Open(dir, opts)
				if err != nil {
					t.Fatalf("third open: %v", err)
				}
				defer st3.Close()
				if rec := st3.Recovery(); !rec.Clean {
					t.Fatalf("third open not clean: %+v", rec)
				}
				checkPrefix(t, st3, total)
			})
		}
	}
}

// TestCrashRecoveryRepeated drives a store through many consecutive
// crash/reopen cycles under a probabilistic fault mix — the sustained
// version of the single-window property.
func TestCrashRecoveryRepeated(t *testing.T) {
	dir := t.TempDir()
	rules := []faultinject.Rule{
		{Point: faultinject.PointStoreAppend, Kind: faultinject.KindError, Prob: 0.03},
		{Point: faultinject.PointStoreAppend, Kind: faultinject.KindCrash, Prob: 0.01},
		{Point: faultinject.PointStoreRotate, Kind: faultinject.KindCrash, Prob: 0.05},
		{Point: faultinject.PointStoreCompact, Kind: faultinject.KindCrash, Prob: 0.10},
	}
	inj, err := faultinject.New(42, rules...)
	if err != nil {
		t.Fatalf("injector: %v", err)
	}
	const total = 500
	acked, reopens := 0, 0
	opts := auditstore.Options{SegmentRecords: 4, CompactSealed: 3, Hook: inj.Hook()}
	st, err := auditstore.Open(dir, opts)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	for acked < total {
		if _, err := st.Append(mkRecord(acked)); err != nil {
			if !errors.Is(err, auditstore.ErrStoreFailed) {
				t.Fatalf("append %d: %v", acked, err)
			}
			if err := st.Close(); err != nil {
				t.Fatalf("close after crash %d: %v", reopens, err)
			}
			st, err = auditstore.Open(dir, opts)
			if err != nil {
				t.Fatalf("reopen %d: %v", reopens, err)
			}
			reopens++
			checkPrefix(t, st, acked)
			continue
		}
		acked++
	}
	if reopens == 0 {
		t.Fatalf("no crashes in %d appends — fault mix too weak to test anything", total)
	}
	checkPrefix(t, st, total)
	if err := st.Close(); err != nil {
		t.Fatalf("final close: %v", err)
	}
	t.Logf("survived %d crash/reopen cycles over %d appends", reopens, total)
}

// itoa avoids importing strconv just for subtest names.
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
