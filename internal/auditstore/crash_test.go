package auditstore_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"overhaul/internal/auditstore"
	"overhaul/internal/faultinject"
)

// TestCrashRecoveryProperty is the crash-recovery property test: for
// every faultinject crash window — torn append, and a crash
// mid-rotation at either protocol window, in the first rotation or a
// later one — reopening the directory yields a byte-identical prefix
// of the pre-crash stream. Acked records are never lost, unacked
// records never appear, and any discarded bytes are reported, never
// silent. The table is seeded and spans segment sizes so every window
// lands in differently-shaped directories.
//
// The compact-crash and tail-merge-crash rows reopen the directories
// an older store left when it crashed in one of the four windows of a
// merge (see plantLegacyMerge): the store no longer merges, but it
// must still open what such a store wrote. A spec whose name ends in
// -sync runs every open with Options.Sync, so the fsync branches of
// rotation, the reopen's normalization and Close all execute.
func TestCrashRecoveryProperty(t *testing.T) {
	type faultSpec struct {
		name string
		rule faultinject.Rule
		// merge, when nonzero, makes the row a legacy-merge row: the
		// store crashes in the rotation that sealed its (3·merge)th
		// segment, and window names the merge window whose leftovers
		// are then planted.
		merge  int
		window string
	}
	// After selects the exact window: appends evaluate PointStoreAppend
	// once per call, rotations evaluate PointStoreRotate at 2 windows.
	specs := []faultSpec{
		{name: "append-torn-early", rule: faultinject.Rule{Point: faultinject.PointStoreAppend, Kind: faultinject.KindError, After: 3, Count: 1}},
		{name: "append-torn-mid", rule: faultinject.Rule{Point: faultinject.PointStoreAppend, Kind: faultinject.KindError, After: 57, Count: 1}},
		{name: "append-torn-late", rule: faultinject.Rule{Point: faultinject.PointStoreAppend, Kind: faultinject.KindError, After: 166, Count: 1}},
		{name: "append-crash", rule: faultinject.Rule{Point: faultinject.PointStoreAppend, Kind: faultinject.KindCrash, After: 41, Count: 1}},
		{name: "append-torn-repeated", rule: faultinject.Rule{Point: faultinject.PointStoreAppend, Kind: faultinject.KindError, Prob: 0.02}},
		{name: "rotate-crash-pre-seal", rule: faultinject.Rule{Point: faultinject.PointStoreRotate, Kind: faultinject.KindCrash, Count: 1}},
		{name: "rotate-crash-post-seal", rule: faultinject.Rule{Point: faultinject.PointStoreRotate, Kind: faultinject.KindCrash, After: 1, Count: 1}},
		{name: "rotate-crash-later", rule: faultinject.Rule{Point: faultinject.PointStoreRotate, Kind: faultinject.KindCrash, After: 4, Count: 1}},
		{name: "compact-crash-begin", merge: 1, window: "begin"},
		{name: "compact-crash-torn-tmp", merge: 1, window: "torn-tmp"},
		{name: "compact-crash-pre-rename", merge: 1, window: "pre-rename"},
		{name: "compact-crash-pre-cleanup", merge: 1, window: "pre-cleanup"},
		{name: "compact-crash-pre-cleanup-sync", merge: 1, window: "pre-cleanup"},
		{name: "tail-merge-crash-begin", merge: 2, window: "begin"},
		{name: "tail-merge-crash-torn-tmp", merge: 2, window: "torn-tmp"},
		{name: "tail-merge-crash-pre-rename", merge: 2, window: "pre-rename"},
		{name: "tail-merge-crash-pre-cleanup", merge: 2, window: "pre-cleanup"},
	}
	segSizes := []int{1, 3, 8, 32}
	const total = 200

	for _, spec := range specs {
		for _, segRecs := range segSizes {
			spec, segRecs := spec, segRecs
			t.Run(spec.name+"/seg"+itoa(segRecs), func(t *testing.T) {
				dir := t.TempDir()
				rule := spec.rule
				if spec.merge > 0 {
					// Records 0..3·merge·segRecs−1 fill that many
					// segments; the next one rotates the last of them
					// sealed, opens a fresh active segment, and crashes
					// leaving it empty — the state the older store's
					// merge began from.
					rule = faultinject.Rule{Point: faultinject.PointStoreAppend, Kind: faultinject.KindCrash, After: 3 * spec.merge * segRecs, Count: 1}
				}
				inj, err := faultinject.New(int64(segRecs)*1000+int64(len(spec.name)), rule)
				if err != nil {
					t.Fatalf("injector: %v", err)
				}
				opts := auditstore.Options{SegmentRecords: segRecs, Sync: strings.HasSuffix(spec.name, "-sync")}
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
				planted := ""
				if spec.merge > 0 {
					if want := 3 * spec.merge * segRecs; acked != want {
						t.Fatalf("%d acked, want the crash at record %d", acked, want)
					}
					planted = plantLegacyMerge(t, dir, segRecs, spec.merge, spec.window)
				}

				// Reopen: the recovered store must hold exactly the acked
				// prefix, byte-identical (checkPrefix compares encodings).
				st2, err := auditstore.Open(dir, opts)
				if err != nil {
					t.Fatalf("reopen: %v", err)
				}
				checkPrefix(t, st2, acked)
				rec := st2.Recovery()
				if spec.merge > 0 {
					// A merge crash damages nothing: at begin it left a
					// consistent layout, and any later window a tmp or a
					// merged copy beside its sources, which the reopen
					// must remove.
					if rec.Truncated || rec.DroppedBytes > 0 || rec.DroppedRecords > 0 {
						t.Fatalf("window %s: reopen lost data: %+v", spec.window, rec)
					}
					if rec.Clean != (planted == "") {
						t.Fatalf("window %s: reopen clean = %v: %+v", spec.window, rec.Clean, rec)
					}
					if planted != "" && !slices.Contains(rec.RemovedFiles, planted) {
						t.Fatalf("window %s: %s left in place: %+v", spec.window, planted, rec)
					}
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
	}
	inj, err := faultinject.New(42, rules...)
	if err != nil {
		t.Fatalf("injector: %v", err)
	}
	const total = 500
	acked, reopens := 0, 0
	opts := auditstore.Options{SegmentRecords: 4, Hook: inj.Hook()}
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

// plantLegacyMerge turns dir — a store of segment size s that crashed
// right after the rotation sealing its (3·merge)th segment — into the
// directory an older store left when it crashed in the given window
// of that rotation's merge. That store merged every three sealed
// segments of one size into one segment under a fresh file id: stage
// a tmp, rename it into place, then remove the sources. Its second
// merge (merge 2) is a tail merge of the newest three segments beside
// the first merge's output. The planted files are sealed segments
// holding the same records as their sources, written by a store of
// segment size 3·s. It returns the name of the file the window left
// ("" for begin, which leaves nothing).
func plantLegacyMerge(t *testing.T, dir string, s, merge int, window string) string {
	t.Helper()
	seg := func(id int) string { return fmt.Sprintf("seg-%08x.seg", id) }
	at := func(name string) string { return filepath.Join(dir, name) }
	if merge == 2 {
		// The first merge finished: its output, [0, 3s), took id 5,
		// after the active segment 4 that the next records filled, so
		// the later segments and the empty active one sit one id up.
		for id := 1; id <= 3; id++ {
			if err := os.Remove(at(seg(id))); err != nil {
				t.Fatalf("remove merged source: %v", err)
			}
		}
		for id := 7; id >= 5; id-- {
			if err := os.Rename(at(seg(id)), at(seg(id+1))); err != nil {
				t.Fatalf("renumber: %v", err)
			}
		}
		if err := os.WriteFile(at(seg(5)), legacySegment(t, s, 3*s), 0o600); err != nil {
			t.Fatalf("write first merge: %v", err)
		}
	}
	// The merge output takes the id after the empty active segment.
	name := seg(4*merge + 1)
	if _, err := os.Stat(at(seg(4 * merge))); err != nil {
		t.Fatalf("active segment before the merge: %v", err)
	}
	buf := legacySegment(t, s, 3*merge*s)
	switch window {
	case "begin":
		return ""
	case "torn-tmp":
		name, buf = name+".tmp", buf[:len(buf)/2]
	case "pre-rename":
		name += ".tmp"
	case "pre-cleanup":
	default:
		t.Fatalf("unknown merge window %q", window)
	}
	if err := os.WriteFile(at(name), buf, 0o600); err != nil {
		t.Fatalf("plant %s: %v", name, err)
	}
	return name
}

// legacySegment returns a sealed segment file holding records
// [n−3s, n) of the mkRecord stream.
func legacySegment(t *testing.T, s, n int) []byte {
	t.Helper()
	st, err := auditstore.Open(t.TempDir(), auditstore.Options{SegmentRecords: 3 * s})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	fillStore(t, st, n+1) // record n rotates [n−3s, n) sealed
	paths := st.SealedPaths()
	if err := st.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	buf, err := os.ReadFile(paths[len(paths)-1])
	if err != nil {
		t.Fatalf("read sealed segment: %v", err)
	}
	return buf
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
