package auditstore_test

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"overhaul/internal/auditstore"
)

// TestRecoveryMatchesModel builds random multi-segment directories
// through the store, damages them, and checks what Open recovers —
// every record and every Recovery field — and what the cold scan
// reads against a sequential model of the merge: DecodeBinarySegment
// per file, then the first-intact-copy rule applied record by record.
// A second store over the same sequences, with different reasons and
// no compaction, supplies the uncleaned compaction sources, so copies
// of one sequence differ and taking any but the first intact one
// shows. GOMAXPROCS is 2 so the segments decode concurrently.
func TestRecoveryMatchesModel(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for seed := int64(1); seed <= 80; seed++ {
		t.Run(strconv.FormatInt(seed, 10), func(t *testing.T) {
			checkRecoveryModel(t, rand.New(rand.NewSource(seed)))
		})
	}
}

// modelDir is a store directory as the test built and damaged it.
type modelDir struct {
	dir string
	// pristine holds each sealed file's records as written; a name
	// stays in it while the file's footer is intact.
	pristine map[string][]auditstore.Record
}

func checkRecoveryModel(t *testing.T, rng *rand.Rand) {
	s := 3 + rng.Intn(6)
	n := 6*s + rng.Intn(12*s)
	var batches []int
	for left := n; left > 0; {
		b := min(left, 1+rng.Intn(2*s))
		batches = append(batches, b)
		left -= b
	}
	md := modelDir{dir: t.TempDir(), pristine: map[string][]auditstore.Record{}}
	primary := auditstore.Options{SegmentRecords: s, CompactSealed: 2 + rng.Intn(3)}
	writeModelStore(t, md, md.dir, primary, batches, "")
	// Same batches, so the same rotations and file ids up to the first
	// merge: the files the primary's compactions removed are here.
	sources := t.TempDir()
	writeModelStore(t, md, sources, auditstore.Options{SegmentRecords: s, CompactSealed: -1}, batches, "uncleaned ")
	keep := rng.Intn(3) // in thirds: how many of the missing sources are left beside the merges
	for _, name := range dirNames(t, sources) {
		if _, err := os.Stat(filepath.Join(md.dir, name)); err == nil || rng.Intn(3) >= keep {
			delete(md.pristine, name+"@"+sources)
			continue
		}
		copyFile(t, filepath.Join(sources, name), filepath.Join(md.dir, name))
		if recs, ok := md.pristine[name+"@"+sources]; ok {
			md.pristine[name] = recs
		}
		delete(md.pristine, name+"@"+sources)
	}
	damageModelDir(t, rng, md)

	want, wantRec := recoveryModel(t, md)
	cold, stats := coldRecords(t, md.dir, auditstore.Query{})
	exactRecords(t, "cold scan vs model", cold, want)
	if stats.Truncated != wantRec.Truncated || stats.TruncatedFile != wantRec.TruncatedFile || stats.Reason != wantRec.Reason {
		t.Fatalf("cold scan reports %+v, model %+v", stats, wantRec)
	}
	st, err := auditstore.Open(md.dir, primary)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	got, err := auditstore.ScanAll(st, auditstore.Query{})
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	exactRecords(t, "recovered vs model", got, want)
	if rec := st.Recovery(); !reflect.DeepEqual(rec, wantRec) {
		t.Fatalf("recovery:\n got %+v\nwant %+v", rec, wantRec)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	again, err := auditstore.Open(md.dir, primary)
	if err != nil {
		t.Fatalf("second open: %v", err)
	}
	defer again.Close()
	if rec := again.Recovery(); !rec.Clean {
		t.Fatalf("second open not clean: %+v", rec)
	}
	reread, err := auditstore.ScanAll(again, auditstore.Query{})
	if err != nil {
		t.Fatalf("second scan: %v", err)
	}
	exactRecords(t, "after normalize", reread, want)
}

// writeModelStore appends the batches of mkRecord records, reasons
// prefixed, into a store in dir and records each sealed file's
// records in md.pristine, keyed name@dir outside md.dir.
func writeModelStore(t *testing.T, md modelDir, dir string, opts auditstore.Options, batches []int, prefix string) {
	t.Helper()
	st, err := auditstore.Open(dir, opts)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	i := 0
	for _, b := range batches {
		var recs []auditstore.Record
		for ; len(recs) < b; i++ {
			r := mkRecord(i)
			r.Reason = prefix + r.Reason
			recs = append(recs, r)
		}
		if _, err := st.AppendBatch(recs); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	paths, _ := st.SealedLayout()
	if err := st.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	for _, p := range paths {
		key := filepath.Base(p)
		if dir != md.dir {
			key += "@" + dir
		}
		md.pristine[key] = decodeFile(t, p).recs
	}
}

// damageModelDir applies a random subset of the damage recovery must
// survive: a torn newest segment, a flipped byte in a sealed
// segment's frames, a damaged footer, a missing middle file, an empty
// segment that is not the newest, and a staging leftover.
func damageModelDir(t *testing.T, rng *rand.Rand, md modelDir) {
	t.Helper()
	names := func() []string {
		var out []string
		for _, name := range dirNames(t, md.dir) {
			if !strings.HasSuffix(name, ".tmp") {
				out = append(out, name)
			}
		}
		return out
	}
	rewrite := func(name string, edit func([]byte) []byte) {
		p := filepath.Join(md.dir, name)
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		if err := os.WriteFile(p, edit(data), 0o600); err != nil {
			t.Fatalf("write: %v", err)
		}
	}
	sealed := func() []string {
		var out []string
		for _, name := range names() {
			if _, ok := md.pristine[name]; ok {
				out = append(out, name)
			}
		}
		return out
	}
	if rng.Intn(2) == 0 {
		all := names()
		newest := all[len(all)-1]
		rewrite(newest, func(data []byte) []byte {
			if len(data) <= len(segMagic) {
				return data
			}
			return data[:len(segMagic)+rng.Intn(len(data)-len(segMagic))]
		})
		delete(md.pristine, newest) // a torn footer is no footer
	}
	if ss := sealed(); len(ss) > 0 && rng.Intn(2) == 0 {
		name := ss[rng.Intn(len(ss))]
		frames := len(segMagic)
		for _, r := range md.pristine[name] {
			frame, err := encodeFrame(r)
			if err != nil {
				t.Fatalf("encode: %v", err)
			}
			frames += len(frame)
		}
		rewrite(name, func(data []byte) []byte {
			data[len(segMagic)+rng.Intn(frames-len(segMagic))] ^= byte(1 + rng.Intn(255))
			return data
		})
	}
	if ss := sealed(); len(ss) > 0 && rng.Intn(3) == 0 {
		name := ss[rng.Intn(len(ss))]
		rewrite(name, func(data []byte) []byte {
			data[len(data)-1-rng.Intn(12)] ^= 0x10 // the trailer: body CRC, length, magic
			return data
		})
		delete(md.pristine, name)
	}
	if all := names(); len(all) > 2 && rng.Intn(3) == 0 {
		name := all[1+rng.Intn(len(all)-2)]
		if err := os.Remove(filepath.Join(md.dir, name)); err != nil {
			t.Fatalf("remove: %v", err)
		}
		delete(md.pristine, name)
	}
	// Empty segments sort after every segment holding records, so only
	// the second of two is "not the newest" to the merge.
	for empties := rng.Intn(3); empties > 0; empties-- {
		all := names()
		newest := segID(t, all[len(all)-1])
		for id := uint64(1); id < newest; id++ {
			name := fmt.Sprintf("seg-%08x.seg", id)
			if !slices.Contains(all, name) {
				if err := os.WriteFile(filepath.Join(md.dir, name), []byte(segMagic), 0o600); err != nil {
					t.Fatalf("write: %v", err)
				}
				break
			}
		}
	}
	if rng.Intn(4) == 0 {
		if err := os.WriteFile(filepath.Join(md.dir, "seg-000000ff.seg.tmp"), []byte("staged"), 0o600); err != nil {
			t.Fatalf("write: %v", err)
		}
	}
}

// modelSeg is one segment file as the model reads it.
type modelSeg struct {
	name  string
	id    uint64
	size  int
	recs  []auditstore.Record
	trunc *auditstore.Truncation
	// first, last and count are the sequences the file holds: its
	// footer's range while the footer is intact, else what decoded.
	first, last uint64
	count       int
}

// decodeFile reads one segment file through DecodeBinarySegment.
func decodeFile(t *testing.T, path string) modelSeg {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	recs, _, trunc := auditstore.DecodeBinarySegment(data)
	s := modelSeg{name: filepath.Base(path), size: len(data), recs: recs, trunc: trunc}
	if len(recs) > 0 {
		s.first, s.last, s.count = recs[0].Seq, recs[len(recs)-1].Seq, len(recs)
	}
	return s
}

// segID parses a segment file name's id.
func segID(t *testing.T, name string) uint64 {
	t.Helper()
	id, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "seg-"), ".seg"), 16, 64)
	if err != nil {
		t.Fatalf("segment name %q: %v", name, err)
	}
	return id
}

// recoveryModel reads md.dir sequentially: every file decoded, the
// files ordered by (first sequence, id) with empty ones last, and the
// stream taken record by record from the first intact copy of each
// sequence, ending at the first sequence no copy holds.
func recoveryModel(t *testing.T, md modelDir) ([]auditstore.Record, auditstore.Recovery) {
	t.Helper()
	var rec auditstore.Recovery
	var segs []modelSeg
	for _, name := range dirNames(t, md.dir) {
		if strings.HasSuffix(name, ".tmp") {
			rec.RemovedFiles = append(rec.RemovedFiles, name)
			continue
		}
		s := decodeFile(t, filepath.Join(md.dir, name))
		s.id = segID(t, name)
		if recs, ok := md.pristine[name]; ok {
			s.first, s.last, s.count = recs[0].Seq, recs[len(recs)-1].Seq, len(recs)
		}
		segs = append(segs, s)
	}
	tmps := len(rec.RemovedFiles)
	key := func(s modelSeg) uint64 {
		if s.count == 0 {
			return math.MaxUint64
		}
		return s.first
	}
	slices.SortFunc(segs, func(a, b modelSeg) int {
		return cmp.Or(cmp.Compare(key(a), key(b)), cmp.Compare(a.id, b.id))
	})
	rec.Segments = len(segs)

	var out []auditstore.Record
	next, overlap, stop := uint64(0), false, len(segs)
	gap := func(seq uint64) string {
		return fmt.Sprintf("sequence gap: have %d, next record is %d", next-1, seq)
	}
	note := func(file string, offset int, reason string) {
		if rec.Reason == "" {
			rec.TruncatedFile, rec.TruncatedOffset, rec.Reason = file, offset, reason
		}
	}
	damage := func(s modelSeg, tr *auditstore.Truncation) {
		rec.DroppedBytes += s.size - tr.Offset
		note(s.name, tr.Offset, tr.Reason)
	}
walk:
	for i, s := range segs {
		switch {
		case s.count == 0:
			if s.trunc != nil {
				damage(s, s.trunc)
			}
			continue
		case next != 0 && s.last < next:
			overlap = true
			continue
		case next != 0 && s.first > next:
			note(s.name, len(segMagic), gap(s.first))
			stop = i
			break walk
		}
		trunc, off := s.trunc, len(segMagic)
		for _, r := range s.recs {
			if r.Seq < next {
				overlap = true
			} else if next != 0 && r.Seq > next {
				trunc = &auditstore.Truncation{Offset: off, Reason: gap(r.Seq)}
				break
			} else {
				next = r.Seq + 1
				out = append(out, r)
			}
			frame, err := encodeFrame(r)
			if err != nil {
				t.Fatalf("encode: %v", err)
			}
			off += len(frame)
		}
		if trunc != nil {
			damage(s, trunc)
		}
	}
	for _, s := range segs[stop:] {
		rec.DroppedRecords += len(s.recs)
		if s.trunc != nil {
			rec.DroppedBytes += s.size - s.trunc.Offset
		}
	}
	rec.Records = len(out)
	if len(out) > 0 {
		rec.LastSeq = out[len(out)-1].Seq
	}
	rec.Truncated = rec.Reason != ""
	anomaly := tmps > 0 || overlap || rec.Truncated
	for i, s := range segs {
		anomaly = anomaly || (s.count == 0 && s.trunc == nil && i < len(segs)-1)
	}
	rec.Clean = !anomaly
	if anomaly {
		for _, s := range segs {
			rec.RemovedFiles = append(rec.RemovedFiles, s.name)
		}
	}
	return out, rec
}

// copyFile copies one file.
func copyFile(t *testing.T, from, to string) {
	t.Helper()
	data, err := os.ReadFile(from)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if err := os.WriteFile(to, data, 0o600); err != nil {
		t.Fatalf("write: %v", err)
	}
}
