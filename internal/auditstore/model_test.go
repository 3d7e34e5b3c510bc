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
// Each directory interleaves, under fresh ids, the files of a store
// with a random share of the files of a second store over the same
// sequences, written with larger segments and different reasons: the
// overlapping copies a crash during normalization, or an older store
// that merged segments, leaves behind. Copies of one sequence differ,
// so taking any but the first intact one shows. GOMAXPROCS is 2 so
// the segments decode concurrently.
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

// modelFile is one segment file a store wrote.
type modelFile struct {
	path   string
	sealed bool
	recs   []auditstore.Record // as written, when sealed
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
	primary := auditstore.Options{SegmentRecords: s}
	own := writeModelStore(t, primary, batches, "")
	copies := writeModelStore(t, auditstore.Options{SegmentRecords: s * (2 + rng.Intn(3))}, batches, "copy ")
	// In thirds, how many of the copies join the directory: none in
	// half the directories, so the damage alone decides their opens.
	keep := max(0, rng.Intn(4)-1)
	copies = slices.DeleteFunc(copies, func(modelFile) bool { return rng.Intn(3) >= keep })
	// Each store's files keep their own order; an id is skipped now and
	// then, so an empty segment can later take it.
	for id := uint64(1); len(own)+len(copies) > 0; id++ {
		if rng.Intn(4) == 0 {
			id++
		}
		var f modelFile
		if len(copies) == 0 || len(own) > 0 && rng.Intn(2) == 0 {
			f, own = own[0], own[1:]
		} else {
			f, copies = copies[0], copies[1:]
		}
		name := fmt.Sprintf("seg-%08x.seg", id)
		copyFile(t, f.path, filepath.Join(md.dir, name))
		if f.sealed {
			md.pristine[name] = f.recs
		}
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
// prefixed, into a store in a fresh directory and returns its segment
// files, oldest first, with each sealed file's records.
func writeModelStore(t *testing.T, opts auditstore.Options, batches []int, prefix string) []modelFile {
	t.Helper()
	dir := t.TempDir()
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
	sealed := st.SealedPaths()
	if err := st.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	var files []modelFile
	for _, name := range dirNames(t, dir) {
		f := modelFile{path: filepath.Join(dir, name)}
		if f.sealed = slices.Contains(sealed, f.path); f.sealed {
			f.recs = decodeFile(t, f.path).recs
		}
		files = append(files, f)
	}
	return files
}

// damageModelDir applies a random subset of the damage recovery must
// survive: a torn newest segment, a flipped byte in a sealed
// segment's frames, a damaged footer, a missing middle file, empty
// segments, and a staging leftover. One directory in eight is left
// undamaged, so clean opens are checked too, and one in eight gets
// only empty segments, so the empty-segment rule decides alone whether
// the open is clean.
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
	// An empty segment takes a free id up to one past the newest: below
	// the newest file it was superseded, and normalization removes it;
	// as the newest file, a clean open adopts it as the active segment.
	addEmpties := func(n int) {
		for ; n > 0; n-- {
			all := names()
			newest := segID(t, all[len(all)-1])
			var free []uint64
			for id := uint64(1); id <= newest+1; id++ {
				if !slices.Contains(all, fmt.Sprintf("seg-%08x.seg", id)) {
					free = append(free, id)
				}
			}
			name := fmt.Sprintf("seg-%08x.seg", free[rng.Intn(len(free))])
			if err := os.WriteFile(filepath.Join(md.dir, name), []byte(segMagic), 0o600); err != nil {
				t.Fatalf("write: %v", err)
			}
		}
	}
	switch rng.Intn(8) {
	case 0:
		return
	case 1:
		addEmpties(1 + rng.Intn(2))
		return
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
	addEmpties(rng.Intn(3))
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
// sequence, ending at the first sequence no copy holds. An empty
// segment is an anomaly when a file with a higher id exists, wherever
// the merge order puts it.
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
	var newest uint64
	for _, s := range segs {
		newest = max(newest, s.id)
	}
	for _, s := range segs {
		anomaly = anomaly || (s.count == 0 && s.trunc == nil && s.id < newest)
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
