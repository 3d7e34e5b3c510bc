package auditstore

import (
	"path/filepath"
	"slices"
	"unsafe"
)

// SealedPaths returns the sealed segment files' paths, oldest first:
// every segment file in the directory but the active one. It waits out
// any in-flight commit, like SegmentCount.
func (fs *FileStore) SealedPaths() []string {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	for fs.committing {
		fs.commitDone.Wait()
	}
	paths, _ := filepath.Glob(filepath.Join(fs.dir, segPrefix+"*"+segSuffix))
	if fs.cur != nil {
		paths = slices.DeleteFunc(paths, func(p string) bool { return p == fs.segPath(fs.curID) })
	}
	return paths
}

// LoadSharingBuffer loads the named segment files of dir in order
// through one read buffer, as one loadSegments worker does, and only
// then reads back each segment's decoded records.
func LoadSharingBuffer(dir string, names ...string) ([][]Record, error) {
	var buf []byte
	segs := make([]*segment, len(names))
	for i, name := range names {
		segs[i] = &segment{name: name}
		if err := segs[i].load(dir, nil, &buf); err != nil {
			return nil, err
		}
	}
	out := make([][]Record, len(segs))
	for i, s := range segs {
		v := s.frames.view()
		out[i] = make([]Record, v.n)
		for j := range out[i] {
			v.fill(j, &out[i][j])
		}
	}
	return out, nil
}

// IndexBytes sums the capacities the store's index holds: its entry
// chunks and chunk table, its posting lists, and its kind table (each
// kind, its key bytes and its verdict slot). It counts no map or
// allocator overhead, so unlike a live-heap delta it moves only with
// what the index holds and how it grows.
func (fs *FileStore) IndexBytes() int {
	m := fs.idx
	m.mu.RLock()
	defer m.mu.RUnlock()
	const (
		entrySize  = int(unsafe.Sizeof(entry{}))
		headerSize = int(unsafe.Sizeof([]entry(nil)))
		kindSize   = int(unsafe.Sizeof(kind{}))
	)
	n := cap(m.chunks) * headerSize
	for _, c := range m.chunks {
		n += cap(c) * entrySize
	}
	for _, p := range m.byPID {
		n += headerSize + 4*cap(p)
	}
	n += cap(m.byVerdict) * headerSize
	for _, p := range m.byVerdict {
		n += 4 * cap(p)
	}
	n += cap(m.kinds.kinds)*kindSize + 4*cap(m.verdictOf)
	for _, k := range m.kinds.kinds {
		n += len(k.tail)
	}
	return n
}

// Queued reports how many records wait in the commit queue and whether
// a commit leader holds the file state.
func (fs *FileStore) Queued() (records int, leading bool) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return len(fs.queue), fs.committing
}
