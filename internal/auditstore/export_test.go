package auditstore

import "unsafe"

// SealedLayout returns each sealed segment's path and record count,
// oldest first. It waits out any in-flight commit, like SegmentCount.
func (fs *FileStore) SealedLayout() (paths []string, recs []int) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	for fs.committing {
		fs.commitDone.Wait()
	}
	for _, s := range fs.sealed {
		paths = append(paths, s.path)
		recs = append(recs, s.recs)
	}
	return paths, recs
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
