package auditstore

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
