package auditstore

import (
	"fmt"
	"math"
	"time"
)

// Cold segment scans: query a store directory without opening a
// FileStore (no in-memory index is built, no active segment is
// adopted). The directory is read through the same merge recovery
// uses, so an unbounded cold scan and a reopened store return the same
// records. The sealed-segment footers drive two prunings a warm Scan
// gets from the memory index: a whole segment whose sentinel
// prefix-maximum time predates a Since bound is skipped without
// decoding a single frame, and within the first segment that straddles
// the bound the block index seeks the starting frame. Both trust the
// footer, so damage in the frames they pass is not seen and does not
// end the trail as it ends recovery's. This is the forensics path —
// overhaul-top -store -cold — where a trail is read once and building
// the full index first would dominate the query.

// ColdStats reports what a ScanSegments pass did.
type ColdStats struct {
	// Segments is the number of segment files seen.
	Segments int `json:"segments"`
	// SkippedSegments counts segments pruned whole by their footer's
	// time bound; SeekedSegments counts segments entered mid-stream
	// through the block index.
	SkippedSegments int `json:"skipped_segments"`
	SeekedSegments  int `json:"seeked_segments"`
	// Records is the number of records decoded (not the number
	// matched); Matched counts records handed to yield.
	Records int `json:"records"`
	Matched int `json:"matched"`
	// Truncated reports the first damage or sequence gap the merge met,
	// as the warm path's Recovery report does.
	Truncated     bool   `json:"truncated,omitempty"`
	TruncatedFile string `json:"truncated_file,omitempty"`
	Reason        string `json:"reason,omitempty"`
}

// ScanSegments streams the records of a store directory matching q
// into yield without opening the store, using sealed-segment footers
// to prune and seek (see above). yield returning false stops the scan
// early. A v1 JSONL segment in the directory fails the scan, naming
// the file.
func ScanSegments(dir string, q Query, yield func(Record) bool) (ColdStats, error) {
	var stats ColdStats
	var seek seekFunc
	if _, ok, err := timeNanos(q.Since); ok && err == nil {
		seek = func(s *segment) (blockEntry, bool) { return seekBlock(s.footer, q.Since) }
	}
	segs, _, err := loadSegments(dir, seek)
	if err != nil {
		return stats, fmt.Errorf("auditstore: cold scan: %w", err)
	}
	stats.Segments = len(segs)
	var m merger
	var r Record
	m.walk(segs, func(f *frames, from, to int) bool {
		v := f.view()
		for i := from; i < to; i++ {
			stats.Records++
			if v.fill(i, &r); !q.Matches(r) {
				continue
			}
			stats.Matched++
			if !yield(r) || (q.Limit > 0 && stats.Matched >= q.Limit) {
				return false
			}
		}
		return true
	})
	stats.SkippedSegments, stats.SeekedSegments = m.skipped, m.seeked
	stats.Truncated, stats.TruncatedFile, stats.Reason = m.reason != "", m.file, m.reason
	return stats, nil
}

// SegmentsNewest returns the newest record time in a store directory,
// reading only footers where possible — what a relative -since bound
// (e.g. "5m") is anchored to on the cold path.
func SegmentsNewest(dir string) (time.Time, error) {
	// A seek to the sentinel skips every sealed segment's frames.
	segs, _, err := loadSegments(dir, func(s *segment) (blockEntry, bool) { return s.footer[len(s.footer)-1], true })
	if err != nil {
		return time.Time{}, fmt.Errorf("auditstore: cold scan: %w", err)
	}
	newest := int64(math.MinInt64)
	for _, s := range segs {
		newest = max(newest, s.maxT)
	}
	if newest == math.MinInt64 {
		return time.Time{}, nil
	}
	return time.Unix(0, newest).UTC(), nil
}
