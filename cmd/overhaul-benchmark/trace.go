package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// spanName identifies the public call a span times. Layer spans are
// named "<layer>.<call>"; roots are the benchmark's own units of work.
type spanName uint8

const (
	spOp spanName = iota
	spQuery
	spClick
	spDrain
	spPipe
	spOpenGrant
	spOpenDeny
	spClose
	spStealClipboard
	spStealScreen
	spDecide
	spNotify
	spAppendBatch
	spIter
	numSpanNames
)

var spanNames = [numSpanNames]string{
	spOp:             "op",
	spQuery:          "query",
	spClick:          "xserver.click",
	spDrain:          "xserver.input_drain",
	spPipe:           "ipc.pipe_hop",
	spOpenGrant:      "kernel.open_grant",
	spOpenDeny:       "kernel.open_deny",
	spClose:          "fs.close",
	spStealClipboard: "xserver.steal_clipboard",
	spStealScreen:    "xserver.steal_screen",
	spDecide:         "fleet.decide",
	spNotify:         "fleet.notify",
	spAppendBatch:    "auditstore.append_batch",
	spIter:           "auditstore.iter",
}

// span is one timed call. Times are nanoseconds since the buffer's
// epoch; end < 0 marks a span that never ended.
type span struct {
	start, end int64
	op         uint64
	parent     int32 // index of the enclosing span, -1 for a root
	name       spanName
}

// spanBuf holds the spans of one traced trial in a buffer sized up
// front: it never grows, and spans past its end are only counted. It
// is safe for concurrent begin/end calls on distinct spans. A nil
// *spanBuf records nothing, which is how untraced trials run.
//
// The buffer is mapped outside the Go heap (a span holds no pointers):
// a heap buffer would raise the live heap and with it the GC's target,
// so a traced trial would collect less often than an untraced one and
// tracing would seem to speed the program up.
type spanBuf struct {
	epoch   time.Time
	mem     []byte
	spans   []span
	next    atomic.Int64
	dropped atomic.Uint64
}

func newSpanBuf(capacity int) (*spanBuf, error) {
	size := capacity * int(unsafe.Sizeof(span{}))
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_ANON|syscall.MAP_PRIVATE|syscall.MAP_POPULATE)
	if err != nil {
		return nil, fmt.Errorf("map span buffer: %w", err)
	}
	spans := unsafe.Slice((*span)(unsafe.Pointer(unsafe.SliceData(mem))), capacity)
	return &spanBuf{epoch: now(), mem: mem, spans: spans}, nil
}

// release unmaps the buffer; the spanBuf must not be used afterwards.
func (b *spanBuf) release() error {
	b.spans = nil
	return syscall.Munmap(b.mem)
}

// begin opens a span and returns its index, or -1 when the buffer is
// nil or full.
func (b *spanBuf) begin(name spanName, op uint64, parent int32) int32 {
	if b == nil {
		return -1
	}
	i := b.next.Add(1) - 1
	if i >= int64(len(b.spans)) {
		b.dropped.Add(1)
		return -1
	}
	b.spans[i] = span{start: int64(since(b.epoch)), end: -1, op: op, parent: parent, name: name}
	return int32(i)
}

func (b *spanBuf) end(i int32) {
	if i >= 0 {
		b.spans[i].end = int64(since(b.epoch))
	}
}

func (b *spanBuf) recorded() []span {
	return b.spans[:min(b.next.Load(), int64(len(b.spans)))]
}

// layerRow is one line of the self-time table: the time spans of one
// name spent outside their children, as a share of their root's time.
type layerRow struct {
	root, name string
	spans      uint64
	selfNs     float64
	sharePct   float64
}

// traceSummary is what a traced trial yields: per-name inclusive
// durations, the self-time table, and the unattributed share (root
// time not covered by any child span).
type traceSummary struct {
	durations       [numSpanNames]*hist
	rows            []layerRow
	unattributedPct float64
	spans, dropped  uint64
}

// summarize computes self times. A parent always begins before its
// children, so it has the lower index and one forward pass suffices.
func (b *spanBuf) summarize() traceSummary {
	spans := b.recorded()
	childNs := make([]int64, len(spans))
	root := make([]int32, len(spans))
	ts := traceSummary{spans: uint64(len(spans)), dropped: b.dropped.Load()}
	for i := range ts.durations {
		ts.durations[i] = newHist()
	}
	for i, s := range spans {
		root[i] = int32(i)
		if s.end < 0 {
			continue
		}
		if s.parent >= 0 {
			childNs[s.parent] += s.end - s.start
			root[i] = root[s.parent]
		}
	}
	type key struct{ root, name spanName }
	self := map[key]*layerRow{}
	rootNs := map[spanName]float64{}
	var rootSelf float64
	for i, s := range spans {
		if s.end < 0 {
			continue
		}
		d := s.end - s.start
		ts.durations[s.name].record(d)
		r := spans[root[i]].name
		if s.parent < 0 {
			rootNs[r] += float64(d)
			if r == spOp {
				rootSelf += float64(d - childNs[i])
			}
		}
		k := key{r, s.name}
		row := self[k]
		if row == nil {
			row = &layerRow{root: spanNames[r], name: spanNames[s.name]}
			if s.name == r {
				row.name = "unattributed"
			}
			self[k] = row
		}
		row.spans++
		row.selfNs += float64(d - childNs[i])
	}
	for k, row := range self {
		if t := rootNs[k.root]; t > 0 {
			row.sharePct = 100 * row.selfNs / t
		}
		ts.rows = append(ts.rows, *row)
	}
	sort.Slice(ts.rows, func(i, j int) bool {
		a, b := ts.rows[i], ts.rows[j]
		if a.root != b.root {
			return a.root < b.root
		}
		return a.selfNs > b.selfNs
	})
	if t := rootNs[spOp]; t > 0 {
		ts.unattributedPct = 100 * rootSelf / t
	}
	return ts
}

// printTable writes the self-time table for one workload.
func (ts *traceSummary) printTable(w io.Writer, workload string) {
	fmt.Fprintf(w, "self time, %s (%d spans, %d dropped)\n", workload, ts.spans, ts.dropped)
	fmt.Fprintf(w, "  %-6s %-26s %10s %12s %8s\n", "root", "layer", "spans", "self_ms", "share")
	for _, r := range ts.rows {
		fmt.Fprintf(w, "  %-6s %-26s %10d %12.3f %7.2f%%\n", r.root, r.name, r.spans, r.selfNs/1e6, r.sharePct)
	}
}

// traceTrial runs fn with a fresh span buffer, then summarizes the
// spans, writes them to cfg.spansOut when set, and unmaps the buffer.
func traceTrial(cfg config, workload string, fn func(sp *spanBuf) error) (ts *traceSummary, err error) {
	sp, err := newSpanBuf(cfg.spanCap)
	if err != nil {
		return nil, err
	}
	defer func() { err = errors.Join(err, sp.release()) }()
	if err := fn(sp); err != nil {
		return nil, err
	}
	sum := sp.summarize()
	if cfg.spansOut != nil {
		if err := sp.writeJSONL(cfg.spansOut, workload); err != nil {
			return nil, err
		}
	}
	return &sum, nil
}

// writeJSONL appends every recorded span to w, one JSON object a line.
func (b *spanBuf) writeJSONL(w io.Writer, workload string) error {
	bw := bufio.NewWriter(w)
	var line []byte
	for i, s := range b.recorded() {
		line = append(line[:0], `{"workload":`...)
		line = strconv.AppendQuote(line, workload)
		line = append(line, `,"id":`...)
		line = strconv.AppendInt(line, int64(i), 10)
		line = append(line, `,"op":`...)
		line = strconv.AppendUint(line, s.op, 10)
		line = append(line, `,"name":`...)
		line = strconv.AppendQuote(line, spanNames[s.name])
		line = append(line, `,"parent":`...)
		line = strconv.AppendInt(line, int64(s.parent), 10)
		line = append(line, `,"start_ns":`...)
		line = strconv.AppendInt(line, s.start, 10)
		line = append(line, `,"end_ns":`...)
		line = strconv.AppendInt(line, s.end, 10)
		line = append(line, "}\n"...)
		if _, err := bw.Write(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}
