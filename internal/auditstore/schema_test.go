package auditstore_test

import (
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"overhaul/internal/auditstore"
	"overhaul/internal/clock"
	"overhaul/internal/monitor"
	"overhaul/internal/probe"
	"overhaul/internal/telemetry"
)

// TestRecordGoldenEncoding pins the on-disk segment format to a
// literal: the bytes a store writes for a sealed segment holding one
// record — header, one frame, footer. If this test breaks, existing
// store directories stop decoding: change the format only with a
// migration story.
func TestRecordGoldenEncoding(t *testing.T) {
	r := auditstore.Record{
		Time:    time.Date(2016, 3, 1, 9, 0, 2, 0, time.UTC),
		Session: 7,
		PID:     1234,
		Op:      "open_device",
		Verdict: "deny",
		Reason:  "no interaction stamp",
		Stamp:   time.Date(2016, 3, 1, 8, 59, 0, 0, time.UTC),
	}
	const (
		header = "4f5648534547320a" // magic "OVHSEG2\n"
		// uvarint payload length 61 | payload | CRC-32 (IEEE, LE). The
		// payload: uvarint seq 1 | flags time+stamp | zigzag varint
		// time and stamp nanos | uvarint session 7 | zigzag varint pid
		// 1234 | three uvarint-length-prefixed strings.
		frame = "3d" +
			"01" + "06" + "80d0b1ded5a7d6b728" + "80a0cae687a4d6b728" + "07" + "a413" +
			"0b" + "6f70656e5f646576696365" + // "open_device"
			"04" + "64656e79" + // "deny"
			"14" + "6e6f20696e746572616374696f6e207374616d70" + // "no interaction stamp"
			"4b1c4188"
		// marker 0x00 | index body: uvarint 2 entries, each (uvarint
		// seq, uvarint offset, zigzag varint max time before) — block 1
		// at offset 8 with no time before it, then the sentinel one
		// past the last record | body CRC | body length 24 | "IDX2".
		footer = "00" +
			"02" + "01" + "08" + "ffffffffffffffffff01" + "02" + "4a" + "80d0b1ded5a7d6b728" +
			"26577cef" + "18000000" + "49445832"
	)
	dir := t.TempDir()
	st, err := auditstore.Open(dir, auditstore.Options{SegmentRecords: 1})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	for _, rec := range []auditstore.Record{r, r} { // the second append seals the first segment
		if _, err := st.Append(rec); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "seg-00000001.seg"))
	if err != nil {
		t.Fatalf("read segment: %v", err)
	}
	if want := header + frame + footer; hex.EncodeToString(got) != want {
		t.Fatalf("sealed segment drifted from golden:\n got %x\nwant %s", got, want)
	}

	r.Seq = 1
	if enc, err := encodeFrame(r); err != nil || hex.EncodeToString(enc) != frame {
		t.Fatalf("frame encoding = %x, %v; want %s", enc, err, frame)
	}
	recs, _, trunc := auditstore.DecodeBinarySegment(got)
	if trunc != nil || len(recs) != 1 || !sameRecord(recs[0], r) {
		t.Fatalf("golden decodes to %+v (trunc %v), want %+v", recs, trunc, r)
	}
}

// TestRecordSchemaShared pins the shared decision schema across the
// three surfaces that render it: the durable store's Record, the
// flight recorder's JSONL dump, and the record↔decision conversion.
// The store and the black-box dump must agree byte for byte on how a
// decision reads, or post-incident forensics ends up correlating two
// dialects of the same event.
func TestRecordSchemaShared(t *testing.T) {
	opTime := time.Date(2016, 3, 1, 9, 0, 2, 0, time.UTC)
	d := monitor.Decision{
		PID:      4321,
		Op:       monitor.Op("open_device"),
		OpTime:   opTime,
		Stamp:    opTime.Add(-1 * time.Second),
		Verdict:  monitor.VerdictDeny,
		Reason:   "no recent interaction",
		Degraded: true,
	}
	rec := auditstore.FromDecision(d, 9)

	// Record ↔ Decision is lossless (Seq and Session live only on the
	// store side).
	back := rec.Decision()
	if back != d {
		t.Fatalf("decision round trip:\n got %+v\nwant %+v", back, d)
	}

	// The store's Detail renders byte-identically to the flight
	// recorder's "decision" event for the same decision.
	clk := clock.NewSimulatedAt(opTime)
	tr := telemetry.New(clk)
	reg := probe.NewRegistry()
	if err := tr.Attach(reg); err != nil {
		t.Fatal(err)
	}
	// The kernel.decide event the monitor emits for d (an op outside
	// the device vocabulary rides in Detail); the denial trips a dump.
	reg.Hook(probe.HookKernelDecide).Emit(&probe.Event{
		Kind: probe.KindDecide, PID: int64(d.PID), TimeNanos: d.OpTime.UnixNano(),
		StampNanos: d.Stamp.UnixNano(), Verdict: probe.VerdictDeny, Reason: d.Reason, Detail: string(d.Op),
	})
	evs := tr.FlightEvents()
	if len(evs) != 2 {
		t.Fatalf("flight events = %d, want the decision and its trip", len(evs))
	}
	if evs[0].Detail != rec.Detail() {
		t.Fatalf("schema drift between store and flight recorder:\n store  %q\n flight %q", rec.Detail(), evs[0].Detail)
	}

	// And the flight dump's JSONL carries that same detail string, so
	// grepping a dump and querying the store match on the same bytes.
	dump, ok := tr.LastFlightDump()
	if !ok {
		t.Fatalf("no flight dump after trip")
	}
	raw, err := dump.JSONL()
	if err != nil {
		t.Fatalf("dump jsonl: %v", err)
	}
	var found bool
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		var ev struct {
			Kind   string `json:"kind"`
			Detail string `json:"detail"`
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			continue
		}
		if ev.Kind == "decision" && ev.Detail == rec.Detail() {
			found = true
		}
	}
	if !found {
		t.Fatalf("flight dump JSONL does not carry the store's detail rendering %q:\n%s", rec.Detail(), raw)
	}
}
