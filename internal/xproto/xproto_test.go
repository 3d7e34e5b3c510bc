package xproto

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"overhaul/internal/clock"
	"overhaul/internal/probe"
	"overhaul/internal/xserver"
)

// Property: Encode then Decode is the identity on valid requests.
func TestRoundTripProperty(t *testing.T) {
	f := func(op uint8, win, win2 uint32, x, y, w, h int32, name, target, property string, evType uint8, data []byte) bool {
		req := Request{
			Op:      Opcode(op%uint8(OpCopyArea)) + 1,
			Window:  xserver.WindowID(win),
			Window2: xserver.WindowID(win2),
			X:       x, Y: y, W: w, H: h,
			Name:      clip(name),
			Target:    clip(target),
			Property:  clip(property),
			EventType: evType,
			Data:      clipBytes(data),
		}
		got, err := Decode(Encode(req))
		if err != nil {
			return false
		}
		return got.Op == req.Op && got.Window == req.Window && got.Window2 == req.Window2 &&
			got.X == req.X && got.Y == req.Y && got.W == req.W && got.H == req.H &&
			got.Name == req.Name && got.Target == req.Target && got.Property == req.Property &&
			got.EventType == req.EventType && bytes.Equal(got.Data, req.Data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// clip bounds strings to the u16 length prefix.
func clip(s string) string {
	if len(s) > 1<<15 {
		return s[:1<<15]
	}
	return s
}

func clipBytes(b []byte) []byte {
	if len(b) > 16*1024 {
		return b[:16*1024]
	}
	return b
}

// Property: Decode never panics and never returns both nil error and
// garbage for arbitrary byte soup.
func TestDecodeTotalProperty(t *testing.T) {
	f := func(msg []byte) bool {
		req, err := Decode(msg)
		if err != nil {
			return true
		}
		return req.Op >= OpCreateWindow && req.Op <= OpCopyArea
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode(nil); !errors.Is(err, ErrTruncated) {
		t.Fatalf("Decode(nil) = %v", err)
	}
	if _, err := Decode([]byte{99, 0, 0, 0, 0}); !errors.Is(err, ErrBadOpcode) {
		t.Fatalf("bad opcode = %v", err)
	}
	huge := Encode(Request{Op: OpDraw})
	huge[1] = 0xFF
	huge[2] = 0xFF
	huge[3] = 0xFF
	huge[4] = 0x7F
	if _, err := Decode(huge); !errors.Is(err, ErrOversized) {
		t.Fatalf("oversized = %v", err)
	}
	short := Encode(Request{Op: OpDraw})
	if _, err := Decode(short[:len(short)-3]); !errors.Is(err, ErrTruncated) {
		t.Fatalf("short = %v", err)
	}
}

// wireEnv boots a protected server with two wire-level clients.
type wireEnv struct {
	clk      *clock.Simulated
	srv      *xserver.Server
	src, tgt *xserver.Client
	srcWin   xserver.WindowID
	tgtWin   xserver.WindowID
}

// wirePolicy grants everything (the protocol path is under test, not δ).
type wirePolicy struct{}

func (wirePolicy) NotifyInteraction(probe.SpanContext, int, time.Time) error { return nil }
func (wirePolicy) Query(probe.SpanContext, int, xserver.Op, time.Time) (xserver.Verdict, error) {
	return xserver.VerdictGrant, nil
}

func newWireEnv(t *testing.T) *wireEnv {
	t.Helper()
	clk := clock.NewSimulated()
	srv, err := xserver.NewServer(clk, wirePolicy{}, xserver.Config{AlertSecret: "s"})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	e := &wireEnv{clk: clk, srv: srv}
	if e.src, err = srv.Connect(1, "src"); err != nil {
		t.Fatalf("Connect: %v", err)
	}
	if e.tgt, err = srv.Connect(2, "tgt"); err != nil {
		t.Fatalf("Connect: %v", err)
	}
	mk := func(c *xserver.Client, x int32) xserver.WindowID {
		rep, err := HandleWire(c, Encode(Request{Op: OpCreateWindow, X: x, Y: 0, W: 100, H: 100}))
		if err != nil {
			t.Fatalf("CreateWindow over wire: %v", err)
		}
		if _, err := HandleWire(c, Encode(Request{Op: OpMapWindow, Window: rep.Window})); err != nil {
			t.Fatalf("MapWindow over wire: %v", err)
		}
		return rep.Window
	}
	e.srcWin = mk(e.src, 0)
	e.tgtWin = mk(e.tgt, 200)
	clk.Advance(2 * xserver.DefaultVisibilityThreshold)
	return e
}

// TestFullPasteOverWire drives the complete Figure 6 protocol purely
// through encoded bytes.
func TestFullPasteOverWire(t *testing.T) {
	e := newWireEnv(t)

	if _, err := HandleWire(e.src, Encode(Request{Op: OpSetSelection, Name: "CLIPBOARD", Window: e.srcWin})); err != nil {
		t.Fatalf("SetSelection: %v", err)
	}
	if _, err := HandleWire(e.tgt, Encode(Request{
		Op: OpConvertSelection, Name: "CLIPBOARD", Target: "UTF8_STRING", Property: "SEL", Window: e.tgtWin,
	})); err != nil {
		t.Fatalf("ConvertSelection: %v", err)
	}
	req, ok := e.src.NextEvent()
	if !ok || req.Type != xserver.SelectionRequest {
		t.Fatalf("owner got %+v", req)
	}
	if _, err := HandleWire(e.src, Encode(Request{
		Op: OpChangeProperty, Window: req.Requestor, Property: req.Property, Data: []byte("wire-data"),
	})); err != nil {
		t.Fatalf("ChangeProperty: %v", err)
	}
	if _, err := HandleWire(e.src, Encode(Request{
		Op: OpSendEvent, Window2: req.Requestor, EventType: uint8(xserver.SelectionNotify),
		Name: "CLIPBOARD", Target: req.Target, Property: req.Property,
	})); err != nil {
		t.Fatalf("SendEvent: %v", err)
	}
	rep, err := HandleWire(e.tgt, Encode(Request{Op: OpGetProperty, Window: e.tgtWin, Property: "SEL"}))
	if err != nil || string(rep.Data) != "wire-data" {
		t.Fatalf("GetProperty = %q, %v", rep.Data, err)
	}
	if _, err := HandleWire(e.tgt, Encode(Request{Op: OpDeleteProperty, Window: e.tgtWin, Property: "SEL"})); err != nil {
		t.Fatalf("DeleteProperty: %v", err)
	}
}

// TestWireAttacksStillBlocked: the Overhaul screens hold at the wire
// level too.
func TestWireAttacksStillBlocked(t *testing.T) {
	e := newWireEnv(t)
	if _, err := HandleWire(e.src, Encode(Request{Op: OpSetSelection, Name: "CLIPBOARD", Window: e.srcWin})); err != nil {
		t.Fatalf("SetSelection: %v", err)
	}
	// Forged SelectionRequest via wire SendEvent.
	_, err := HandleWire(e.tgt, Encode(Request{
		Op: OpSendEvent, Window2: e.srcWin, EventType: uint8(xserver.SelectionRequest),
		Name: "CLIPBOARD", Property: "LOOT",
	}))
	if !errors.Is(err, xserver.ErrBadAccess) {
		t.Fatalf("forged wire SelectionRequest = %v, want ErrBadAccess", err)
	}
	// Foreign-window draw via wire.
	_, err = HandleWire(e.tgt, Encode(Request{Op: OpDraw, Window: e.srcWin, Data: []byte("deface")}))
	if !errors.Is(err, xserver.ErrBadAccess) {
		t.Fatalf("foreign wire Draw = %v, want ErrBadAccess", err)
	}
}

func TestWireCaptureAndCopyArea(t *testing.T) {
	e := newWireEnv(t)
	if _, err := HandleWire(e.src, Encode(Request{Op: OpDraw, Window: e.srcWin, Data: []byte("pix")})); err != nil {
		t.Fatalf("Draw: %v", err)
	}
	rep, err := HandleWire(e.tgt, Encode(Request{Op: OpGetImage, Window: e.srcWin}))
	if err != nil || string(rep.Data) != "pix" {
		t.Fatalf("GetImage = %q, %v", rep.Data, err)
	}
	if _, err := HandleWire(e.tgt, Encode(Request{Op: OpCopyArea, Window: e.srcWin, Window2: e.tgtWin})); err != nil {
		t.Fatalf("CopyArea: %v", err)
	}
	if _, err := HandleWire(e.tgt, Encode(Request{
		Op: OpConfigureWindow, Window: e.tgtWin, X: 500, Y: 500, W: 50, H: 50,
	})); err != nil {
		t.Fatalf("ConfigureWindow: %v", err)
	}
}

func TestOpcodeStrings(t *testing.T) {
	for op := OpCreateWindow; op <= OpCopyArea; op++ {
		if name := op.String(); name == "" || name == fmt.Sprintf("Opcode(%d)", uint8(op)) {
			t.Fatalf("opcode %d missing a name: %q", op, name)
		}
	}
	if Opcode(0).String() != "Opcode(0)" {
		t.Fatalf("zero opcode name = %q", Opcode(0).String())
	}
}

// FuzzHandleWire feeds arbitrary bytes through decode+dispatch against a
// live protected server: nothing may panic, and errors must be typed.
func FuzzHandleWire(f *testing.F) {
	f.Add(Encode(Request{Op: OpCreateWindow, W: 10, H: 10}))
	f.Add(Encode(Request{Op: OpSetSelection, Name: "CLIPBOARD", Window: 1}))
	f.Add(Encode(Request{Op: OpGetImage, Window: 0}))
	f.Add([]byte{1, 2, 3})

	clk := clock.NewSimulated()
	srv, err := xserver.NewServer(clk, wirePolicy{}, xserver.Config{})
	if err != nil {
		f.Fatal(err)
	}
	c, err := srv.Connect(1, "fuzz")
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, msg []byte) {
		_, _ = HandleWire(c, msg) // must not panic
	})
}
