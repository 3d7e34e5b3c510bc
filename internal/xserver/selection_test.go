package xserver

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

const clipboard = "CLIPBOARD"

// interactWith clicks on the client's window so the fake policy records
// an interaction for it.
func (e *xEnv) interactWith(t *testing.T, win WindowID) {
	t.Helper()
	// Click at the window's origin; assume test geometry puts it on top
	// there. The caller arranged geometry so the click hits.
	s := e.srv
	s.mu.Lock()
	w, err := s.lookupWindow(win)
	if err != nil {
		s.mu.Unlock()
		t.Fatalf("lookupWindow: %v", err)
	}
	x, y := w.x, w.y
	s.mu.Unlock()
	if got := e.srv.HardwareClick(x, y); got != win {
		t.Fatalf("interaction click landed on %d, want %d", got, win)
	}
}

// nextProtocolEvent pops events until one that is not an input event,
// since interaction clicks enqueue ButtonPress events ahead of the
// protocol traffic tests care about.
func nextProtocolEvent(c *Client) (Event, bool) {
	for {
		ev, ok := c.NextEvent()
		if !ok {
			return Event{}, false
		}
		switch ev.Type {
		case KeyPress, KeyRelease, ButtonPress, ButtonRelease, MotionNotify:
			continue
		default:
			return ev, true
		}
	}
}

// runCopy performs the copy half of Figure 6 for src on window win.
func runCopy(t *testing.T, e *xEnv, src *Client, win WindowID) {
	t.Helper()
	e.interactWith(t, win) // step 1: user input
	if err := src.SetSelection(clipboard, win); err != nil {
		t.Fatalf("SetSelection: %v", err) // step 2
	}
	owner, err := src.GetSelectionOwner(clipboard) // steps 3-4
	if err != nil || owner != win {
		t.Fatalf("GetSelectionOwner = %d, %v", owner, err)
	}
}

// runPaste performs the paste half: returns the pasted data.
func runPaste(t *testing.T, e *xEnv, src *Client, tgt *Client, tgtWin WindowID, data []byte) []byte {
	t.Helper()
	e.interactWith(t, tgtWin) // step 5: paste keystroke
	if err := tgt.ConvertSelection(clipboard, "UTF8_STRING", "XSEL_DATA", tgtWin); err != nil {
		t.Fatalf("ConvertSelection: %v", err) // step 6
	}
	req, ok := nextProtocolEvent(src) // step 7
	if !ok || req.Type != SelectionRequest {
		t.Fatalf("owner got %+v, want SelectionRequest", req)
	}
	if err := src.ChangeProperty(req.Requestor, req.Property, data); err != nil {
		t.Fatalf("ChangeProperty: %v", err) // step 8
	}
	notify := Event{
		Type:      SelectionNotify,
		Selection: clipboard,
		Target:    req.Target,
		Property:  req.Property,
	}
	if err := src.SendEvent(req.Requestor, notify); err != nil {
		t.Fatalf("SendEvent(SelectionNotify): %v", err) // step 9
	}
	got, ok := nextProtocolEvent(tgt) // step 10
	if !ok || got.Type != SelectionNotify {
		t.Fatalf("target got %+v, want SelectionNotify", got)
	}
	out, err := tgt.GetProperty(req.Requestor, req.Property) // steps 11-12
	if err != nil {
		t.Fatalf("GetProperty: %v", err)
	}
	if err := tgt.DeleteProperty(req.Requestor, req.Property); err != nil {
		t.Fatalf("DeleteProperty: %v", err) // step 13
	}
	return out
}

func TestFullCopyPasteProtocol(t *testing.T) {
	for _, protected := range []bool{true, false} {
		name := "overhaul"
		if !protected {
			name = "vanilla"
		}
		t.Run(name, func(t *testing.T) {
			e := newXEnv(t, protected)
			src := e.connect(t, 1, "editor")
			tgt := e.connect(t, 2, "terminal")
			srcWin := e.mapVisibleWindow(t, src, 0, 0, 100, 100)
			tgtWin := e.mapVisibleWindow(t, tgt, 200, 0, 100, 100)

			runCopy(t, e, src, srcWin)
			got := runPaste(t, e, src, tgt, tgtWin, []byte("hunter2"))
			if string(got) != "hunter2" {
				t.Fatalf("pasted %q", got)
			}
		})
	}
}

func TestCopyWithoutInteractionDenied(t *testing.T) {
	e := newXEnv(t, true)
	src := e.connect(t, 1, "sniffer")
	win := e.mapVisibleWindow(t, src, 0, 0, 100, 100)
	// No click: SetSelection must be refused with BadAccess.
	if err := src.SetSelection(clipboard, win); !errors.Is(err, ErrBadAccess) {
		t.Fatalf("SetSelection = %v, want ErrBadAccess", err)
	}
}

func TestPasteWithoutInteractionDenied(t *testing.T) {
	e := newXEnv(t, true)
	src := e.connect(t, 1, "editor")
	sniffer := e.connect(t, 2, "sniffer")
	srcWin := e.mapVisibleWindow(t, src, 0, 0, 100, 100)
	snifWin := e.mapVisibleWindow(t, sniffer, 200, 0, 100, 100)
	runCopy(t, e, src, srcWin)

	// Background sniffer (no user input) polls the clipboard.
	if err := sniffer.ConvertSelection(clipboard, "UTF8_STRING", "P", snifWin); !errors.Is(err, ErrBadAccess) {
		t.Fatalf("ConvertSelection = %v, want ErrBadAccess", err)
	}
}

func TestPasteInteractionExpires(t *testing.T) {
	e := newXEnv(t, true)
	src := e.connect(t, 1, "editor")
	tgt := e.connect(t, 2, "pastebin")
	srcWin := e.mapVisibleWindow(t, src, 0, 0, 100, 100)
	tgtWin := e.mapVisibleWindow(t, tgt, 200, 0, 100, 100)
	runCopy(t, e, src, srcWin)

	e.interactWith(t, tgtWin)
	e.clk.Advance(3 * time.Second) // beyond δ = 2 s
	if err := tgt.ConvertSelection(clipboard, "UTF8_STRING", "P", tgtWin); !errors.Is(err, ErrBadAccess) {
		t.Fatalf("stale ConvertSelection = %v, want ErrBadAccess", err)
	}
}

func TestVanillaClipboardSniffingSucceeds(t *testing.T) {
	// The attack the paper defends against, demonstrated on the
	// unmodified server: a background process with zero user input
	// reads the clipboard.
	e := newXEnv(t, false)
	src := e.connect(t, 1, "passwordmanager")
	sniffer := e.connect(t, 2, "sniffer")
	srcWin := e.mapVisibleWindow(t, src, 0, 0, 100, 100)
	snifWin := e.mapVisibleWindow(t, sniffer, 200, 0, 100, 100)

	if err := src.SetSelection(clipboard, srcWin); err != nil {
		t.Fatalf("SetSelection: %v", err)
	}
	if err := sniffer.ConvertSelection(clipboard, "UTF8_STRING", "P", snifWin); err != nil {
		t.Fatalf("ConvertSelection: %v", err)
	}
	req, ok := src.NextEvent()
	if !ok || req.Type != SelectionRequest {
		t.Fatalf("owner got %+v", req)
	}
	if err := src.ChangeProperty(req.Requestor, req.Property, []byte("s3cret")); err != nil {
		t.Fatalf("ChangeProperty: %v", err)
	}
	got, err := sniffer.GetProperty(req.Requestor, req.Property)
	if err != nil || string(got) != "s3cret" {
		t.Fatalf("vanilla sniff = %q, %v — expected the attack to succeed", got, err)
	}
}

func TestForgedSelectionRequestBlocked(t *testing.T) {
	// §IV-A attack: malware SendEvents a SelectionRequest directly to
	// the owner to receive the copied data.
	e := newXEnv(t, true)
	src := e.connect(t, 1, "editor")
	mal := e.connect(t, 2, "malware")
	srcWin := e.mapVisibleWindow(t, src, 0, 0, 100, 100)
	malWin := e.mapVisibleWindow(t, mal, 200, 0, 100, 100)
	runCopy(t, e, src, srcWin)

	forged := Event{
		Type:      SelectionRequest,
		Selection: clipboard,
		Target:    "UTF8_STRING",
		Property:  "LOOT",
		Requestor: malWin,
	}
	if err := mal.SendEvent(srcWin, forged); !errors.Is(err, ErrBadAccess) {
		t.Fatalf("forged SelectionRequest = %v, want ErrBadAccess", err)
	}
	if ev, ok := nextProtocolEvent(src); ok {
		t.Fatalf("forged request reached the selection owner: %+v", ev)
	}
}

func TestForgedSelectionRequestWorksOnVanilla(t *testing.T) {
	e := newXEnv(t, false)
	src := e.connect(t, 1, "editor")
	mal := e.connect(t, 2, "malware")
	srcWin := e.mapVisibleWindow(t, src, 0, 0, 100, 100)
	malWin := e.mapVisibleWindow(t, mal, 200, 0, 100, 100)
	if err := src.SetSelection(clipboard, srcWin); err != nil {
		t.Fatalf("SetSelection: %v", err)
	}
	forged := Event{Type: SelectionRequest, Selection: clipboard, Property: "LOOT", Requestor: malWin}
	if err := mal.SendEvent(srcWin, forged); err != nil {
		t.Fatalf("vanilla forged request = %v, expected delivery", err)
	}
	if ev, ok := nextProtocolEvent(src); !ok || ev.Type != SelectionRequest {
		t.Fatalf("owner got %+v", ev)
	}
}

func TestForgedSelectionNotifyBlocked(t *testing.T) {
	// Malware cannot fake a SelectionNotify to make a victim read a
	// property of the attacker's choosing.
	e := newXEnv(t, true)
	victim := e.connect(t, 1, "victim")
	mal := e.connect(t, 2, "malware")
	vWin := e.mapVisibleWindow(t, victim, 0, 0, 100, 100)
	if err := mal.SendEvent(vWin, Event{Type: SelectionNotify, Selection: clipboard, Property: "EVIL"}); !errors.Is(err, ErrBadAccess) {
		t.Fatalf("forged SelectionNotify = %v, want ErrBadAccess", err)
	}
}

func TestPropertySnoopingBlockedInFlight(t *testing.T) {
	// §IV-A attack: a third client subscribes to property events on the
	// requestor window and races GetProperty before the paste target
	// deletes the data.
	e := newXEnv(t, true)
	src := e.connect(t, 1, "editor")
	tgt := e.connect(t, 2, "terminal")
	snoop := e.connect(t, 3, "snooper")
	srcWin := e.mapVisibleWindow(t, src, 0, 0, 100, 100)
	tgtWin := e.mapVisibleWindow(t, tgt, 200, 0, 100, 100)

	if err := snoop.SelectPropertyEvents(tgtWin); err != nil {
		t.Fatalf("SelectPropertyEvents: %v", err)
	}
	if err := tgt.SelectPropertyEvents(tgtWin); err != nil {
		t.Fatalf("SelectPropertyEvents: %v", err)
	}

	runCopy(t, e, src, srcWin)
	e.interactWith(t, tgtWin)
	if err := tgt.ConvertSelection(clipboard, "UTF8_STRING", "XSEL_DATA", tgtWin); err != nil {
		t.Fatalf("ConvertSelection: %v", err)
	}
	req, _ := nextProtocolEvent(src)
	if err := src.ChangeProperty(req.Requestor, req.Property, []byte("in-flight")); err != nil {
		t.Fatalf("ChangeProperty: %v", err)
	}

	// The paste target hears about its property; the snooper does not.
	if ev, ok := nextProtocolEvent(tgt); !ok || ev.Type != PropertyNotify {
		t.Fatalf("target got %+v, want PropertyNotify", ev)
	}
	if ev, ok := nextProtocolEvent(snoop); ok {
		t.Fatalf("snooper received %+v for in-flight clipboard data", ev)
	}
	// Nor can the snooper read the property directly.
	if _, err := snoop.GetProperty(req.Requestor, req.Property); !errors.Is(err, ErrBadAccess) {
		t.Fatalf("snooper GetProperty = %v, want ErrBadAccess", err)
	}
	// The legitimate target still can.
	if got, err := tgt.GetProperty(req.Requestor, req.Property); err != nil || string(got) != "in-flight" {
		t.Fatalf("target GetProperty = %q, %v", got, err)
	}
}

func TestPropertySnoopingSucceedsOnVanilla(t *testing.T) {
	e := newXEnv(t, false)
	src := e.connect(t, 1, "editor")
	tgt := e.connect(t, 2, "terminal")
	snoop := e.connect(t, 3, "snooper")
	srcWin := e.mapVisibleWindow(t, src, 0, 0, 100, 100)
	tgtWin := e.mapVisibleWindow(t, tgt, 200, 0, 100, 100)
	if err := snoop.SelectPropertyEvents(tgtWin); err != nil {
		t.Fatalf("SelectPropertyEvents: %v", err)
	}
	if err := src.SetSelection(clipboard, srcWin); err != nil {
		t.Fatalf("SetSelection: %v", err)
	}
	if err := tgt.ConvertSelection(clipboard, "UTF8_STRING", "XSEL_DATA", tgtWin); err != nil {
		t.Fatalf("ConvertSelection: %v", err)
	}
	req, _ := nextProtocolEvent(src)
	if err := src.ChangeProperty(req.Requestor, req.Property, []byte("loot")); err != nil {
		t.Fatalf("ChangeProperty: %v", err)
	}
	if ev, ok := nextProtocolEvent(snoop); !ok || ev.Type != PropertyNotify {
		t.Fatalf("snooper got %+v, want PropertyNotify (vanilla)", ev)
	}
	if got, err := snoop.GetProperty(req.Requestor, req.Property); err != nil || string(got) != "loot" {
		t.Fatalf("vanilla snoop = %q, %v", got, err)
	}
}

func TestConvertUnownedSelection(t *testing.T) {
	e := newXEnv(t, true)
	tgt := e.connect(t, 1, "t")
	win := e.mapVisibleWindow(t, tgt, 0, 0, 100, 100)
	e.interactWith(t, win)
	if err := tgt.ConvertSelection(clipboard, "UTF8_STRING", "P", win); err != nil {
		t.Fatalf("ConvertSelection: %v", err)
	}
	ev, ok := nextProtocolEvent(tgt)
	if !ok || ev.Type != SelectionNotify || ev.Property != "" {
		t.Fatalf("event = %+v, want empty-property SelectionNotify", ev)
	}
}

func TestSelectionClearOnNewOwner(t *testing.T) {
	e := newXEnv(t, true)
	a := e.connect(t, 1, "a")
	b := e.connect(t, 2, "b")
	aWin := e.mapVisibleWindow(t, a, 0, 0, 100, 100)
	bWin := e.mapVisibleWindow(t, b, 200, 0, 100, 100)
	runCopy(t, e, a, aWin)
	runCopy(t, e, b, bWin)
	ev, ok := nextProtocolEvent(a)
	if !ok || ev.Type != SelectionClear {
		t.Fatalf("old owner got %+v, want SelectionClear", ev)
	}
}

func TestConcurrentTransferRejected(t *testing.T) {
	e := newXEnv(t, true)
	src := e.connect(t, 1, "src")
	tgt := e.connect(t, 2, "tgt")
	srcWin := e.mapVisibleWindow(t, src, 0, 0, 100, 100)
	tgtWin := e.mapVisibleWindow(t, tgt, 200, 0, 100, 100)
	runCopy(t, e, src, srcWin)
	e.interactWith(t, tgtWin)
	if err := tgt.ConvertSelection(clipboard, "UTF8_STRING", "P1", tgtWin); err != nil {
		t.Fatalf("ConvertSelection: %v", err)
	}
	if err := tgt.ConvertSelection(clipboard, "UTF8_STRING", "P2", tgtWin); !errors.Is(err, ErrBadMatch) {
		t.Fatalf("second ConvertSelection = %v, want ErrBadMatch", err)
	}
}

func TestChangePropertyOnForeignWindowBlocked(t *testing.T) {
	e := newXEnv(t, true)
	a := e.connect(t, 1, "a")
	b := e.connect(t, 2, "b")
	aWin := e.mapVisibleWindow(t, a, 0, 0, 100, 100)
	if err := b.ChangeProperty(aWin, "SPAM", []byte("x")); !errors.Is(err, ErrBadAccess) {
		t.Fatalf("foreign ChangeProperty = %v, want ErrBadAccess", err)
	}
}

func TestPropertyRoundTripOnOwnWindow(t *testing.T) {
	e := newXEnv(t, true)
	c := e.connect(t, 1, "c")
	win := e.mapVisibleWindow(t, c, 0, 0, 100, 100)
	if err := c.ChangeProperty(win, "WM_NAME", []byte("title")); err != nil {
		t.Fatalf("ChangeProperty: %v", err)
	}
	got, err := c.GetProperty(win, "WM_NAME")
	if err != nil || string(got) != "title" {
		t.Fatalf("GetProperty = %q, %v", got, err)
	}
	if err := c.DeleteProperty(win, "WM_NAME"); err != nil {
		t.Fatalf("DeleteProperty: %v", err)
	}
	if _, err := c.GetProperty(win, "WM_NAME"); !errors.Is(err, ErrBadAtom) {
		t.Fatalf("GetProperty deleted = %v", err)
	}
	if err := c.DeleteProperty(win, "WM_NAME"); !errors.Is(err, ErrBadAtom) {
		t.Fatalf("double DeleteProperty = %v", err)
	}
}

func TestSelectionAtomValidation(t *testing.T) {
	e := newXEnv(t, true)
	c := e.connect(t, 1, "c")
	win := e.mapVisibleWindow(t, c, 0, 0, 100, 100)
	if err := c.SetSelection("", win); !errors.Is(err, ErrBadAtom) {
		t.Fatalf("empty selection = %v", err)
	}
	if err := c.ConvertSelection("", "T", "P", win); !errors.Is(err, ErrBadAtom) {
		t.Fatalf("empty convert = %v", err)
	}
	if err := c.ConvertSelection(clipboard, "T", "", win); !errors.Is(err, ErrBadAtom) {
		t.Fatalf("empty property = %v", err)
	}
	if err := c.ChangeProperty(win, "", nil); !errors.Is(err, ErrBadAtom) {
		t.Fatalf("empty property change = %v", err)
	}
}

func TestSetSelectionForeignWindow(t *testing.T) {
	e := newXEnv(t, true)
	a := e.connect(t, 1, "a")
	b := e.connect(t, 2, "b")
	aWin := e.mapVisibleWindow(t, a, 0, 0, 100, 100)
	if err := b.SetSelection(clipboard, aWin); !errors.Is(err, ErrBadAccess) {
		t.Fatalf("foreign SetSelection = %v", err)
	}
}

// --- screen capture ----------------------------------------------------------

func TestScreenCaptureRequiresInteraction(t *testing.T) {
	e := newXEnv(t, true)
	app := e.connect(t, 1, "app")
	shot := e.connect(t, 2, "shot")
	appWin := e.mapVisibleWindow(t, app, 0, 0, 100, 100)
	shotWin := e.mapVisibleWindow(t, shot, 200, 0, 100, 100)
	if err := app.Draw(appWin, []byte("bank-statement")); err != nil {
		t.Fatalf("Draw: %v", err)
	}

	// Background capture: denied.
	if _, err := shot.GetImage(Root); !errors.Is(err, ErrBadAccess) {
		t.Fatalf("background GetImage = %v, want ErrBadAccess", err)
	}
	if _, err := shot.XShmGetImage(appWin); !errors.Is(err, ErrBadAccess) {
		t.Fatalf("background XShmGetImage = %v, want ErrBadAccess", err)
	}

	// With user interaction: granted.
	e.interactWith(t, shotWin)
	img, err := shot.GetImage(Root)
	if err != nil {
		t.Fatalf("GetImage after click: %v", err)
	}
	if string(img) == "" {
		t.Fatal("empty screen capture")
	}
	s := e.srv.StatsSnapshot()
	if s.CaptureRequests < 3 || s.CaptureDenied != 2 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestRootCaptureComposesWindows(t *testing.T) {
	e := newXEnv(t, false)
	a := e.connect(t, 1, "a")
	b := e.connect(t, 2, "b")
	aWin := e.mapVisibleWindow(t, a, 0, 0, 100, 100)
	bWin := e.mapVisibleWindow(t, b, 200, 0, 100, 100)
	if err := a.Draw(aWin, []byte("AAA")); err != nil {
		t.Fatalf("Draw: %v", err)
	}
	if err := b.Draw(bWin, []byte("BBB")); err != nil {
		t.Fatalf("Draw: %v", err)
	}
	img, err := a.GetImage(Root)
	if err != nil {
		t.Fatalf("GetImage: %v", err)
	}
	if string(img) != "AAABBB" {
		t.Fatalf("root capture = %q", img)
	}
}

func TestOwnWindowCaptureUnmediated(t *testing.T) {
	e := newXEnv(t, true)
	app := e.connect(t, 1, "app")
	win := e.mapVisibleWindow(t, app, 0, 0, 100, 100)
	if err := app.Draw(win, []byte("mine")); err != nil {
		t.Fatalf("Draw: %v", err)
	}
	// No interaction needed to read your own pixels.
	img, err := app.GetImage(win)
	if err != nil || string(img) != "mine" {
		t.Fatalf("own GetImage = %q, %v", img, err)
	}
	if s := e.srv.StatsSnapshot(); s.Queries != 0 {
		t.Fatalf("own-window capture queried the monitor: %+v", s)
	}
}

func TestCopyAreaOwnershipRules(t *testing.T) {
	e := newXEnv(t, true)
	app := e.connect(t, 1, "app")
	spy := e.connect(t, 2, "spy")
	src := e.mapVisibleWindow(t, app, 0, 0, 100, 100)
	dstOwn := e.mapVisibleWindow(t, app, 0, 200, 100, 100)
	spyDst := e.mapVisibleWindow(t, spy, 200, 0, 100, 100)
	if err := app.Draw(src, []byte("pixels")); err != nil {
		t.Fatalf("Draw: %v", err)
	}

	// Same-owner copy: allowed with no monitor query.
	if err := app.CopyArea(src, dstOwn); err != nil {
		t.Fatalf("same-owner CopyArea: %v", err)
	}
	if s := e.srv.StatsSnapshot(); s.Queries != 0 {
		t.Fatalf("same-owner copy queried the monitor: %+v", s)
	}
	got, err := app.GetImage(dstOwn)
	if err != nil || string(got) != "pixels" {
		t.Fatalf("copied content = %q, %v", got, err)
	}

	// Cross-owner copy without interaction: denied.
	if err := spy.CopyArea(src, spyDst); !errors.Is(err, ErrBadAccess) {
		t.Fatalf("cross-owner CopyArea = %v, want ErrBadAccess", err)
	}
	// Copy to a window you don't own: always denied.
	if err := spy.CopyArea(src, dstOwn); !errors.Is(err, ErrBadAccess) {
		t.Fatalf("CopyArea to foreign dst = %v", err)
	}
	// With interaction, cross-owner copying is granted.
	e.interactWith(t, spyDst)
	if err := spy.CopyArea(src, spyDst); err != nil {
		t.Fatalf("interactive CopyArea: %v", err)
	}
	// CopyPlane behaves the same.
	if err := spy.CopyPlane(src, spyDst); err != nil {
		t.Fatalf("interactive CopyPlane: %v", err)
	}
}

func TestVanillaScreenCaptureUnrestricted(t *testing.T) {
	e := newXEnv(t, false)
	app := e.connect(t, 1, "app")
	spy := e.connect(t, 2, "spy")
	win := e.mapVisibleWindow(t, app, 0, 0, 100, 100)
	if err := app.Draw(win, []byte("secret-pixels")); err != nil {
		t.Fatalf("Draw: %v", err)
	}
	img, err := spy.GetImage(win)
	if err != nil || string(img) != "secret-pixels" {
		t.Fatalf("vanilla spy capture = %q, %v", img, err)
	}
}

func TestCaptureBadWindow(t *testing.T) {
	e := newXEnv(t, true)
	c := e.connect(t, 1, "c")
	if _, err := c.GetImage(12345); !errors.Is(err, ErrBadWindow) {
		t.Fatalf("GetImage(bad) = %v", err)
	}
	win := e.mapVisibleWindow(t, c, 0, 0, 10, 10)
	if err := c.CopyArea(12345, win); !errors.Is(err, ErrBadWindow) {
		t.Fatalf("CopyArea(bad src) = %v", err)
	}
}

func TestPrimaryAndClipboardIndependent(t *testing.T) {
	// X has multiple selection atoms (PRIMARY, CLIPBOARD, SECONDARY);
	// each is an independent object with its own owner and transfers.
	e := newXEnv(t, true)
	a := e.connect(t, 1, "a")
	b := e.connect(t, 2, "b")
	aWin := e.mapVisibleWindow(t, a, 0, 0, 100, 100)
	bWin := e.mapVisibleWindow(t, b, 200, 0, 100, 100)

	e.interactWith(t, aWin)
	if err := a.SetSelection("PRIMARY", aWin); err != nil {
		t.Fatalf("SetSelection(PRIMARY): %v", err)
	}
	e.interactWith(t, bWin)
	if err := b.SetSelection("CLIPBOARD", bWin); err != nil {
		t.Fatalf("SetSelection(CLIPBOARD): %v", err)
	}
	pOwner, err := a.GetSelectionOwner("PRIMARY")
	if err != nil || pOwner != aWin {
		t.Fatalf("PRIMARY owner = %d, %v", pOwner, err)
	}
	cOwner, err := a.GetSelectionOwner("CLIPBOARD")
	if err != nil || cOwner != bWin {
		t.Fatalf("CLIPBOARD owner = %d, %v", cOwner, err)
	}
	// Claiming CLIPBOARD did not clear PRIMARY: no SelectionClear for a.
	if ev, ok := nextProtocolEvent(a); ok {
		t.Fatalf("a received %+v, want nothing", ev)
	}
}

func TestSelfPasteWithinOneApplication(t *testing.T) {
	// Copy and paste inside the same application (the most common
	// clipboard flow of all) must work: the owner and the requestor are
	// the same client and window.
	e := newXEnv(t, true)
	ed := e.connect(t, 1, "editor")
	win := e.mapVisibleWindow(t, ed, 0, 0, 100, 100)

	runCopy(t, e, ed, win)
	e.interactWith(t, win)
	if err := ed.ConvertSelection(clipboard, "UTF8_STRING", "SELF", win); err != nil {
		t.Fatalf("ConvertSelection: %v", err)
	}
	req, ok := nextProtocolEvent(ed)
	if !ok || req.Type != SelectionRequest {
		t.Fatalf("got %+v, want SelectionRequest", req)
	}
	if err := ed.ChangeProperty(req.Requestor, req.Property, []byte("dup")); err != nil {
		t.Fatalf("ChangeProperty: %v", err)
	}
	notify := Event{Type: SelectionNotify, Selection: clipboard, Target: req.Target, Property: req.Property}
	if err := ed.SendEvent(req.Requestor, notify); err != nil {
		t.Fatalf("SendEvent: %v", err)
	}
	got, err := ed.GetProperty(win, req.Property)
	if err != nil || string(got) != "dup" {
		t.Fatalf("GetProperty = %q, %v", got, err)
	}
	if err := ed.DeleteProperty(win, req.Property); err != nil {
		t.Fatalf("DeleteProperty: %v", err)
	}
}

// TestDenyErrors pins the monitor-denial errors of capture and paste:
// each message is the one the fmt.Errorf format these requests used to
// return renders, and errors.Is still finds ErrBadAccess.
func TestDenyErrors(t *testing.T) {
	e := newXEnv(t, true)
	victim := e.connect(t, 100, "victim")
	victimWin := e.mapVisibleWindow(t, victim, 0, 0, 50, 50)
	spy := e.connect(t, 666, "spy")
	spyWin := e.mapVisibleWindow(t, spy, 100, 100, 10, 10)

	const capture = "%s window %d by pid %d: %w"
	tests := []struct {
		name string
		call func() error
		want error
	}{
		{"GetImage", func() error { _, err := spy.GetImage(Root); return err },
			fmt.Errorf(capture, "GetImage", Root, 666, ErrBadAccess)},
		{"XShmGetImage", func() error { _, err := spy.XShmGetImage(victimWin); return err },
			fmt.Errorf(capture, "XShmGetImage", victimWin, 666, ErrBadAccess)},
		{"CopyArea", func() error { return spy.CopyArea(victimWin, spyWin) },
			fmt.Errorf("CopyArea from window %d by pid %d: %w", victimWin, 666, ErrBadAccess)},
		{"ConvertSelection", func() error { return spy.ConvertSelection(clipboard, "UTF8_STRING", "XSEL", spyWin) },
			fmt.Errorf("convert selection %s: %w", clipboard, ErrBadAccess)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.call()
			if err == nil || err.Error() != tt.want.Error() {
				t.Fatalf("error = %v, want %q", err, tt.want.Error())
			}
			if !errors.Is(err, ErrBadAccess) {
				t.Fatalf("errors.Is(%v, ErrBadAccess) = false", err)
			}
		})
	}
}
