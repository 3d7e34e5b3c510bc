// Package xproto implements a compact binary wire protocol for the
// display server — the request/reply framing an out-of-process X client
// would actually speak. The simulation's clients normally call the
// server's Go API directly; this codec exists so the protocol layer can
// be exercised the way the paper's modified X.Org is: byte streams
// arriving from untrusted clients, decoded, validated, and dispatched.
// It also gives the fuzzer a realistic attack surface.
//
// Framing: every message is
//
//	1 byte  opcode
//	4 bytes little-endian body length
//	body
//
// Strings are encoded as a 2-byte length followed by raw bytes; numeric
// fields are little-endian fixed width.
package xproto

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	"overhaul/internal/xserver"
)

// Opcode identifies a request type.
type Opcode uint8

// Request opcodes.
const (
	OpCreateWindow Opcode = iota + 1
	OpMapWindow
	OpUnmapWindow
	OpConfigureWindow
	OpDraw
	OpSetSelection
	OpConvertSelection
	OpChangeProperty
	OpGetProperty
	OpDeleteProperty
	OpSendEvent
	OpGetImage
	OpCopyArea
)

// String names the opcode.
func (o Opcode) String() string {
	names := map[Opcode]string{
		OpCreateWindow:     "CreateWindow",
		OpMapWindow:        "MapWindow",
		OpUnmapWindow:      "UnmapWindow",
		OpConfigureWindow:  "ConfigureWindow",
		OpDraw:             "Draw",
		OpSetSelection:     "SetSelection",
		OpConvertSelection: "ConvertSelection",
		OpChangeProperty:   "ChangeProperty",
		OpGetProperty:      "GetProperty",
		OpDeleteProperty:   "DeleteProperty",
		OpSendEvent:        "SendEvent",
		OpGetImage:         "GetImage",
		OpCopyArea:         "CopyArea",
	}
	if n, ok := names[o]; ok {
		return n
	}
	return fmt.Sprintf("Opcode(%d)", uint8(o))
}

// Codec errors.
var (
	ErrTruncated     = errors.New("xproto: truncated message")
	ErrBadOpcode     = errors.New("xproto: unknown opcode")
	ErrOversized     = errors.New("xproto: body exceeds limit")
	ErrTrailingBytes = errors.New("xproto: trailing bytes in body")
)

// MaxBody bounds a request body (64 KiB covers every legitimate use and
// stops allocation bombs).
const MaxBody = 64 * 1024

// Request is one decoded client request.
type Request struct {
	Op Opcode

	Window    xserver.WindowID // primary window operand
	Window2   xserver.WindowID // secondary (CopyArea dst, SendEvent dest)
	X, Y      int32
	W, H      int32
	Name      string // selection or property atom
	Target    string
	Property  string
	Data      []byte
	EventType uint8 // for SendEvent
}

// writeString encodes a length-prefixed string.
func writeString(b *bytes.Buffer, s string) {
	var l [2]byte
	binary.LittleEndian.PutUint16(l[:], uint16(len(s)))
	b.Write(l[:]) // bytes.Buffer.Write cannot fail
	b.WriteString(s)
}

// readString decodes a length-prefixed string.
func readString(b *bytes.Reader) (string, error) {
	var l [2]byte
	if _, err := b.Read(l[:2]); err != nil {
		return "", ErrTruncated
	}
	n := int(binary.LittleEndian.Uint16(l[:]))
	if n > b.Len() {
		return "", ErrTruncated
	}
	buf := make([]byte, n)
	if _, err := b.Read(buf); err != nil {
		return "", ErrTruncated
	}
	return string(buf), nil
}

func writeU32(b *bytes.Buffer, v uint32) {
	var tmp [4]byte
	binary.LittleEndian.PutUint32(tmp[:], v)
	b.Write(tmp[:]) // bytes.Buffer.Write cannot fail
}

func readU32(b *bytes.Reader) (uint32, error) {
	var tmp [4]byte
	if _, err := b.Read(tmp[:]); err != nil {
		return 0, ErrTruncated
	}
	return binary.LittleEndian.Uint32(tmp[:]), nil
}

// Encode serialises a request to wire format.
func Encode(req Request) []byte {
	var body bytes.Buffer
	writeU32(&body, uint32(req.Window))
	writeU32(&body, uint32(req.Window2))
	writeU32(&body, uint32(req.X))
	writeU32(&body, uint32(req.Y))
	writeU32(&body, uint32(req.W))
	writeU32(&body, uint32(req.H))
	writeString(&body, req.Name)
	writeString(&body, req.Target)
	writeString(&body, req.Property)
	body.WriteByte(req.EventType)
	writeU32(&body, uint32(len(req.Data)))
	body.Write(req.Data) // bytes.Buffer.Write cannot fail

	out := make([]byte, 0, 5+body.Len())
	out = append(out, byte(req.Op))
	var l [4]byte
	binary.LittleEndian.PutUint32(l[:], uint32(body.Len()))
	out = append(out, l[:]...)
	return append(out, body.Bytes()...)
}

// Decode parses one wire message. It is total: any input yields either
// a valid Request or an error, never a panic.
func Decode(msg []byte) (Request, error) {
	if len(msg) < 5 {
		return Request{}, ErrTruncated
	}
	op := Opcode(msg[0])
	if op < OpCreateWindow || op > OpCopyArea {
		return Request{}, fmt.Errorf("%w: %d", ErrBadOpcode, msg[0])
	}
	bodyLen := binary.LittleEndian.Uint32(msg[1:5])
	if bodyLen > MaxBody {
		return Request{}, fmt.Errorf("%w: %d bytes", ErrOversized, bodyLen)
	}
	if uint32(len(msg)-5) < bodyLen {
		return Request{}, ErrTruncated
	}
	body := bytes.NewReader(msg[5 : 5+bodyLen])

	var req Request
	req.Op = op
	win, err := readU32(body)
	if err != nil {
		return Request{}, err
	}
	win2, err := readU32(body)
	if err != nil {
		return Request{}, err
	}
	x, err := readU32(body)
	if err != nil {
		return Request{}, err
	}
	y, err := readU32(body)
	if err != nil {
		return Request{}, err
	}
	w, err := readU32(body)
	if err != nil {
		return Request{}, err
	}
	h, err := readU32(body)
	if err != nil {
		return Request{}, err
	}
	req.Window = xserver.WindowID(win)
	req.Window2 = xserver.WindowID(win2)
	req.X, req.Y, req.W, req.H = int32(x), int32(y), int32(w), int32(h)
	if req.Name, err = readString(body); err != nil {
		return Request{}, err
	}
	if req.Target, err = readString(body); err != nil {
		return Request{}, err
	}
	if req.Property, err = readString(body); err != nil {
		return Request{}, err
	}
	evType, err := body.ReadByte()
	if err != nil {
		return Request{}, ErrTruncated
	}
	req.EventType = evType
	dataLen, err := readU32(body)
	if err != nil {
		return Request{}, err
	}
	if int(dataLen) != body.Len() {
		return Request{}, fmt.Errorf("%w: data length %d vs %d remaining", ErrTrailingBytes, dataLen, body.Len())
	}
	req.Data = make([]byte, dataLen)
	if _, err := body.Read(req.Data); err != nil && dataLen > 0 {
		return Request{}, ErrTruncated
	}
	return req, nil
}
