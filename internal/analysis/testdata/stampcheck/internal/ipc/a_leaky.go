package ipc

// Leaky is a second IPC family whose transfer methods share Chan's
// names. Its Write never runs the protocol; the file sorts before
// chan.go, so a call graph keyed by bare method name would let
// Chan.Write vouch for it.
type Leaky struct {
	ts  StampSlot
	buf []byte
}

// Write transfers data without embedding the sender's stamp.
func (l *Leaky) Write(pid int, data []byte) { // want "sender"
	l.buf = append(l.buf, data...)
}

// Read runs the receiver half, so only Write is reported.
func (l *Leaky) Read(pid int, dst []byte) int {
	n := copy(dst, l.buf)
	l.ts.onRecv(pid)
	return n
}
