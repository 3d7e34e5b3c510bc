package ipc

// Chan is an IPC family whose transfer methods must run the stamp
// protocol.
type Chan struct {
	ts  StampSlot
	buf []byte
}

// Write runs the sender half directly.
func (c *Chan) Write(pid int, data []byte) {
	c.ts.onSend(pid)
	c.buf = append(c.buf, data...)
}

// Read runs the receiver half directly.
func (c *Chan) Read(pid int, dst []byte) int {
	n := copy(dst, c.buf)
	c.ts.onRecv(pid)
	return n
}

// stampThrough is an intermediate helper on the propagation path.
func (c *Chan) stampThrough(pid int) { c.ts.onAccess(pid) }

// WriteIndirect reaches the protocol transitively through a helper.
func (c *Chan) WriteIndirect(pid int, data []byte) {
	c.stampThrough(pid)
	c.buf = append(c.buf, data...)
}

// WriteLeak transfers data without embedding the sender's stamp.
func (c *Chan) WriteLeak(pid int, data []byte) { // want "sender"
	c.buf = append(c.buf, data...)
}

// RecvLeak delivers data without adopting the channel's stamp.
func (c *Chan) RecvLeak(pid int) byte { // want "receiver"
	return c.buf[0]
}

// Len carries no payload and is exempt.
func (c *Chan) Len() int { return len(c.buf) }
