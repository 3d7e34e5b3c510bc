// Package ipc is a stampcheck fixture mirroring the real internal/ipc
// layout: stamps.go declares the propagation helpers whose names the
// analyzer's reachability search targets.
package ipc

// StampSlot mimics the real interaction-stamp cell.
type StampSlot struct{}

func (c *StampSlot) onSend(pid int)   {}
func (c *StampSlot) onRecv(pid int)   {}
func (c *StampSlot) onAccess(pid int) {}
