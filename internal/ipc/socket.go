package ipc

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// ErrPeerClosed is returned when operating on a socket whose peer has
// closed.
var ErrPeerClosed = errors.New("ipc: peer endpoint closed")

// DefaultSocketBacklog bounds the number of queued datagrams per
// direction on a UNIX domain socket pair.
const DefaultSocketBacklog = 256

// SocketPair is a connected pair of UNIX domain socket endpoints
// (datagram-preserving, like SOCK_SEQPACKET). Higher-level IPC such as
// D-Bus rides on these, so stamp propagation here covers those too.
type SocketPair struct {
	a, b *SocketEndpoint
}

// SocketEndpoint is one end of a SocketPair.
type SocketEndpoint struct {
	st   Stamps
	name string

	// ts is shared with the peer (the socket is one kernel object) and
	// synchronizes itself with atomics; it is not guarded by mu.
	ts *StampSlot

	mu     sync.Mutex
	inbox  [][]byte
	peer   *SocketEndpoint
	closed bool
}

// NewSocketPair creates a connected pair. The embedded timestamp is a
// property of the socket (the kernel data structure), shared by both
// directions, as in the paper's per-resource protocol.
func NewSocketPair(st Stamps) *SocketPair {
	ts := &StampSlot{}
	a := &SocketEndpoint{st: st, ts: ts, name: "a"}
	b := &SocketEndpoint{st: st, ts: ts, name: "b"}
	a.peer, b.peer = b, a
	return &SocketPair{a: a, b: b}
}

// Ends returns the two endpoints.
func (sp *SocketPair) Ends() (*SocketEndpoint, *SocketEndpoint) { return sp.a, sp.b }

// Send queues a datagram to the peer on behalf of pid.
func (e *SocketEndpoint) Send(pid int, data []byte) error {
	e.mu.Lock()
	closed := e.closed
	peer := e.peer
	e.mu.Unlock()
	if closed {
		return fmt.Errorf("socket send: %w", ErrClosedPipe)
	}

	peer.mu.Lock()
	defer peer.mu.Unlock()
	if peer.closed {
		return fmt.Errorf("socket send: %w", ErrPeerClosed)
	}
	if len(peer.inbox) >= DefaultSocketBacklog {
		return fmt.Errorf("socket send: %w", ErrFull)
	}
	e.ts.onSend(e.st, pid)
	msg := make([]byte, len(data))
	copy(msg, data)
	peer.inbox = append(peer.inbox, msg)
	return nil
}

// Recv dequeues the next datagram on behalf of pid.
func (e *SocketEndpoint) Recv(pid int) ([]byte, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.inbox) == 0 {
		if e.closed {
			return nil, fmt.Errorf("socket recv: %w", ErrClosedPipe)
		}
		return nil, fmt.Errorf("socket recv: %w", ErrEmpty)
	}
	msg := e.inbox[0]
	e.inbox = e.inbox[1:]
	e.ts.onRecv(e.st, pid)
	return msg, nil
}

// Pending returns the number of queued datagrams.
func (e *SocketEndpoint) Pending() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.inbox)
}

// Close shuts this endpoint down. Queued datagrams remain readable by
// this endpoint's owner until drained.
func (e *SocketEndpoint) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return ErrClosedPipe
	}
	e.closed = true
	return nil
}

// EmbeddedStamp exposes the socket's carried timestamp.
func (e *SocketEndpoint) EmbeddedStamp() time.Time { return e.ts.stampValue() }
