package ipc

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// Sentinel errors shared by the IPC families.
var (
	ErrEmpty      = errors.New("ipc: nothing to read")
	ErrClosedPipe = errors.New("ipc: pipe closed")
	ErrFull       = errors.New("ipc: resource full")
)

// DefaultPipeCapacity matches the Linux default pipe buffer (64 KiB).
const DefaultPipeCapacity = 64 * 1024

// Pipe is an anonymous pipe (also the kernel object behind a FIFO).
// Reads and writes are non-blocking: a write beyond capacity returns
// ErrFull, a read from an empty pipe returns ErrEmpty while the write
// end is open and ErrClosedPipe after it closes. It is safe for
// concurrent use.
type Pipe struct {
	st Stamps

	// ts synchronizes itself with atomics; it is not guarded by mu.
	ts StampSlot

	mu     sync.Mutex
	buf    []byte
	cap    int
	closed bool
}

// NewPipe creates a pipe. capacity <= 0 selects DefaultPipeCapacity.
func NewPipe(st Stamps, capacity int) *Pipe {
	if capacity <= 0 {
		capacity = DefaultPipeCapacity
	}
	return &Pipe{st: st, cap: capacity}
}

// Write appends data to the pipe on behalf of pid, embedding pid's
// interaction stamp into the pipe (P2 sender half).
func (p *Pipe) Write(pid int, data []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return 0, fmt.Errorf("pipe write: %w", ErrClosedPipe)
	}
	if len(p.buf)+len(data) > p.cap {
		return 0, fmt.Errorf("pipe write %d bytes: %w", len(data), ErrFull)
	}
	p.ts.onSend(p.st, pid)
	p.buf = append(p.buf, data...)
	return len(data), nil
}

// Read drains up to len(dst) bytes on behalf of pid, adopting the
// pipe's stamp (P2 receiver half).
func (p *Pipe) Read(pid int, dst []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.buf) == 0 {
		if p.closed {
			return 0, fmt.Errorf("pipe read: %w", ErrClosedPipe)
		}
		return 0, fmt.Errorf("pipe read: %w", ErrEmpty)
	}
	n := copy(dst, p.buf)
	if n == len(p.buf) {
		// Drained: keep the buffer for the next write.
		p.buf = p.buf[:0]
	} else {
		p.buf = p.buf[n:]
	}
	p.ts.onRecv(p.st, pid)
	return n, nil
}

// Close closes the write end. Pending data remains readable.
func (p *Pipe) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrClosedPipe
	}
	p.closed = true
	return nil
}

// Buffered returns the number of unread bytes.
func (p *Pipe) Buffered() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.buf)
}

// EmbeddedStamp exposes the channel's carried timestamp for tests and
// protocol traces.
func (p *Pipe) EmbeddedStamp() time.Time { return p.ts.stampValue() }
