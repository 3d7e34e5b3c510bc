package ipc

import (
	"fmt"
	"sync"
	"time"
)

// Pty is a pseudo-terminal pair: a master end (held by the terminal
// emulator) and a slave end (the controlling terminal of the shell).
//
// The paper's CLI-interaction support (§IV-B) lives here: the terminal
// emulator receives X input events and writes the command line to the
// master end; Overhaul embeds the writer's interaction timestamp into
// the pty's kernel data structure, and the shell adopts it when it reads
// from the slave end. Anything the shell subsequently forks inherits the
// stamp through P1, so command-line tools that open protected devices
// keep working.
type Pty struct {
	st Stamps

	// ts synchronizes itself with atomics; it is not guarded by mu.
	ts StampSlot

	mu         sync.Mutex
	toSlave    []byte // written at master, read at slave
	toMaster   []byte // written at slave, read at master
	masterOpen bool
	slaveOpen  bool
}

// NewPty allocates a pseudo-terminal pair.
func NewPty(st Stamps) *Pty {
	return &Pty{st: st, masterOpen: true, slaveOpen: true}
}

// PtyEnd selects a pty endpoint.
type PtyEnd int

// Pty endpoints.
const (
	Master PtyEnd = iota + 1
	Slave
)

// String names the endpoint.
func (e PtyEnd) String() string {
	switch e {
	case Master:
		return "master"
	case Slave:
		return "slave"
	default:
		return fmt.Sprintf("PtyEnd(%d)", int(e))
	}
}

// Write writes data at the given end on behalf of pid, embedding pid's
// stamp into the pty.
func (t *Pty) Write(end PtyEnd, pid int, data []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	switch end {
	case Master:
		if !t.masterOpen {
			return 0, fmt.Errorf("pty master write: %w", ErrClosedPipe)
		}
		t.toSlave = append(t.toSlave, data...)
	case Slave:
		if !t.slaveOpen {
			return 0, fmt.Errorf("pty slave write: %w", ErrClosedPipe)
		}
		t.toMaster = append(t.toMaster, data...)
	default:
		return 0, fmt.Errorf("pty write: invalid end %v", end)
	}
	t.ts.onSend(t.st, pid)
	return len(data), nil
}

// Read reads pending bytes at the given end on behalf of pid, adopting
// the pty's stamp if newer.
func (t *Pty) Read(end PtyEnd, pid int, dst []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var buf *[]byte
	switch end {
	case Master:
		if !t.masterOpen {
			return 0, fmt.Errorf("pty master read: %w", ErrClosedPipe)
		}
		buf = &t.toMaster
	case Slave:
		if !t.slaveOpen {
			return 0, fmt.Errorf("pty slave read: %w", ErrClosedPipe)
		}
		buf = &t.toSlave
	default:
		return 0, fmt.Errorf("pty read: invalid end %v", end)
	}
	if len(*buf) == 0 {
		return 0, fmt.Errorf("pty %s read: %w", end, ErrEmpty)
	}
	n := copy(dst, *buf)
	*buf = (*buf)[n:]
	t.ts.onRecv(t.st, pid)
	return n, nil
}

// CloseEnd closes one endpoint.
func (t *Pty) CloseEnd(end PtyEnd) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	switch end {
	case Master:
		if !t.masterOpen {
			return ErrClosedPipe
		}
		t.masterOpen = false
	case Slave:
		if !t.slaveOpen {
			return ErrClosedPipe
		}
		t.slaveOpen = false
	default:
		return fmt.Errorf("pty close: invalid end %v", end)
	}
	return nil
}

// EmbeddedStamp exposes the pty's carried timestamp.
func (t *Pty) EmbeddedStamp() time.Time { return t.ts.stampValue() }
