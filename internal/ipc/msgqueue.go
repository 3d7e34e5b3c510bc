package ipc

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// QueueFlavor selects the message-queue semantics.
type QueueFlavor int

// Queue flavors. POSIX queues deliver highest-priority-first; SysV
// queues deliver FIFO with an optional receive-by-type filter.
const (
	FlavorPOSIX QueueFlavor = iota + 1
	FlavorSysV
)

// String names the flavor.
func (f QueueFlavor) String() string {
	switch f {
	case FlavorPOSIX:
		return "posix"
	case FlavorSysV:
		return "sysv"
	default:
		return fmt.Sprintf("QueueFlavor(%d)", int(f))
	}
}

// DefaultQueueCapacity bounds queued messages, mirroring msg_max.
const DefaultQueueCapacity = 1024

// queuedMsg is one message in flight.
type queuedMsg struct {
	key  int // POSIX priority or SysV mtype
	data []byte
	seq  uint64
}

// MsgQueue is a POSIX or SysV message queue with Overhaul stamp
// propagation. It is safe for concurrent use.
type MsgQueue struct {
	st     Stamps
	flavor QueueFlavor

	// ts synchronizes itself with atomics; it is not guarded by mu.
	ts StampSlot

	mu      sync.Mutex
	msgs    []queuedMsg
	nextSeq uint64
	cap     int
	removed bool
}

// NewMsgQueue creates a queue of the given flavor. capacity <= 0 selects
// DefaultQueueCapacity.
func NewMsgQueue(st Stamps, flavor QueueFlavor, capacity int) *MsgQueue {
	if capacity <= 0 {
		capacity = DefaultQueueCapacity
	}
	return &MsgQueue{st: st, flavor: flavor, cap: capacity}
}

// Flavor returns the queue's semantics flavor.
func (q *MsgQueue) Flavor() QueueFlavor { return q.flavor }

// Send enqueues a message on behalf of pid. key is the POSIX priority
// or the SysV mtype (must be positive for SysV, as for msgsnd).
func (q *MsgQueue) Send(pid int, key int, data []byte) error {
	if q.flavor == FlavorSysV && key <= 0 {
		return fmt.Errorf("msgsnd: mtype %d must be positive", key)
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.removed {
		return fmt.Errorf("msg send: %w", ErrClosedPipe)
	}
	if len(q.msgs) >= q.cap {
		return fmt.Errorf("msg send: %w", ErrFull)
	}
	q.ts.onSend(q.st, pid)
	msg := queuedMsg{key: key, seq: q.nextSeq, data: make([]byte, len(data))}
	copy(msg.data, data)
	q.nextSeq++
	q.msgs = append(q.msgs, msg)
	return nil
}

// Recv dequeues a message on behalf of pid.
//
// POSIX flavor: filter is ignored; the highest-priority message (FIFO
// within a priority) is returned with its priority.
// SysV flavor: filter == 0 returns the oldest message; filter > 0
// returns the oldest message of exactly that mtype.
func (q *MsgQueue) Recv(pid int, filter int) (key int, data []byte, err error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.msgs) == 0 {
		if q.removed {
			return 0, nil, fmt.Errorf("msg recv: %w", ErrClosedPipe)
		}
		return 0, nil, fmt.Errorf("msg recv: %w", ErrEmpty)
	}

	idx := -1
	switch q.flavor {
	case FlavorPOSIX:
		best := -1
		for i, m := range q.msgs {
			if best == -1 || m.key > q.msgs[best].key ||
				(m.key == q.msgs[best].key && m.seq < q.msgs[best].seq) {
				best = i
			}
		}
		idx = best
	case FlavorSysV:
		for i, m := range q.msgs {
			if filter == 0 || m.key == filter {
				idx = i
				break
			}
		}
	}
	if idx == -1 {
		return 0, nil, fmt.Errorf("msg recv mtype %d: %w", filter, ErrEmpty)
	}

	msg := q.msgs[idx]
	q.msgs = append(q.msgs[:idx], q.msgs[idx+1:]...)
	q.ts.onRecv(q.st, pid)
	return msg.key, msg.data, nil
}

// Len returns the number of queued messages.
func (q *MsgQueue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.msgs)
}

// Remove marks the queue removed (msgctl IPC_RMID / mq_unlink). Pending
// messages are discarded.
func (q *MsgQueue) Remove() error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.removed {
		return ErrClosedPipe
	}
	q.removed = true
	q.msgs = nil
	return nil
}

// Keys returns the distinct keys currently queued, sorted (diagnostics).
func (q *MsgQueue) Keys() []int {
	q.mu.Lock()
	defer q.mu.Unlock()
	seen := make(map[int]bool)
	for _, m := range q.msgs {
		seen[m.key] = true
	}
	out := make([]int, 0, len(seen))
	for k := range seen {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// EmbeddedStamp exposes the queue's carried timestamp.
func (q *MsgQueue) EmbeddedStamp() time.Time { return q.ts.stampValue() }
