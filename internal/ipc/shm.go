package ipc

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"overhaul/internal/clock"
	"overhaul/internal/faultinject"
)

// DefaultShmWait is the paper's wait-list duration: after a simulated
// page fault propagates stamps, the mapping's permissions stay restored
// for this long before being revoked again. 500 ms "yielded a good
// performance-usability trade-off" (§IV-B) — it must stay well below the
// 2 s interaction expiry or propagation windows would be missed.
const DefaultShmWait = 500 * time.Millisecond

// PageSize is the simulated page size.
const PageSize = 4096

// ErrOutOfRange is returned for accesses beyond the segment.
var ErrOutOfRange = errors.New("ipc: shared memory access out of range")

// ShmStats counts fault-path versus fast-path accesses.
type ShmStats struct {
	Faults       uint64
	FastAccesses uint64
	// TimerMisfires counts injected wait-list timer faults. A misfire
	// ends the disarm window early; the access re-faults and
	// re-propagates stamps instead of trusting the stale window.
	TimerMisfires uint64
}

// SharedMem is a POSIX (shm_open) or SysV (shmget) shared-memory
// segment. Plain memory loads and stores cannot be intercepted above
// the hardware, so Overhaul revokes page permissions and catches the
// resulting faults; this type simulates that machinery: the first access
// through a mapping takes the "fault" path (stamp propagation in both
// directions, then permissions restored), and subsequent accesses within
// the wait-list window take the uninterrupted fast path.
//
// A nil Stamps store creates an *unguarded* segment — the vanilla-kernel
// baseline configuration used by the Table I benchmark.
type SharedMem struct {
	st   Stamps
	clk  clock.Clock
	wait time.Duration

	// ts synchronizes itself with atomics; it is not guarded by mu.
	ts StampSlot

	mu       sync.Mutex
	interval int // guard-check amortization (accesses per clock read)
	data     []byte
	removed  bool
	stats    ShmStats
	faults   faultinject.Hook
}

// NewSharedMem creates a segment of the given number of pages. wait <= 0
// selects DefaultShmWait; wait is the re-revocation delay.
func NewSharedMem(st Stamps, clk clock.Clock, pages int, wait time.Duration) (*SharedMem, error) {
	if pages <= 0 {
		return nil, fmt.Errorf("ipc: shm size %d pages invalid", pages)
	}
	if clk == nil {
		return nil, errors.New("ipc: nil clock")
	}
	if wait <= 0 {
		wait = DefaultShmWait
	}
	return &SharedMem{
		st:       st,
		clk:      clk,
		wait:     wait,
		interval: 1,
		data:     make([]byte, pages*PageSize),
	}, nil
}

// SetCheckInterval amortizes the simulated guard over n accesses: the
// wait-list clock is consulted only every n-th access on the fast path.
// In the real system fast-path accesses are raw memory operations with
// zero overhead (page permissions are restored); the per-access check is
// purely a simulation artifact, and the benchmark harness raises the
// interval to keep that artifact out of the measured overhead. With
// n > 1 the FastAccesses counter remains exact but the wait-window edge
// is detected up to n-1 accesses late. n < 1 is treated as 1 (exact
// semantics, the default used by the tests).
func (s *SharedMem) SetCheckInterval(n int) {
	if n < 1 {
		n = 1
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.interval = n
}

// SetFaultHook installs the fault-injection hook consulted at
// PointShmTimer whenever a fast-path access relies on the wait-list
// window. A nil hook disables injection.
func (s *SharedMem) SetFaultHook(hook faultinject.Hook) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.faults = hook
}

// Size returns the segment size in bytes.
func (s *SharedMem) Size() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.data)
}

// Remove marks the segment destroyed (shmctl IPC_RMID / shm_unlink).
// Existing mappings fail afterwards, which is stricter than Linux but
// sufficient for the simulation.
func (s *SharedMem) Remove() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.removed {
		return ErrClosedPipe
	}
	s.removed = true
	return nil
}

// StatsSnapshot returns the fault/fast access counters.
func (s *SharedMem) StatsSnapshot() ShmStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// EmbeddedStamp exposes the segment's carried timestamp.
func (s *SharedMem) EmbeddedStamp() time.Time { return s.ts.stampValue() }

// Map attaches the segment into pid's address space (mmap/shmat) and
// returns the mapping through which all accesses flow. The mapping
// starts with permissions revoked, so the first access faults.
func (s *SharedMem) Map(pid int) *Mapping {
	return &Mapping{shm: s, pid: pid}
}

// Mapping is one process's attached view of a shared-memory segment
// (the vm_area_struct analogue carrying the revocation state). Its
// guard state is protected by the segment mutex, which every access
// takes anyway.
type Mapping struct {
	shm *SharedMem
	pid int

	// Guarded by shm.mu.
	disarmedUntil time.Time // while now < disarmedUntil: fast path
	skip          int       // remaining amortized unchecked accesses
}

// PID returns the owning process.
func (m *Mapping) PID() int { return m.pid }

// accessLocked runs the guard with shm.mu held and reports whether the
// access faulted (stamp propagation then happens outside the lock).
func (m *Mapping) accessLocked() bool {
	s := m.shm
	if s.st == nil {
		return false // unguarded baseline segment
	}
	if m.skip > 0 {
		m.skip--
		return false
	}
	// Account the amortized window consumed since the last check; with
	// interval 1 this adds zero and the counters stay exact.
	s.stats.FastAccesses += uint64(s.interval - 1)
	m.skip = s.interval - 1

	now := s.clk.Now()
	if now.Before(m.disarmedUntil) {
		if faultinject.Eval(s.faults, faultinject.PointShmTimer).Injected() {
			// The wait-list timer misfired: the disarm window cannot
			// be trusted. Fail closed — take the fault path and
			// re-propagate stamps rather than skip propagation.
			s.stats.TimerMisfires++
			m.disarmedUntil = now.Add(s.wait)
			s.stats.Faults++
			return true
		}
		s.stats.FastAccesses++
		return false
	}
	m.disarmedUntil = now.Add(s.wait)
	s.stats.Faults++
	return true
}

// Write stores data at off.
func (m *Mapping) Write(off int, data []byte) error {
	s := m.shm
	s.mu.Lock()
	if s.removed {
		s.mu.Unlock()
		return fmt.Errorf("shm write: %w", ErrClosedPipe)
	}
	if off < 0 || off+len(data) > len(s.data) {
		s.mu.Unlock()
		return fmt.Errorf("shm write [%d,%d): %w", off, off+len(data), ErrOutOfRange)
	}
	fault := m.accessLocked()
	copy(s.data[off:], data)
	s.mu.Unlock()

	if fault {
		// A fault cannot tell a load from a store, so propagate in
		// both directions (§IV-B).
		s.ts.onAccess(s.st, m.pid)
	}
	return nil
}

// Read loads n bytes from off.
func (m *Mapping) Read(off, n int) ([]byte, error) {
	s := m.shm
	s.mu.Lock()
	if s.removed {
		s.mu.Unlock()
		return nil, fmt.Errorf("shm read: %w", ErrClosedPipe)
	}
	if off < 0 || n < 0 || off+n > len(s.data) {
		s.mu.Unlock()
		return nil, fmt.Errorf("shm read [%d,%d): %w", off, off+n, ErrOutOfRange)
	}
	fault := m.accessLocked()
	out := make([]byte, n)
	copy(out, s.data[off:off+n])
	s.mu.Unlock()

	if fault {
		s.ts.onAccess(s.st, m.pid)
	}
	return out, nil
}
