package fleet

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"overhaul/internal/monitor"
)

// TestFleetChurnUnderLoad is the fleet's -race stress test: sessions
// are created and destroyed concurrently while dispatch workers hammer
// the ingress and a degrader flips the stable sessions in and out of
// degraded mode. Every request must either succeed or fail with a
// clean lifecycle sentinel — never a race, never a verdict from a
// half-built or torn-down session.
func TestFleetChurnUnderLoad(t *testing.T) {
	f := newTestFleet(t, Config{AuditCapacity: 8})

	const (
		churners    = 4
		dispatchers = 4
		perWorker   = 2000
	)

	// Seed a stable population the dispatchers can always hit.
	stable := make([]uint64, 16)
	pids := make([]int, len(stable))
	for i := range stable {
		s, pid := mustSpawnStamped(f)
		stable[i], pids[i] = s.ID(), pid
	}

	var live sync.Map // ids created by churners, for dispatchers to target
	var unexpected atomic.Int64
	var wg sync.WaitGroup

	for w := 0; w < churners; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			var mine []uint64
			for i := 0; i < perWorker; i++ {
				if len(mine) == 0 || rng.Intn(2) == 0 {
					s := f.CreateSession()
					if _, err := s.Spawn(); err != nil && !errors.Is(err, ErrSessionClosed) {
						unexpected.Add(1)
					}
					live.Store(s.ID(), struct{}{})
					mine = append(mine, s.ID())
				} else {
					id := mine[rng.Intn(len(mine))]
					mine[0], mine = mine[len(mine)-1], mine[:len(mine)-1]
					live.Delete(id)
					if err := f.CloseSession(id); err != nil && !errors.Is(err, ErrNoSuchSession) {
						unexpected.Add(1)
					}
				}
			}
			for _, id := range mine {
				live.Delete(id)
				_ = f.CloseSession(id)
			}
		}(int64(100 + w))
	}

	opTime := base.Add(time.Second).UnixNano()
	for w := 0; w < dispatchers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perWorker; i++ {
				var id uint64
				var pid int
				if rng.Intn(2) == 0 {
					k := rng.Intn(len(stable))
					id, pid = stable[k], pids[k]
				} else {
					// Target a churning session: it may vanish mid-flight,
					// which must surface as a lifecycle sentinel only.
					live.Range(func(k, _ any) bool { id = k.(uint64); return rng.Intn(4) == 0 })
					pid = 1
				}
				kind := RequestDecide
				if i%8 == 0 {
					kind = RequestNotify
				}
				_, err := f.Dispatch(Request{SessionID: id, Kind: kind, PID: pid, Op: monitor.OpMic, Time: opTime})
				if err != nil && !errors.Is(err, ErrNoSuchSession) &&
					!errors.Is(err, ErrSessionClosed) && !errors.Is(err, ErrNoSuchProcess) {
					unexpected.Add(1)
				}
			}
		}(int64(200 + w))
	}

	// One writer flips degraded mode across the stable sessions for the
	// whole run; it stops once every churner and dispatcher has drained.
	stop := make(chan struct{})
	degraderDone := make(chan struct{})
	go func() {
		defer close(degraderDone)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			s, _ := f.Session(stable[i%len(stable)])
			if i/len(stable)%2 == 0 {
				s.SetDegraded("churn")
			} else {
				s.ClearDegraded()
			}
		}
	}()

	wg.Wait()
	close(stop)
	<-degraderDone

	if n := unexpected.Load(); n != 0 {
		t.Fatalf("%d requests failed with non-lifecycle errors", n)
	}
	// The stable population must have survived the churn intact.
	for i, id := range stable {
		s, ok := f.Session(id)
		if !ok || s.Closed() {
			t.Fatalf("stable session %d (id %d) lost during churn", i, id)
		}
	}
}

func mustSpawnStamped(f *Fleet) (*Session, int) {
	s := f.CreateSession()
	pid, err := s.Spawn()
	if err != nil {
		panic(err)
	}
	if err := s.Notify(pid, base); err != nil {
		panic(err)
	}
	return s, pid
}
