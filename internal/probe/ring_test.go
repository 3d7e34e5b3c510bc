package probe

import (
	"sync"
	"testing"

	"overhaul/internal/faultinject"
)

func TestRingPublishReadOrder(t *testing.T) {
	r := NewRing(8)
	for i := 0; i < 5; i++ {
		if !r.Publish(&Event{PID: int64(i)}) {
			t.Fatalf("publish %d refused on a non-full ring", i)
		}
	}
	buf := make([]Event, 16)
	n := r.ReadBatch(buf)
	if n != 5 {
		t.Fatalf("ReadBatch = %d, want 5", n)
	}
	for i := 0; i < n; i++ {
		if buf[i].PID != int64(i) {
			t.Fatalf("event %d has pid %d, want %d (FIFO order)", i, buf[i].PID, i)
		}
		if buf[i].Seq != uint64(i+1) {
			t.Fatalf("event %d has seq %d, want %d", i, buf[i].Seq, i+1)
		}
	}
	if n := r.ReadBatch(buf); n != 0 {
		t.Fatalf("drained ring returned %d more events", n)
	}
}

func TestRingDropOnOverflow(t *testing.T) {
	r := NewRing(8)
	if r.Capacity() != 8 {
		t.Fatalf("capacity %d, want 8", r.Capacity())
	}
	for i := 0; i < 8; i++ {
		if !r.Publish(&Event{PID: int64(i)}) {
			t.Fatalf("publish %d refused before full", i)
		}
	}
	for i := 0; i < 3; i++ {
		if r.Publish(&Event{PID: 99}) {
			t.Fatal("publish accepted on a full ring")
		}
	}
	st := r.Stats()
	if st.Published != 8 || st.Dropped != 3 || st.Pending != 8 {
		t.Fatalf("stats %+v, want published=8 dropped=3 pending=8", st)
	}
	// Draining reopens capacity.
	buf := make([]Event, 8)
	if n := r.ReadBatch(buf); n != 8 {
		t.Fatalf("ReadBatch = %d, want 8", n)
	}
	if !r.Publish(&Event{PID: 100}) {
		t.Fatal("publish refused after drain")
	}
	if got := r.Stats(); got.Published != 9 || got.Read != 8 {
		t.Fatalf("stats after drain %+v", got)
	}
}

func TestRingCapacityRounding(t *testing.T) {
	for _, tc := range []struct{ ask, want int }{
		{0, 8}, {1, 8}, {8, 8}, {9, 16}, {1000, 1024},
	} {
		if got := NewRing(tc.ask).Capacity(); got != tc.want {
			t.Errorf("NewRing(%d).Capacity() = %d, want %d", tc.ask, got, tc.want)
		}
	}
}

func TestRingReaderStallFault(t *testing.T) {
	inj, err := faultinject.New(1, faultinject.Rule{
		Point: faultinject.PointProbeRing, Kind: faultinject.KindError, Count: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := NewRing(8)
	r.SetFaultHook(inj.Hook())
	for i := 0; i < 4; i++ {
		r.Publish(&Event{PID: int64(i)})
	}
	buf := make([]Event, 8)
	// Two stalled reads: nothing consumed, stall counted.
	for i := 0; i < 2; i++ {
		if n := r.ReadBatch(buf); n != 0 {
			t.Fatalf("stalled read %d returned %d events", i, n)
		}
	}
	if st := r.Stats(); st.Stalls != 2 || st.Read != 0 || st.Pending != 4 {
		t.Fatalf("stats under stall %+v", st)
	}
	// The rule is exhausted: the next read drains normally.
	if n := r.ReadBatch(buf); n != 4 {
		t.Fatalf("post-stall read = %d, want 4", n)
	}
}

func TestRingConcurrentPublish(t *testing.T) {
	const (
		publishers = 8
		perPub     = 5000
		ringSize   = 256
	)
	r := NewRing(ringSize)
	var wg sync.WaitGroup
	var readerWG sync.WaitGroup
	stop := make(chan struct{})
	var read uint64
	perPIDMax := make([]int64, publishers)
	for i := range perPIDMax {
		perPIDMax[i] = -1
	}

	readerWG.Add(1)
	go func() {
		defer readerWG.Done()
		buf := make([]Event, 64)
		consume := func(n int) bool {
			for i := 0; i < n; i++ {
				ev := buf[i]
				// Per-publisher payloads must arrive in their publish
				// order: each publisher's TimeNanos is monotone.
				if ev.TimeNanos <= perPIDMax[ev.PID] {
					t.Errorf("publisher %d: event %d after %d", ev.PID, ev.TimeNanos, perPIDMax[ev.PID])
					return false
				}
				perPIDMax[ev.PID] = ev.TimeNanos
				read++
			}
			return true
		}
		for {
			n := r.ReadBatch(buf)
			if !consume(n) {
				return
			}
			if n == 0 {
				select {
				case <-stop:
					// Publishers are done; one final drain empties the ring.
					if m := r.ReadBatch(buf); m > 0 {
						if !consume(m) {
							return
						}
						continue
					}
					return
				default:
				}
			}
		}
	}()

	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perPub; i++ {
				r.Publish(&Event{PID: int64(p), TimeNanos: int64(i)})
			}
		}(p)
	}
	wg.Wait()
	close(stop)
	readerWG.Wait()

	st := r.Stats()
	if st.Published+st.Dropped != publishers*perPub {
		t.Fatalf("published %d + dropped %d != attempts %d", st.Published, st.Dropped, publishers*perPub)
	}
	if read != st.Published || st.Read != st.Published || st.Pending != 0 {
		t.Fatalf("read %d (stats read %d, pending %d), want every published event (%d) consumed",
			read, st.Read, st.Pending, st.Published)
	}
}
