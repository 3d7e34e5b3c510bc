package clock

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestSimulatedStartsAtEpoch(t *testing.T) {
	c := NewSimulated()
	if got := c.Now(); !got.Equal(Epoch) {
		t.Fatalf("Now() = %v, want %v", got, Epoch)
	}
}

func TestSimulatedZeroValueStartsAtEpoch(t *testing.T) {
	var c Simulated
	if got := c.Now(); !got.Equal(Epoch) {
		t.Fatalf("zero-value Now() = %v, want %v", got, Epoch)
	}
}

func TestSimulatedAdvance(t *testing.T) {
	tests := []struct {
		name string
		d    time.Duration
		want time.Duration // offset from Epoch
	}{
		{name: "one second", d: time.Second, want: time.Second},
		{name: "zero", d: 0, want: 0},
		{name: "negative ignored", d: -time.Hour, want: 0},
		{name: "sub-millisecond", d: 250 * time.Microsecond, want: 250 * time.Microsecond},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			c := NewSimulated()
			got := c.Advance(tt.d)
			if want := Epoch.Add(tt.want); !got.Equal(want) {
				t.Fatalf("Advance(%v) = %v, want %v", tt.d, got, want)
			}
		})
	}
}

func TestSimulatedAdvanceAccumulates(t *testing.T) {
	c := NewSimulated()
	c.Advance(time.Second)
	c.Advance(2 * time.Second)
	if got, want := c.Now(), Epoch.Add(3*time.Second); !got.Equal(want) {
		t.Fatalf("Now() = %v, want %v", got, want)
	}
}

func TestSimulatedSetForwardOnly(t *testing.T) {
	c := NewSimulated()
	future := Epoch.Add(time.Hour)
	if got := c.Set(future); !got.Equal(future) {
		t.Fatalf("Set(future) = %v, want %v", got, future)
	}
	// Attempting to go backwards leaves the clock untouched.
	if got := c.Set(Epoch); !got.Equal(future) {
		t.Fatalf("Set(past) = %v, want clock to stay at %v", got, future)
	}
}

func TestNewSimulatedAt(t *testing.T) {
	start := time.Date(2020, time.January, 1, 0, 0, 0, 0, time.UTC)
	c := NewSimulatedAt(start)
	if got := c.Now(); !got.Equal(start) {
		t.Fatalf("Now() = %v, want %v", got, start)
	}
}

// TestSystemClock checks System's contract: its first read is the wall
// clock's instant, every instant carries a monotonic reading, and reads
// ordered by a channel hand-off between two goroutines never go
// backwards.
func TestSystemClock(t *testing.T) {
	var c System
	first, wall := c.Now(), time.Now()
	if d := wall.Sub(first); d < -time.Second || d > time.Second {
		t.Fatalf("first read %v is %v from time.Now %v, want within 1s", first, d, wall)
	}
	// Only a time.Time with a monotonic reading prints its "m=" offset.
	if s := first.String(); !strings.Contains(s, " m=") {
		t.Fatalf("System.Now() = %s carries no monotonic reading", s)
	}

	const reads = 10000
	handoff := make(chan time.Time)
	done := make(chan error)
	go func() {
		for prev := range handoff {
			if now := c.Now(); now.Before(prev) {
				done <- fmt.Errorf("went backwards across goroutines: %v then %v", prev, now)
				for range handoff {
				}
				return
			}
		}
		done <- nil
	}()
	prev := c.Now()
	for range reads {
		now := c.Now()
		if now.Before(prev) {
			t.Fatalf("went backwards: %v then %v", prev, now)
		}
		handoff <- now
		prev = now
	}
	close(handoff)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// Laps partition the elapsed time: none is negative, and together they
// are no longer than an enclosing stopwatch's one lap.
func TestStopwatchLaps(t *testing.T) {
	outer := StartStopwatch()
	w := StartStopwatch()
	var total time.Duration
	for range 100 {
		d := w.Lap()
		if d < 0 {
			t.Fatalf("lap %v is negative", d)
		}
		total += d
	}
	if whole := outer.Lap(); total > whole {
		t.Fatalf("laps total %v, longer than the enclosing %v", total, whole)
	}
}

// BenchmarkClockSystemNow is the cost of one System.Now: every
// mediated access on a desk reads it, so it must not allocate.
func BenchmarkClockSystemNow(b *testing.B) {
	b.ReportAllocs()
	var c Clock = System{}
	var last time.Time
	for range b.N {
		last = c.Now()
	}
	if last.IsZero() {
		b.Fatal("zero instant")
	}
}

// Property: for any sequence of non-negative advances, the final instant
// equals Epoch plus the sum, and the clock is monotone throughout.
func TestSimulatedMonotoneProperty(t *testing.T) {
	f := func(steps []uint16) bool {
		c := NewSimulated()
		var total time.Duration
		prev := c.Now()
		for _, s := range steps {
			d := time.Duration(s) * time.Millisecond
			total += d
			now := c.Advance(d)
			if now.Before(prev) {
				return false
			}
			prev = now
		}
		return c.Now().Equal(Epoch.Add(total))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: concurrent advances are all applied exactly once.
func TestSimulatedConcurrentAdvance(t *testing.T) {
	c := NewSimulated()
	const (
		workers = 8
		perW    = 100
	)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perW; j++ {
				c.Advance(time.Millisecond)
			}
		}()
	}
	wg.Wait()
	want := Epoch.Add(workers * perW * time.Millisecond)
	if got := c.Now(); !got.Equal(want) {
		t.Fatalf("Now() = %v, want %v", got, want)
	}
}
