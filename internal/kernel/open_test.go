package kernel

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"overhaul/internal/clock"
	"overhaul/internal/devfs"
	"overhaul/internal/fs"
	"overhaul/internal/monitor"
	"overhaul/internal/probe"
)

// tickClock is a clock double that advances 1ns on every read and
// counts its reads.
type tickClock struct {
	mu    sync.Mutex
	t     time.Time
	reads int
}

func (c *tickClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reads++
	c.t = c.t.Add(time.Nanosecond)
	return c.t
}

func (c *tickClock) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.reads
}

// openBegins records the begin events of kernel.open spans.
type openBegins struct {
	mu     sync.Mutex
	begins []probe.Event
}

func (o *openBegins) Consume(ev probe.Event) {
	if ev.Phase == probe.PhaseBegin {
		o.mu.Lock()
		o.begins = append(o.begins, ev)
		o.mu.Unlock()
	}
}

// TestSensitiveOpenReadsClockOnce pins one clock read per sensitive
// open: a traced open decides at its span's begin instant, and an
// untraced one reads the clock only to decide.
func TestSensitiveOpenReadsClockOnce(t *testing.T) {
	for _, traced := range []bool{true, false} {
		for _, grant := range []bool{true, false} {
			t.Run(fmt.Sprintf("traced=%v/grant=%v", traced, grant), func(t *testing.T) {
				clk := &tickClock{t: clock.Epoch}
				cfg := Config{Monitor: monitor.Config{Enforce: true, Threshold: monitor.DefaultThreshold}}
				obs := &openBegins{}
				if traced {
					cfg.Monitor.Probes = probe.NewRegistry()
					if err := cfg.Monitor.Probes.AttachConsumer(obs, probe.HookKernelOpen); err != nil {
						t.Fatal(err)
					}
				}
				fsys := fs.New(clk)
				k, err := New(clk, fsys, cfg)
				if err != nil {
					t.Fatal(err)
				}
				helper, err := devfs.NewHelper(fsys, k)
				if err != nil {
					t.Fatal(err)
				}
				mic, err := helper.Attach(devfs.ClassMicrophone)
				if err != nil {
					t.Fatal(err)
				}
				p, err := k.Spawn(SpawnSpec{Name: "rec", Exe: "/usr/bin/rec", Cred: fs.Cred{UID: 1000, GID: 1000}})
				if err != nil {
					t.Fatal(err)
				}
				if grant {
					if err := k.Monitor().Notify(p.PID(), clk.Now()); err != nil {
						t.Fatal(err)
					}
				}

				before := clk.count()
				h, err := k.Open(p, mic, fs.AccessRead)
				if reads := clk.count() - before; reads != 1 {
					t.Fatalf("open read the clock %d times, want 1", reads)
				}
				if grant != (err == nil) {
					t.Fatalf("Open = %v, %v; want grant %v", h, err, grant)
				}
				audit := k.Monitor().Audit()
				opTime := audit[len(audit)-1].OpTime
				if traced {
					if len(obs.begins) != 1 || obs.begins[0].TimeNanos != opTime.UnixNano() {
						t.Fatalf("open span begins %+v, want one at the decision's op time %v", obs.begins, opTime)
					}
				}
			})
		}
	}
}

// TestOpenDeniedError pins a denied open's error: the message the
// fmt.Errorf format Open used to return renders, wrapping
// ErrAccessDenied.
func TestOpenDeniedError(t *testing.T) {
	e := newEnv(t, enforcing())
	mic, err := e.helper.Attach(devfs.ClassMicrophone)
	if err != nil {
		t.Fatal(err)
	}
	spy := e.spawnUser(t, "spy")
	_, err = e.k.Open(spy, mic, fs.AccessRead)
	want := fmt.Errorf("open %s (%s) by pid %d: %w", mic, devfs.ClassMicrophone, spy.PID(), ErrAccessDenied)
	if err == nil || err.Error() != want.Error() {
		t.Fatalf("Open error = %v, want %q", err, want.Error())
	}
	if !errors.Is(err, ErrAccessDenied) {
		t.Fatalf("errors.Is(%v, ErrAccessDenied) = false", err)
	}
}

// BenchmarkKernelOpenDenied is the denial stream's syscall: a
// sensitive open by a process with no interaction stamp, on the system
// clock with telemetry off.
func BenchmarkKernelOpenDenied(b *testing.B) {
	clk := clock.System{}
	fsys := fs.New(clk)
	k, err := New(clk, fsys, Config{Monitor: monitor.Config{Enforce: true}})
	if err != nil {
		b.Fatal(err)
	}
	helper, err := devfs.NewHelper(fsys, k)
	if err != nil {
		b.Fatal(err)
	}
	mic, err := helper.Attach(devfs.ClassMicrophone)
	if err != nil {
		b.Fatal(err)
	}
	spy, err := k.Spawn(SpawnSpec{Name: "spy", Exe: "/usr/bin/spy", Cred: fs.Cred{UID: 1000, GID: 1000}})
	if err != nil {
		b.Fatal(err)
	}
	// The first denial allocates the pid's audit ring.
	if _, err := k.Open(spy, mic, fs.AccessRead); !errors.Is(err, ErrAccessDenied) {
		b.Fatalf("Open = %v, want ErrAccessDenied", err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if _, err := k.Open(spy, mic, fs.AccessRead); err == nil {
			b.Fatal("sensitive open without a stamp granted")
		}
	}
}
