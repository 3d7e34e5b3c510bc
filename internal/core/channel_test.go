package core

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"overhaul/internal/devfs"
	"overhaul/internal/monitor"
	"overhaul/internal/netlink"
	"overhaul/internal/probe"
)

// degradeCounter counts the monitor's system.degrade events.
type degradeCounter struct{ n atomic.Int64 }

func (c *degradeCounter) Consume(ev probe.Event) {
	if ev.Kind == probe.KindDegrade && ev.Detail == "monitor" {
		c.n.Add(1)
	}
}

// TestChannelOutagesUnderLoad runs the grant path in one goroutine
// while another cycles DisconnectX/ReconnectX. Each cycle waits for the
// clicker to find the channel down before reconnecting, so every cycle
// is exactly one outage. Every grant must rest on the click just made,
// each outage must degrade the monitor exactly once, and a closed
// connection must refuse both directions until the reconnect.
func TestChannelOutagesUnderLoad(t *testing.T) {
	const cycles = 100
	reg := probe.NewRegistry()
	degrades := new(degradeCounter)
	if err := reg.AttachConsumer(degrades, probe.HookDegrade); err != nil {
		t.Fatalf("AttachConsumer: %v", err)
	}
	sys, err := Boot(Options{Enforce: true, AlertSecret: "tabby-cat", Probes: reg})
	if err != nil {
		t.Fatalf("Boot: %v", err)
	}
	mic, err := sys.AttachDevice(devfs.ClassMicrophone)
	if err != nil {
		t.Fatalf("AttachDevice: %v", err)
	}
	app := launchSettled(t, sys, "recorder")
	clk, _ := sys.SimClock()
	var downs atomic.Int64
	onDown := sys.ch.onDown
	sys.ch.onDown = func(reason string) {
		downs.Add(1)
		onDown(reason)
	}

	done := make(chan struct{})
	var grants, denials int
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			// Age every earlier stamp past δ, so only this click can
			// authorise the open below.
			clk.Advance(monitor.DefaultThreshold + time.Second)
			clickTime := clk.Now()
			if err := app.Click(); err != nil {
				t.Errorf("Click: %v", err)
				return
			}
			app.Client.DrainEvents()
			h, err := app.OpenDevice(mic)
			if err != nil {
				denials++
				continue
			}
			grants++
			if stamp := app.Proc.InteractionStamp(); !stamp.Equal(clickTime) {
				t.Errorf("grant on stamp %v, want the click's %v", stamp, clickTime)
			}
			if err := h.Close(); err != nil {
				t.Errorf("Close: %v", err)
			}
		}
	}()

	xpid := sys.XProcess().PID()
	for i := 0; i < cycles && !t.Failed(); i++ {
		if err := sys.DisconnectX(); err != nil {
			t.Fatalf("cycle %d: DisconnectX: %v", i, err)
		}
		if _, err := sys.xConn.Call(nil); !errors.Is(err, netlink.ErrClosed) {
			t.Errorf("cycle %d: Call after Close = %v, want ErrClosed", i, err)
		}
		if _, err := sys.hub.CallUser(xpid, nil); !errors.Is(err, netlink.ErrNotConnected) {
			t.Errorf("cycle %d: CallUser after Close = %v, want ErrNotConnected", i, err)
		}
		for !sys.ChannelDown() {
			runtime.Gosched()
		}
		if err := sys.ReconnectX(); err != nil {
			t.Fatalf("cycle %d: ReconnectX: %v", i, err)
		}
	}
	close(done)
	wg.Wait()

	if got := downs.Load(); got != cycles {
		t.Errorf("channel went down %d times over %d outages", got, cycles)
	}
	if got := degrades.n.Load(); got != cycles {
		t.Errorf("%d monitor system.degrade events over %d outages", got, cycles)
	}
	if grants == 0 || denials == 0 {
		t.Errorf("grants %d, denials %d: the run never saw both sides of an outage", grants, denials)
	}
}

// TestMarkDownFiresOnce races markDown from several goroutines: of
// each outage's racing callers exactly one reports it.
func TestMarkDownFiresOnce(t *testing.T) {
	var downs atomic.Int64
	ch := &channel{onDown: func(string) { downs.Add(1) }}
	for round := 1; round <= 50; round++ {
		ch.reset(new(netlink.Conn))
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ch.markDown()
			}()
		}
		wg.Wait()
		if got := downs.Load(); got != int64(round) {
			t.Fatalf("round %d: onDown fired %d times in total, want %d", round, got, round)
		}
	}
}

// BenchmarkAlertRoundTrip sends one pooled V_{A,op} alert through the
// channel's retry wrapper and the hub to the display server's
// ShowAlert: the kernel→X half of every alerted grant.
func BenchmarkAlertRoundTrip(b *testing.B) {
	sys, err := Boot(Options{Enforce: true, AlertSecret: "bench"})
	if err != nil {
		b.Fatalf("Boot: %v", err)
	}
	req := monitor.AlertRequest{PID: sys.XProcess().PID(), Op: monitor.OpMic, Time: sys.Clock.Now()}
	before := sys.X.StatsSnapshot()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := alertMsgPool.Get().(*alertMsg)
		*m = alertMsg(req)
		_, err := sys.ch.callUser(m)
		alertMsgPool.Put(m)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	// Repeats of one alert coalesce into the one on screen.
	if sys.X.StatsSnapshot().AlertsShown == before.AlertsShown {
		b.Fatal("no alert shown")
	}
}
