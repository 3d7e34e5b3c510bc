package overhaul

import (
	"testing"
	"time"

	"overhaul/internal/core"
	"overhaul/internal/fs"
)

// TestDeskGrantPathAllocs pins the allocations of one grant from click
// to device open: the op of the repo benchmark's desk-grant workload.
// A hardware click, the app draining its input, a pipe hop to a
// headless daemon, the daemon's alerted microphone open, and the close.
// The fs handle Kernel.Open returns is the one allocation left.
func TestDeskGrantPathAllocs(t *testing.T) {
	sys, mic, _, err := core.BootDefault()
	if err != nil {
		t.Fatalf("BootDefault: %v", err)
	}
	app, err := sys.Launch("recorder")
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	audiod, err := sys.LaunchHeadless("audiod")
	if err != nil {
		t.Fatalf("LaunchHeadless: %v", err)
	}
	pipe := sys.Kernel.NewPipe()
	sys.Settle(2 * time.Second)
	msg, buf := make([]byte, 32), make([]byte, 32)

	op := func() {
		if err := app.Click(); err != nil {
			t.Fatalf("Click: %v", err)
		}
		n := 0
		for {
			if _, ok := app.Client.NextEvent(); !ok {
				break
			}
			n++
		}
		if n == 0 {
			t.Fatal("click delivered no input event")
		}
		if _, err := pipe.Write(app.Proc.PID(), msg); err != nil {
			t.Fatalf("pipe write: %v", err)
		}
		if _, err := pipe.Read(audiod.PID(), buf); err != nil {
			t.Fatalf("pipe read: %v", err)
		}
		h, err := sys.Kernel.Open(audiod, mic, fs.AccessRead)
		if err != nil {
			t.Fatalf("open %s: %v", mic, err)
		}
		if err := h.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
	}
	if got := testing.AllocsPerRun(200, op); got > 1 {
		t.Errorf("desk grant op: %v allocs, want <= 1 (the fs handle)", got)
	}
	if got := sys.Kernel.Monitor().StatsSnapshot().AlertsSent; got == 0 {
		t.Error("no alert sent: the op never reached the alert round trip")
	}
}
