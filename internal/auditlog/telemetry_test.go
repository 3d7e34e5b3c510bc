package auditlog

// Telemetry-parity and robustness tests: the audit log and the
// monitor.audit_appends counter are two views of the same event stream
// and must never disagree, NewWriterAt must reject broken wiring, and
// concurrent decision traffic must stay race-clean (the CI race step
// runs this package under -race).

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"overhaul/internal/clock"
	"overhaul/internal/core"
	"overhaul/internal/devfs"
	"overhaul/internal/fs"
	"overhaul/internal/monitor"
	"overhaul/internal/telemetry"
	"overhaul/internal/xserver"
)

// auditAppends reads the monitor.audit_appends counter.
func auditAppends(tel *telemetry.Recorder) uint64 {
	for _, p := range tel.MetricsSnapshot() {
		if p.Subsystem == "monitor" && p.Name == "audit_appends" {
			return uint64(p.Value)
		}
	}
	return 0
}

func bootInstrumented(t *testing.T) (*core.System, *telemetry.Recorder, *Writer, string) {
	t.Helper()
	clk := clock.NewSimulated()
	tel := telemetry.New(clk)
	sys, err := core.Boot(core.Options{
		Clock:       clk,
		Enforce:     true,
		AlertSecret: "a",
		Telemetry:   tel,
	})
	if err != nil {
		t.Fatalf("Boot: %v", err)
	}
	mic, err := sys.Helper.Attach(devfs.ClassMicrophone)
	if err != nil {
		t.Fatalf("Attach: %v", err)
	}
	w, err := NewWriter(sys.FS, sys.Kernel.Monitor())
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	return sys, tel, w, mic
}

// TestAuditAppendsCounterMatchesLog pins the tentpole's counter
// vocabulary to the audit log: after a mix of grants and denials, the
// monitor.audit_appends counter, the Flush record count, and the number
// of rendered log lines are all the same number.
func TestAuditAppendsCounterMatchesLog(t *testing.T) {
	sys, tel, w, mic := bootInstrumented(t)
	app, err := sys.Launch("app")
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	sys.Settle(2 * xserver.DefaultVisibilityThreshold)

	// Two denials (no interaction yet), then a grant inside δ.
	for i := 0; i < 2; i++ {
		if _, err := app.OpenDevice(mic); err == nil {
			t.Fatal("expected denial before any interaction")
		}
	}
	if err := app.Click(); err != nil {
		t.Fatalf("Click: %v", err)
	}
	sys.Settle(100 * time.Millisecond)
	if _, err := app.OpenDevice(mic); err != nil {
		t.Fatalf("OpenDevice after click: %v", err)
	}

	n, err := w.Flush()
	if err != nil {
		t.Fatalf("Flush: %v", err)
	}
	lines, err := w.Read(fs.Root)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	appends := auditAppends(tel)
	if uint64(n) != appends || uint64(len(lines)) != appends {
		t.Fatalf("audit views disagree: counter=%d flushed=%d lines=%d",
			appends, n, len(lines))
	}
	if appends < 3 {
		t.Fatalf("audit_appends = %d, want at least the 3 decisions driven here", appends)
	}
}

// TestNewWriterAtErrorPaths covers every failure mode of the
// constructor: missing filesystem, missing monitor, and a filesystem
// where /var/log cannot be created because a regular file squats on
// the path. The empty-path case must fall back to the conventional
// location rather than error.
func TestNewWriterAtErrorPaths(t *testing.T) {
	sys, err := core.Boot(core.Options{Enforce: true, AlertSecret: "a"})
	if err != nil {
		t.Fatalf("Boot: %v", err)
	}
	mon := sys.Kernel.Monitor()

	if _, err := NewWriterAt(nil, mon, Path); !errors.Is(err, ErrNilArgs) {
		t.Errorf("NewWriterAt(nil fs) = %v, want ErrNilArgs", err)
	}
	if _, err := NewWriterAt(sys.FS, nil, Path); !errors.Is(err, ErrNilArgs) {
		t.Errorf("NewWriterAt(nil monitor) = %v, want ErrNilArgs", err)
	}

	// Empty path defaults to the conventional location.
	w, err := NewWriterAt(sys.FS, mon, "")
	if err != nil {
		t.Fatalf("NewWriterAt(empty path): %v", err)
	}
	if _, err := w.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if _, err := sys.FS.Stat(Path); err != nil {
		t.Errorf("empty path did not fall back to %s: %v", Path, err)
	}

	// A bare filesystem where a regular file squats on /var: creating
	// /var/log must fail inside MkdirAll (non-directory on the walk)
	// and the constructor must surface it.
	bare := fs.New(clock.NewSimulated())
	if err := bare.WriteFile("/var", []byte("not a directory"), 0o644, fs.Root); err != nil {
		t.Fatalf("WriteFile /var: %v", err)
	}
	if _, err := NewWriterAt(bare, mon, Path); err == nil {
		t.Error("NewWriterAt over a file at /var should fail")
	} else if !strings.Contains(err.Error(), "auditlog:") {
		t.Errorf("constructor error not wrapped with package prefix: %v", err)
	}
}

// TestConcurrentAppendRaceClean drives decisions from two goroutines at
// once. The audit ring and the telemetry counter sit behind the
// monitor's mutex, so every append must land exactly once; the CI race
// step makes -race the second assertion.
func TestConcurrentAppendRaceClean(t *testing.T) {
	sys, tel, w, _ := bootInstrumented(t)
	spy, err := sys.LaunchHeadless("spy")
	if err != nil {
		t.Fatalf("LaunchHeadless: %v", err)
	}
	mon := sys.Kernel.Monitor()
	before := auditAppends(tel)

	const perGoroutine = 200
	opTime := sys.Clock.Now()
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perGoroutine; i++ {
				mon.Decide(spy.PID(), monitor.OpMic, opTime)
			}
		}()
	}
	wg.Wait()

	appends := auditAppends(tel) - before
	if appends != 2*perGoroutine {
		t.Fatalf("audit_appends grew by %d, want %d", appends, 2*perGoroutine)
	}
	// The ring defaults to 1024 slots, so all 400 records must still be
	// present when flushed.
	n, err := w.Flush()
	if err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if n < 2*perGoroutine {
		t.Fatalf("Flush = %d records, want at least %d", n, 2*perGoroutine)
	}
}
