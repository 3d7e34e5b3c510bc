package overhaul

// Table I benchmarks (testing.B form). Each paper row has a Baseline
// and an Overhaul benchmark; compare ns/op pairs to reproduce the
// overhead column. `go test -bench 'TableI' -benchmem` prints them all.
// The cmd/overhaul-bench binary runs the same workloads in the paper's
// loop form and prints the table directly.

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"overhaul/internal/clock"
	"overhaul/internal/core"
	"overhaul/internal/devfs"
	"overhaul/internal/fs"
	"overhaul/internal/ipc"
	"overhaul/internal/kernel"
	"overhaul/internal/monitor"
	"overhaul/internal/xserver"
)

const (
	benchWireWork    = 2
	benchShmInterval = 64
)

// baselineKernel builds an unmodified kernel with a device node that is
// not registered with the permission monitor.
func baselineKernel(b *testing.B) (*kernel.Kernel, *kernel.Process, string) {
	b.Helper()
	clk := clock.System{}
	fsys := fs.New(clk)
	k, err := kernel.New(clk, fsys, kernel.Config{
		Monitor:          monitor.Config{Enforce: false},
		DeviceInitRounds: kernel.DefaultDeviceInitRounds,
		StorageRounds:    1,
	})
	if err != nil {
		b.Fatalf("kernel.New: %v", err)
	}
	if err := fsys.MkdirAll("/dev/snd", 0o755, fs.Root); err != nil {
		b.Fatalf("MkdirAll: %v", err)
	}
	const mic = "/dev/snd/pcmC0D0c"
	if err := fsys.Mknod(mic, "microphone", 0o666, fs.Root); err != nil {
		b.Fatalf("Mknod: %v", err)
	}
	if err := fsys.MkdirAll("/tmp/bonnie", 0o777, fs.Root); err != nil {
		b.Fatalf("MkdirAll: %v", err)
	}
	proc, err := k.Spawn(kernel.SpawnSpec{Name: "bench", Exe: "/usr/bin/bench", Cred: fs.Root})
	if err != nil {
		b.Fatalf("Spawn: %v", err)
	}
	return k, proc, mic
}

// overhaulSystem builds the measured force-grant system with a
// registered microphone.
func overhaulSystem(b *testing.B) (*core.System, *kernel.Process, string) {
	b.Helper()
	sys, err := core.Boot(core.Options{
		Clock:            clock.System{},
		Enforce:          true,
		ForceGrant:       true,
		AlertSecret:      "bench",
		DeviceInitRounds: kernel.DefaultDeviceInitRounds,
		WireWork:         benchWireWork,
		StorageRounds:    1,
	})
	if err != nil {
		b.Fatalf("core.Boot: %v", err)
	}
	mic, err := sys.Helper.Attach(devfs.ClassMicrophone)
	if err != nil {
		b.Fatalf("Attach: %v", err)
	}
	if err := sys.FS.MkdirAll("/tmp/bonnie", 0o777, fs.Root); err != nil {
		b.Fatalf("MkdirAll: %v", err)
	}
	proc, err := sys.LaunchHeadless("bench")
	if err != nil {
		b.Fatalf("LaunchHeadless: %v", err)
	}
	return sys, proc, mic
}

func BenchmarkTableIDeviceAccessBaseline(b *testing.B) {
	k, proc, mic := baselineKernel(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := k.Open(proc, mic, fs.AccessRead); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableIDeviceAccessOverhaul(b *testing.B) {
	sys, proc, mic := overhaulSystem(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Kernel.Open(proc, mic, fs.AccessRead); err != nil {
			b.Fatal(err)
		}
	}
}

// benchClipboard prepares a clipboard pair on srv and returns a per-op
// paste function.
func benchClipboard(b *testing.B, srv *xserver.Server) func() error {
	b.Helper()
	src, err := srv.Connect(9001, "src")
	if err != nil {
		b.Fatalf("Connect: %v", err)
	}
	tgt, err := srv.Connect(9002, "tgt")
	if err != nil {
		b.Fatalf("Connect: %v", err)
	}
	srcWin, err := src.CreateWindow(0, 0, 10, 10)
	if err != nil {
		b.Fatalf("CreateWindow: %v", err)
	}
	tgtWin, err := tgt.CreateWindow(20, 0, 10, 10)
	if err != nil {
		b.Fatalf("CreateWindow: %v", err)
	}
	if err := src.MapWindow(srcWin); err != nil {
		b.Fatalf("MapWindow: %v", err)
	}
	if err := tgt.MapWindow(tgtWin); err != nil {
		b.Fatalf("MapWindow: %v", err)
	}
	if err := src.SetSelection("CLIPBOARD", srcWin); err != nil {
		b.Fatalf("SetSelection: %v", err)
	}
	payload := []byte(strings.Repeat("x", 256))
	return func() error {
		if err := tgt.ConvertSelection("CLIPBOARD", "UTF8_STRING", "P", tgtWin); err != nil {
			return err
		}
		req, ok := src.NextEvent()
		for ok && req.Type != xserver.SelectionRequest {
			req, ok = src.NextEvent()
		}
		if !ok {
			return fmt.Errorf("no SelectionRequest")
		}
		if err := src.ChangeProperty(req.Requestor, req.Property, payload); err != nil {
			return err
		}
		notify := xserver.Event{Type: xserver.SelectionNotify, Selection: "CLIPBOARD", Target: req.Target, Property: req.Property}
		if err := src.SendEvent(req.Requestor, notify); err != nil {
			return err
		}
		ev, ok := tgt.NextEvent()
		for ok && ev.Type != xserver.SelectionNotify {
			ev, ok = tgt.NextEvent()
		}
		if !ok {
			return fmt.Errorf("no SelectionNotify")
		}
		if _, err := tgt.GetProperty(req.Requestor, req.Property); err != nil {
			return err
		}
		return tgt.DeleteProperty(req.Requestor, req.Property)
	}
}

func BenchmarkTableIClipboardBaseline(b *testing.B) {
	srv, err := xserver.NewServer(clock.System{}, nil, xserver.Config{WireWork: benchWireWork})
	if err != nil {
		b.Fatalf("NewServer: %v", err)
	}
	paste := benchClipboard(b, srv)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := paste(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableIClipboardOverhaul(b *testing.B) {
	sys, _, _ := overhaulSystem(b)
	paste := benchClipboard(b, sys.X)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := paste(); err != nil {
			b.Fatal(err)
		}
	}
}

// benchDesktop fills srv with window content and returns a shooter.
func benchDesktop(b *testing.B, srv *xserver.Server) *xserver.Client {
	b.Helper()
	content := []byte(strings.Repeat("p", 64*1024))
	for i := 0; i < 3; i++ {
		c, err := srv.Connect(8000+i, fmt.Sprintf("app%d", i))
		if err != nil {
			b.Fatalf("Connect: %v", err)
		}
		win, err := c.CreateWindow(i*300, 0, 200, 200)
		if err != nil {
			b.Fatalf("CreateWindow: %v", err)
		}
		if err := c.MapWindow(win); err != nil {
			b.Fatalf("MapWindow: %v", err)
		}
		if err := c.Draw(win, content); err != nil {
			b.Fatalf("Draw: %v", err)
		}
	}
	shooter, err := srv.Connect(8100, "shooter")
	if err != nil {
		b.Fatalf("Connect: %v", err)
	}
	return shooter
}

func BenchmarkTableIScreenCaptureBaseline(b *testing.B) {
	srv, err := xserver.NewServer(clock.System{}, nil, xserver.Config{WireWork: benchWireWork})
	if err != nil {
		b.Fatalf("NewServer: %v", err)
	}
	shooter := benchDesktop(b, srv)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := shooter.GetImage(xserver.Root); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableIScreenCaptureOverhaul(b *testing.B) {
	sys, _, _ := overhaulSystem(b)
	shooter := benchDesktop(b, sys.X)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := shooter.GetImage(xserver.Root); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableISharedMemoryBaseline(b *testing.B) {
	shm, err := ipc.NewSharedMem(nil, clock.System{}, 2048, 0)
	if err != nil {
		b.Fatalf("NewSharedMem: %v", err)
	}
	m := shm.Map(1)
	size := shm.Size()
	payload := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Write((i*64)%(size-8), payload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableISharedMemoryOverhaul(b *testing.B) {
	sys, proc, _ := overhaulSystem(b)
	shm, err := sys.Kernel.NewSharedMem(2048)
	if err != nil {
		b.Fatalf("NewSharedMem: %v", err)
	}
	shm.SetCheckInterval(benchShmInterval)
	m := shm.Map(proc.PID())
	size := shm.Size()
	payload := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Write((i*64)%(size-8), payload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableIFilesystemBaseline(b *testing.B) {
	k, proc, _ := baselineKernel(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		path := fmt.Sprintf("/tmp/bonnie/f%09d", i)
		h, err := k.Create(proc, path, 0o644)
		if err != nil {
			b.Fatal(err)
		}
		if err := h.Close(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := k.Unlink(proc, path); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

func BenchmarkTableIFilesystemOverhaul(b *testing.B) {
	sys, proc, _ := overhaulSystem(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		path := fmt.Sprintf("/tmp/bonnie/f%09d", i)
		h, err := sys.Kernel.Create(proc, path, 0o644)
		if err != nil {
			b.Fatal(err)
		}
		if err := h.Close(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := sys.Kernel.Unlink(proc, path); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// --- micro-benchmarks on the enforcement primitives -------------------------

// BenchmarkMicroMonitorDecide decides OpMic, which is in the kernel's
// alert set. The booted core installs an alert sink, so every call also
// sends the V_{A,op} alert to the X server over netlink, and that round
// trip is most of the row. BenchmarkMicroMonitorDecideNoAlert is the
// same decision on OpPaste, which raises no kernel-side alert.
func BenchmarkMicroMonitorDecide(b *testing.B) { benchMonitorDecide(b, monitor.OpMic) }

func BenchmarkMicroMonitorDecideNoAlert(b *testing.B) { benchMonitorDecide(b, monitor.OpPaste) }

func benchMonitorDecide(b *testing.B, op monitor.Op) {
	sys, proc, _ := overhaulSystem(b)
	mon := sys.Kernel.Monitor()
	now := time.Now() //overhaul:allow clockcheck micro-benchmark decides against the live wall clock it booted with
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mon.Decide(proc.PID(), op, now)
	}
}

func BenchmarkMicroNetlinkRoundTrip(b *testing.B) {
	sys, proc, _ := overhaulSystem(b)
	_ = proc
	hub := sys.Hub()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Kernel-to-X alert round trip, the V_{A,op} path.
		if _, err := hub.CallUser(sys.XProcess().PID(), struct{}{}); err == nil {
			b.Fatal("unexpected accept of unknown message")
		}
	}
}

func BenchmarkMicroForkInheritance(b *testing.B) {
	_, proc, _ := overhaulSystem(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		child, err := proc.Fork()
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := child.Exit(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

func BenchmarkMicroPipePropagation(b *testing.B) {
	sys, proc, _ := overhaulSystem(b)
	pipe := sys.Kernel.NewPipe()
	buf := make([]byte, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pipe.Write(proc.PID(), buf); err != nil {
			b.Fatal(err)
		}
		if _, err := pipe.Read(proc.PID(), buf); err != nil {
			b.Fatal(err)
		}
	}
}

// --- ablation benches: the design knobs DESIGN.md calls out -----------------

// BenchmarkAblationShmWait sweeps the shared-memory wait-list duration;
// shorter waits re-arm the guard more often, raising the fault rate and
// the per-write cost (§IV-B's performance/usability trade-off).
func BenchmarkAblationShmWait(b *testing.B) {
	for _, wait := range []time.Duration{time.Millisecond, 50 * time.Millisecond, 500 * time.Millisecond, 2 * time.Second} {
		b.Run(wait.String(), func(b *testing.B) {
			sys, proc, _ := overhaulSystem(b)
			sys.Kernel.SetShmWait(wait)
			shm, err := sys.Kernel.NewSharedMem(64)
			if err != nil {
				b.Fatal(err)
			}
			m := shm.Map(proc.PID())
			payload := []byte{1}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := m.Write(i%1024, payload); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(shm.StatsSnapshot().Faults), "faults")
		})
	}
}

// BenchmarkAblationShmCheckInterval sweeps the simulation's guard
// amortization to document its effect on the fast path.
func BenchmarkAblationShmCheckInterval(b *testing.B) {
	for _, interval := range []int{1, 8, 64, 512} {
		b.Run(fmt.Sprintf("every-%d", interval), func(b *testing.B) {
			sys, proc, _ := overhaulSystem(b)
			shm, err := sys.Kernel.NewSharedMem(64)
			if err != nil {
				b.Fatal(err)
			}
			shm.SetCheckInterval(interval)
			m := shm.Map(proc.PID())
			payload := []byte{1}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := m.Write(i%1024, payload); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationAuditCapacity sweeps the decision-log ring size:
// larger rings raise GC scan cost in allocation-heavy workloads.
func BenchmarkAblationAuditCapacity(b *testing.B) {
	for _, capacity := range []int{256, 1024, 8192} {
		b.Run(fmt.Sprintf("cap-%d", capacity), func(b *testing.B) {
			clk := clock.System{}
			fsys := fs.New(clk)
			k, err := kernel.New(clk, fsys, kernel.Config{
				Monitor: monitor.Config{Enforce: true, ForceGrant: true, AuditCapacity: capacity},
			})
			if err != nil {
				b.Fatal(err)
			}
			proc, err := k.Spawn(kernel.SpawnSpec{Name: "p", Exe: "/p", Cred: fs.Root})
			if err != nil {
				b.Fatal(err)
			}
			now := time.Now() //overhaul:allow clockcheck micro-benchmark decides against the live wall clock it booted with
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k.Monitor().Decide(proc.PID(), monitor.OpMic, now)
			}
		})
	}
}
