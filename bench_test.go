package overhaul

// Table I benchmarks (testing.B form). Each paper row has a Baseline
// and an Overhaul benchmark over internal/bench's setup for that row;
// compare ns/op pairs to reproduce the overhead column.
// `go test -bench 'TableI' -benchmem` prints them all. The
// cmd/overhaul-bench binary times the same pairs interleaved and
// prints the table directly.

import (
	"fmt"
	"testing"
	"time"

	"overhaul/internal/bench"
	"overhaul/internal/clock"
	"overhaul/internal/core"
	"overhaul/internal/fs"
	"overhaul/internal/kernel"
	"overhaul/internal/monitor"
)

// overhaulSystem builds the measured force-grant system with a
// registered microphone.
func overhaulSystem(b *testing.B) (*core.System, *kernel.Process, string) {
	b.Helper()
	sys, proc, mic, err := bench.Boot()
	if err != nil {
		b.Fatalf("bench.Boot: %v", err)
	}
	return sys, proc, mic
}

// benchTableI builds one Table I row's pair and times its Overhaul
// side, or its baseline side, one operation at a time. A side's Reset
// runs after each operation with the timer stopped.
func benchTableI(b *testing.B, setup func() (bench.Pair, error), overhaul bool) {
	p, err := setup()
	if err != nil {
		b.Fatal(err)
	}
	side := p.Base
	if overhaul {
		side = p.Over
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := side.Op(i); err != nil {
			b.Fatal(err)
		}
		if side.Reset != nil {
			b.StopTimer()
			if err := side.Reset(i, i+1); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	}
}

func sharedMemory() (bench.Pair, error) { return bench.SharedMemory(bench.Default().ShmPages) }

func BenchmarkTableIDeviceAccessBaseline(b *testing.B)  { benchTableI(b, bench.DeviceAccess, false) }
func BenchmarkTableIDeviceAccessOverhaul(b *testing.B)  { benchTableI(b, bench.DeviceAccess, true) }
func BenchmarkTableIClipboardBaseline(b *testing.B)     { benchTableI(b, bench.Clipboard, false) }
func BenchmarkTableIClipboardOverhaul(b *testing.B)     { benchTableI(b, bench.Clipboard, true) }
func BenchmarkTableIScreenCaptureBaseline(b *testing.B) { benchTableI(b, bench.ScreenCapture, false) }
func BenchmarkTableIScreenCaptureOverhaul(b *testing.B) { benchTableI(b, bench.ScreenCapture, true) }
func BenchmarkTableISharedMemoryBaseline(b *testing.B)  { benchTableI(b, sharedMemory, false) }
func BenchmarkTableISharedMemoryOverhaul(b *testing.B)  { benchTableI(b, sharedMemory, true) }
func BenchmarkTableIFilesystemBaseline(b *testing.B)    { benchTableI(b, bench.Filesystem, false) }
func BenchmarkTableIFilesystemOverhaul(b *testing.B)    { benchTableI(b, bench.Filesystem, true) }

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
