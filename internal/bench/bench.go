// Package bench reproduces Table I of the paper: the performance
// overhead of Overhaul on each critical path, measured as baseline
// (unmodified kernel and X server) versus Overhaul (full decision path
// with the permission monitor in force-grant mode, exactly as the paper
// configures it so benchmarks exercise the entire grant path without
// user input).
//
// The absolute times differ from the paper's i7-930 testbed — the
// substrate is a simulator — but the comparison preserves the cost
// structure: device opens pay a simulated driver-initialisation cost,
// X requests pay a simulated wire cost, and shared-memory fast-path
// accesses are nearly free, so the *relative* overhead lands in the
// paper's low single digits with the same ordering.
package bench

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
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

// Row is one Table I line.
type Row struct {
	Name     string        `json:"name"`
	Ops      int           `json:"ops"`
	Baseline time.Duration `json:"baselineNanos"`
	Overhaul time.Duration `json:"overhaulNanos"`
	// medianRatio is the median of per-chunk overhaul/baseline time
	// ratios; it is robust against scheduler stalls that land in one
	// side of a single chunk on shared hardware.
	medianRatio float64
}

// OverheadPct returns the relative slowdown in percent, preferring the
// outlier-robust per-chunk median when available.
func (r Row) OverheadPct() float64 {
	if r.medianRatio > 0 {
		return (r.medianRatio - 1) * 100
	}
	if r.Baseline <= 0 {
		return 0
	}
	return (float64(r.Overhaul) - float64(r.Baseline)) / float64(r.Baseline) * 100
}

// PaperRow holds the published Table I numbers for side-by-side output.
type PaperRow struct {
	Name        string
	Baseline    string
	Overhaul    string
	OverheadPct float64
}

// PaperTableI returns the published measurements.
func PaperTableI() []PaperRow {
	return []PaperRow{
		{Name: "Device Access", Baseline: "45.20 s", Overhaul: "46.18 s", OverheadPct: 2.17},
		{Name: "Clipboard", Baseline: "116.48 s", Overhaul: "119.93 s", OverheadPct: 2.96},
		{Name: "Screen Capture", Baseline: "68.26 s", Overhaul: "69.86 s", OverheadPct: 2.34},
		{Name: "Shared Memory", Baseline: "234.86 s", Overhaul: "236.33 s", OverheadPct: 0.63},
		{Name: "Bonnie++", Baseline: "47319 files/s", Overhaul: "47265 files/s", OverheadPct: 0.11},
	}
}

// Counts sets the iteration counts. The paper's counts (10 M opens,
// 100 k pastes, 1 k captures, 10 G shm writes, 102,400 files) are
// impractical per run in CI; Default scales them down while keeping
// each measurement in the hundreds of milliseconds.
type Counts struct {
	DeviceOpens int
	Pastes      int
	Captures    int
	ShmWrites   int
	ShmPages    int
	Files       int
}

// Default returns CLI-scale counts.
func Default() Counts {
	return Counts{
		DeviceOpens: 100_000,
		Pastes:      20_000,
		Captures:    2_000,
		ShmWrites:   5_000_000,
		ShmPages:    2_048,
		Files:       51_200,
	}
}

// Quick returns test-scale counts.
func Quick() Counts {
	return Counts{
		DeviceOpens: 2_000,
		Pastes:      500,
		Captures:    100,
		ShmWrites:   100_000,
		ShmPages:    64,
		Files:       2_000,
	}
}

// Paper returns the paper's original counts (long-running).
func Paper() Counts {
	return Counts{
		DeviceOpens: 10_000_000,
		Pastes:      100_000,
		Captures:    1_000,
		ShmWrites:   10_000_000_000,
		ShmPages:    10_000,
		Files:       102_400,
	}
}

// wireWork is the simulated X transport cost applied to both servers.
const wireWork = 2

// shmCheckInterval amortizes the simulated shm guard (see
// ipc.SetCheckInterval).
const shmCheckInterval = 64

// storageRounds is the simulated per-create storage cost for the
// Bonnie++ row (see kernel.Config.StorageRounds).
const storageRounds = 1

// ErrBench wraps harness failures.
var ErrBench = errors.New("bench: harness failure")

// Side is one half of a paired measurement. Op runs operation i and is
// timed. Reset, when set, runs untimed after each chunk over the
// chunk's operations [lo, hi): Bonnie++'s stat and unlink phase.
type Side struct {
	Op    func(i int) error
	Reset func(lo, hi int) error
}

// Pair is one comparison's two sides, built side by side: Table I's
// baseline and Overhaul, or the multiview report's probes off and
// probes armed.
type Pair struct {
	Base, Over Side
}

// Timing is what Pair.Time measured: each side's total time, and the
// medians over the chunks of the over/base time ratio and of the
// per-operation delta in ns. A scheduler stall that lands in one side
// of one chunk moves the totals, not the medians.
type Timing struct {
	Base, Over time.Duration
	Ratio      float64
	DeltaNs    float64
}

// Chunks is how many chunks Pair.Time interleaves the operations in.
const Chunks = 64

// heapBudget is how far the heap may grow while Pair.Time runs before
// it collects, between chunks.
const heapBudget = 64 << 20

// Time is the tree's one timing loop. Both sides get a warm-up pass and
// a GC fence; then ops operations run in Chunks chunks, both sides
// taking each chunk in turn and the side that goes first alternating
// from chunk to chunk, so drift in CPU frequency, background load or
// allocator state hits both sides alike. The difference is what the
// harnesses report, and on shared hardware it is far smaller than the
// drift. Resets run after each chunk, off the clock. So does garbage
// collection: the collector is paused while Time runs and collects
// between chunks once the heap passes heapBudget, because a collection
// landing in one side of a chunk is the largest noise source of the
// allocating rows (a screen capture allocates 192 KiB).
func (p Pair) Time(ops int) (Timing, error) {
	sides := [2]Side{p.Base, p.Over}
	for k := range sides {
		if sides[k].Reset == nil {
			sides[k].Reset = func(int, int) error { return nil }
		}
	}
	warm := min(ops/10, 1000)
	for _, s := range sides {
		for i := 0; i < warm; i++ {
			if err := s.Op(i); err != nil {
				return Timing{}, err
			}
		}
		if err := s.Reset(0, warm); err != nil {
			return Timing{}, err
		}
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.GC()
	var t Timing
	var ratios, deltas []float64
	for c := 0; c < Chunks; c++ {
		lo, hi := c*ops/Chunks, (c+1)*ops/Chunks
		if lo == hi {
			continue
		}
		var d [2]time.Duration
		watch := clock.StartStopwatch()
		for j := range sides {
			k := (c + j) % 2 // even chunks run Base first, odd chunks Over
			op := sides[k].Op
			for i := lo; i < hi; i++ {
				if err := op(i); err != nil {
					return Timing{}, err
				}
			}
			d[k] = watch.Lap()
		}
		for _, s := range sides {
			if err := s.Reset(lo, hi); err != nil {
				return Timing{}, err
			}
		}
		var mem runtime.MemStats
		if runtime.ReadMemStats(&mem); mem.HeapAlloc > heapBudget {
			runtime.GC()
		}
		t.Base += d[0]
		t.Over += d[1]
		if d[0] > 0 {
			ratios = append(ratios, float64(d[1])/float64(d[0]))
		}
		deltas = append(deltas, float64(d[1]-d[0])/float64(hi-lo))
	}
	t.Ratio, t.DeltaNs = median(ratios), median(deltas)
	return t, nil
}

// median returns the median of xs, sorting xs in place; 0 when xs is
// empty.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sort.Float64s(xs)
	return (xs[(n-1)/2] + xs[n/2]) / 2
}

// bootOverhaul builds the measured system: enforcing + force-grant over
// the wall clock, with the calibrated cost models enabled.
func bootOverhaul() (*core.System, error) {
	return core.Boot(core.Options{
		Clock:            clock.System{},
		Enforce:          true,
		ForceGrant:       true,
		AlertSecret:      "bench",
		DeviceInitRounds: kernel.DefaultDeviceInitRounds,
		WireWork:         wireWork,
		StorageRounds:    storageRounds,
	})
}

// Boot builds the force-grant system with a headless process and a
// registered microphone: the Overhaul side of the device-open and
// shared-memory rows, and the system the root micro-benchmarks time
// one primitive of.
func Boot() (*core.System, *kernel.Process, string, error) {
	sys, err := bootOverhaul()
	if err != nil {
		return nil, nil, "", err
	}
	mic, err := sys.Helper.Attach(devfs.ClassMicrophone)
	if err != nil {
		return nil, nil, "", err
	}
	proc, err := sys.LaunchHeadless("bench")
	if err != nil {
		return nil, nil, "", err
	}
	return sys, proc, mic, nil
}

// DeviceAccess builds Table I row 1, the microphone open: an unmodified
// kernel whose device node no permission monitor knows, against the
// full system with the device registered.
func DeviceAccess() (Pair, error) {
	clk := clock.System{}
	fsys := fs.New(clk)
	k, err := kernel.New(clk, fsys, kernel.Config{
		Monitor:          monitor.Config{Enforce: false},
		DeviceInitRounds: kernel.DefaultDeviceInitRounds,
	})
	if err != nil {
		return Pair{}, err
	}
	if err := fsys.MkdirAll("/dev/snd", 0o755, fs.Root); err != nil {
		return Pair{}, err
	}
	const micPath = "/dev/snd/pcmC0D0c"
	if err := fsys.Mknod(micPath, "microphone", 0o666, fs.Root); err != nil {
		return Pair{}, err
	}
	proc, err := k.Spawn(kernel.SpawnSpec{Name: "bench", Exe: "/usr/bin/bench", Cred: fs.Cred{UID: 1000, GID: 1000}})
	if err != nil {
		return Pair{}, err
	}
	sys, oProc, mic, err := Boot()
	if err != nil {
		return Pair{}, err
	}
	return Pair{
		Base: Side{Op: func(int) error {
			_, err := k.Open(proc, micPath, fs.AccessRead)
			return err
		}},
		Over: Side{Op: func(int) error {
			_, err := sys.Kernel.Open(oProc, mic, fs.AccessRead)
			return err
		}},
	}, nil
}

// paster connects a source and a target client to srv, gives the
// source the selection, and returns one complete paste protocol round
// as a side.
func paster(srv *xserver.Server) (Side, error) {
	src, err := srv.Connect(9001, "src")
	if err != nil {
		return Side{}, err
	}
	tgt, err := srv.Connect(9002, "tgt")
	if err != nil {
		return Side{}, err
	}
	srcWin, err := src.CreateWindow(0, 0, 100, 100)
	if err != nil {
		return Side{}, err
	}
	tgtWin, err := tgt.CreateWindow(200, 0, 100, 100)
	if err != nil {
		return Side{}, err
	}
	if err := src.MapWindow(srcWin); err != nil {
		return Side{}, err
	}
	if err := tgt.MapWindow(tgtWin); err != nil {
		return Side{}, err
	}
	if err := src.SetSelection("CLIPBOARD", srcWin); err != nil {
		return Side{}, err
	}
	payload := []byte(strings.Repeat("x", 256))
	return Side{Op: func(int) error {
		if err := tgt.ConvertSelection("CLIPBOARD", "UTF8_STRING", "XSEL_DATA", tgtWin); err != nil {
			return err
		}
		req, ok := src.NextEvent()
		for ok && req.Type != xserver.SelectionRequest {
			req, ok = src.NextEvent()
		}
		if !ok {
			return errors.New("no SelectionRequest delivered")
		}
		if err := src.ChangeProperty(req.Requestor, req.Property, payload); err != nil {
			return err
		}
		notify := xserver.Event{
			Type:      xserver.SelectionNotify,
			Selection: "CLIPBOARD",
			Target:    req.Target,
			Property:  req.Property,
		}
		if err := src.SendEvent(req.Requestor, notify); err != nil {
			return err
		}
		ev, ok := tgt.NextEvent()
		for ok && ev.Type != xserver.SelectionNotify {
			ev, ok = tgt.NextEvent()
		}
		if !ok {
			return errors.New("no SelectionNotify delivered")
		}
		if _, err := tgt.GetProperty(req.Requestor, req.Property); err != nil {
			return err
		}
		return tgt.DeleteProperty(req.Requestor, req.Property)
	}}, nil
}

// Clipboard builds Table I row 2, the paste, the costlier clipboard
// half: a vanilla X server against the force-grant system, which runs
// the full query path per paste.
func Clipboard() (Pair, error) {
	base, err := xserver.NewServer(clock.System{}, nil, xserver.Config{WireWork: wireWork})
	if err != nil {
		return Pair{}, err
	}
	sys, err := bootOverhaul()
	if err != nil {
		return Pair{}, err
	}
	return sidesOn(paster, base, sys.X)
}

// shooter populates srv with windows, so root captures copy realistic
// amounts of pixel data, and returns a full-screen GetImage as a side.
func shooter(srv *xserver.Server) (Side, error) {
	content := []byte(strings.Repeat("p", 64*1024))
	for i := 0; i < 3; i++ {
		c, err := srv.Connect(8000+i, fmt.Sprintf("app%d", i))
		if err != nil {
			return Side{}, err
		}
		win, err := c.CreateWindow(i*300, 0, 200, 200)
		if err != nil {
			return Side{}, err
		}
		if err := c.MapWindow(win); err != nil {
			return Side{}, err
		}
		if err := c.Draw(win, content); err != nil {
			return Side{}, err
		}
	}
	c, err := srv.Connect(8100, "shooter")
	if err != nil {
		return Side{}, err
	}
	return Side{Op: func(int) error {
		_, err := c.GetImage(xserver.Root)
		return err
	}}, nil
}

// ScreenCapture builds Table I row 3, the full-screen GetImage request.
func ScreenCapture() (Pair, error) {
	base, err := xserver.NewServer(clock.System{}, nil, xserver.Config{WireWork: wireWork})
	if err != nil {
		return Pair{}, err
	}
	sys, err := bootOverhaul()
	if err != nil {
		return Pair{}, err
	}
	return sidesOn(shooter, base, sys.X)
}

// sidesOn builds the same side on the baseline and the Overhaul X
// server.
func sidesOn(side func(*xserver.Server) (Side, error), base, over *xserver.Server) (Pair, error) {
	b, err := side(base)
	if err != nil {
		return Pair{}, err
	}
	o, err := side(over)
	if err != nil {
		return Pair{}, err
	}
	return Pair{Base: b, Over: o}, nil
}

// SharedMemory builds Table I row 4, writes through a mapped
// shared-memory segment of the given pages: an unguarded segment
// against the fault-interception machinery with the paper's 500 ms
// wait list.
func SharedMemory(pages int) (Pair, error) {
	payload := []byte{0xAB, 0xCD, 0xEF, 0x01, 0x23, 0x45, 0x67, 0x89}
	baseShm, err := ipc.NewSharedMem(nil, clock.System{}, pages, 0)
	if err != nil {
		return Pair{}, err
	}
	baseMap := baseShm.Map(1)
	sys, proc, _, err := Boot()
	if err != nil {
		return Pair{}, err
	}
	shm, err := sys.Kernel.NewSharedMem(pages)
	if err != nil {
		return Pair{}, err
	}
	shm.SetCheckInterval(shmCheckInterval)
	m := shm.Map(proc.PID())
	span := baseShm.Size() - len(payload)
	return Pair{
		Base: Side{Op: func(i int) error { return baseMap.Write((i*64)%span, payload) }},
		Over: Side{Op: func(i int) error { return m.Write((i*64)%span, payload) }},
	}, nil
}

// Filesystem builds Table I row 5, Bonnie++-style empty-file creation
// through the augmented open path: an unmodified kernel against the
// force-grant system with its sensitive mapping populated, as on a real
// machine.
func Filesystem() (Pair, error) {
	clk := clock.System{}
	baseFS := fs.New(clk)
	baseK, err := kernel.New(clk, baseFS, kernel.Config{
		Monitor:       monitor.Config{Enforce: false},
		StorageRounds: storageRounds,
	})
	if err != nil {
		return Pair{}, err
	}
	base, err := bonnie(baseK, baseFS)
	if err != nil {
		return Pair{}, err
	}
	sys, err := bootOverhaul()
	if err != nil {
		return Pair{}, err
	}
	for _, class := range []devfs.Class{devfs.ClassMicrophone, devfs.ClassCamera} {
		if _, err := sys.Helper.Attach(class); err != nil {
			return Pair{}, err
		}
	}
	over, err := bonnie(sys.Kernel, sys.FS)
	if err != nil {
		return Pair{}, err
	}
	return Pair{Base: base, Over: over}, nil
}

// bonnie spawns the Bonnie++ process on k and returns its side. Only
// creation is timed: Reset stats and unlinks the chunk's files, where
// the paper could not measure any overhead (Overhaul does not
// interpose on them), and keeps the directory small.
func bonnie(k *kernel.Kernel, fsys *fs.FS) (Side, error) {
	proc, err := k.Spawn(kernel.SpawnSpec{Name: "bonnie", Exe: "/usr/bin/bonnie", Cred: fs.Root})
	if err != nil {
		return Side{}, err
	}
	if err := fsys.MkdirAll("/tmp/bonnie", 0o777, fs.Root); err != nil {
		return Side{}, err
	}
	path := func(i int) string { return fmt.Sprintf("/tmp/bonnie/f%07d", i) }
	return Side{
		Op: func(i int) error {
			h, err := k.Create(proc, path(i), 0o644)
			if err != nil {
				return err
			}
			return h.Close()
		},
		Reset: func(lo, hi int) error {
			for i := lo; i < hi; i++ {
				if _, err := k.Stat(proc, path(i)); err != nil {
					return err
				}
				if err := k.Unlink(proc, path(i)); err != nil {
					return err
				}
			}
			return nil
		},
	}, nil
}

// TableI runs all five rows with the given counts. Rows are separated
// by GC fences so one row's retired heap is not billed to the next.
func TableI(c Counts) ([]Row, error) {
	steps := []struct {
		name  string
		ops   int
		setup func() (Pair, error)
	}{
		{"Device Access", c.DeviceOpens, DeviceAccess},
		{"Clipboard", c.Pastes, Clipboard},
		{"Screen Capture", c.Captures, ScreenCapture},
		{"Shared Memory", c.ShmWrites, func() (Pair, error) { return SharedMemory(c.ShmPages) }},
		{"Bonnie++ (create)", c.Files, Filesystem},
	}
	rows := make([]Row, 0, len(steps))
	for _, step := range steps {
		p, err := step.setup()
		if err != nil {
			return nil, fmt.Errorf("%w: %s: %v", ErrBench, step.name, err)
		}
		t, err := p.Time(step.ops)
		if err != nil {
			return nil, fmt.Errorf("%w: %s: %v", ErrBench, step.name, err)
		}
		rows = append(rows, Row{Name: step.name, Ops: step.ops, Baseline: t.Base, Overhaul: t.Over, medianRatio: t.Ratio})
		runtime.GC()
	}
	return rows, nil
}

// Format renders measured rows next to the paper's numbers. The
// filesystem row additionally shows files/s, the unit Bonnie++ reports.
func Format(rows []Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-20s %12s %12s %10s %14s\n", "Benchmark", "Baseline", "Overhaul", "Overhead", "Paper overhead")
	paper := PaperTableI()
	for i, r := range rows {
		paperPct := ""
		if i < len(paper) {
			paperPct = fmt.Sprintf("%.2f %%", paper[i].OverheadPct)
		}
		fmt.Fprintf(&b, "%-20s %12s %12s %9.2f%% %14s\n",
			r.Name, r.Baseline.Round(time.Millisecond), r.Overhaul.Round(time.Millisecond),
			r.OverheadPct(), paperPct)
		if strings.HasPrefix(r.Name, "Bonnie") && r.Baseline > 0 && r.Overhaul > 0 {
			fmt.Fprintf(&b, "%-20s %9.0f/s %9.0f/s\n", "  (file creation)",
				float64(r.Ops)/r.Baseline.Seconds(), float64(r.Ops)/r.Overhaul.Seconds())
		}
	}
	return b.String()
}
