package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"overhaul/internal/clock"
	"overhaul/internal/fs"
	"overhaul/internal/kernel"
	"overhaul/internal/monitor"
)

// scriptOp is one step of a deterministic session script. The same
// script is replayed against a fleet session and against a
// monitor.Monitor over a booted kernel's process table; every
// observable output must match.
type scriptOp struct {
	kind  int // 0 spawn, 1 fork, 2 exit, 3 notify, 4 decide, 5 degrade, 6 undegrade
	proc  int // index into the script's pid list (fork parent / exit / notify / decide target)
	op    monitor.Op
	nanos int64
}

// genScript builds a reproducible random script that exercises every
// verdict path: fresh grants, stale denials, never-stamped denials,
// missing processes, fork inheritance, and degraded-mode fail-closed.
func genScript(rng *rand.Rand, steps int) []scriptOp {
	t := base.UnixNano()
	ops := []monitor.Op{monitor.OpMic, monitor.OpCam, monitor.OpPaste, monitor.OpScreen, monitor.OpOther}
	script := []scriptOp{{kind: 0}} // always start with one spawn
	pids := 1
	for i := 0; i < steps; i++ {
		// Time advances by a random 0–1.5s per step, so op/stamp gaps
		// straddle the 2s threshold in both directions.
		t += rng.Int63n(int64(1500 * time.Millisecond))
		switch r := rng.Intn(100); {
		case r < 10:
			script = append(script, scriptOp{kind: 0})
			pids++
		case r < 18 && pids > 0:
			script = append(script, scriptOp{kind: 1, proc: rng.Intn(pids)})
			pids++
		case r < 24 && pids > 1:
			script = append(script, scriptOp{kind: 2, proc: rng.Intn(pids)})
		case r < 50 && pids > 0:
			script = append(script, scriptOp{kind: 3, proc: rng.Intn(pids), nanos: t})
		case r < 94 && pids > 0:
			// Decide sometimes targets a pid index past what was ever
			// spawned, covering the no-such-process path.
			proc := rng.Intn(pids + 2)
			script = append(script, scriptOp{kind: 4, proc: proc, op: ops[rng.Intn(len(ops))], nanos: t})
		case r < 97:
			script = append(script, scriptOp{kind: 5})
		default:
			script = append(script, scriptOp{kind: 6})
		}
	}
	return script
}

// engine is one side of the equivalence: the process lifecycle plus the
// decision engine a script drives.
type engine interface {
	spawn() (int, error)
	fork(parent int) (int, error)
	exit(pid int) error
	notify(pid int, nanos int64) error
	decide(pid int, op monitor.Op, nanos int64) (monitor.Verdict, error)
	degrade(reason string)
	undegrade()
	audit() []monitor.Decision
	counts() [4]uint64 // grants, denials, notifications, alerts
}

// sessionEngine drives a fleet session.
type sessionEngine struct{ s *Session }

func (e sessionEngine) spawn() (int, error)          { return e.s.Spawn() }
func (e sessionEngine) fork(parent int) (int, error) { return e.s.Fork(parent) }
func (e sessionEngine) exit(pid int) error           { return e.s.Exit(pid) }
func (e sessionEngine) notify(pid int, n int64) error {
	return e.s.NotifyNanos(pid, n)
}
func (e sessionEngine) decide(pid int, op monitor.Op, n int64) (monitor.Verdict, error) {
	return e.s.DecideNanos(pid, op, n)
}
func (e sessionEngine) degrade(reason string)     { e.s.SetDegraded(reason) }
func (e sessionEngine) undegrade()                { e.s.ClearDegraded() }
func (e sessionEngine) audit() []monitor.Decision { return e.s.Audit() }
func (e sessionEngine) counts() [4]uint64 {
	st := e.s.StatsSnapshot()
	return [4]uint64{st.Grants, st.Denials, st.Notifications, st.Alerts}
}

// kernelEngine drives a booted kernel: its process table and the
// Monitor the kernel embeds, with an alert sink installed as the
// desktop core installs one.
type kernelEngine struct{ k *kernel.Kernel }

func newKernelEngine() kernelEngine {
	clk := clock.NewSimulated()
	k, err := kernel.New(clk, fs.New(clk), kernel.Config{
		Monitor: monitor.Config{Enforce: true, AuditCapacity: DefaultAuditCapacity},
	})
	if err != nil {
		panic(err)
	}
	k.Monitor().SetAlertFunc(func(monitor.AlertRequest) {})
	return kernelEngine{k}
}

func (e kernelEngine) spawn() (int, error) {
	p, err := e.k.Spawn(kernel.SpawnSpec{Name: "app"})
	if err != nil {
		return 0, err
	}
	return p.PID(), nil
}
func (e kernelEngine) fork(parent int) (int, error) {
	p, err := e.k.Process(parent)
	if err != nil {
		return 0, err
	}
	c, err := p.Fork()
	if err != nil {
		return 0, err
	}
	return c.PID(), nil
}
func (e kernelEngine) exit(pid int) error {
	p, err := e.k.Process(pid)
	if err != nil {
		return err
	}
	return p.Exit()
}
func (e kernelEngine) notify(pid int, n int64) error {
	return e.k.Monitor().Notify(pid, time.Unix(0, n).UTC())
}
func (e kernelEngine) decide(pid int, op monitor.Op, n int64) (monitor.Verdict, error) {
	return e.k.Monitor().Decide(pid, op, time.Unix(0, n).UTC()), nil
}
func (e kernelEngine) degrade(reason string)     { e.k.Monitor().SetDegraded(reason) }
func (e kernelEngine) undegrade()                { e.k.Monitor().ClearDegraded() }
func (e kernelEngine) audit() []monitor.Decision { return e.k.Monitor().Audit() }
func (e kernelEngine) counts() [4]uint64 {
	st := e.k.Monitor().StatsSnapshot()
	return [4]uint64{st.Grants, st.Denials, st.Notifications, st.AlertsSent}
}

// trace is everything observable about a replay: the exact verdict and
// error-sentinel sequences, the final audit ring with pids mapped back
// to script indices, and the counters.
type trace struct {
	verdicts []monitor.Verdict
	errs     []string
	audit    []byte // JSON-encoded audit ring
	counts   [4]uint64
}

// neverSpawned is a pid no script ever spawns: it exercises the
// no-such-process paths on both sides.
const neverSpawned = 1 << 30

// replay runs a script against one engine and records its trace. It
// panics rather than taking a *testing.T so it is safe to run from
// spawned goroutines (Fatal is main-goroutine-only).
func replay(e engine, script []scriptOp) trace {
	var tr trace
	var pids []int
	pidAt := func(i int) int {
		if i < len(pids) {
			return pids[i]
		}
		return neverSpawned
	}
	for _, op := range script {
		switch op.kind {
		case 0:
			pid, err := e.spawn()
			if err != nil {
				panic(err)
			}
			pids = append(pids, pid)
		case 1:
			pid, err := e.fork(pidAt(op.proc))
			tr.errs = append(tr.errs, errString(err))
			if err == nil {
				pids = append(pids, pid)
			}
		case 2:
			tr.errs = append(tr.errs, errString(e.exit(pidAt(op.proc))))
		case 3:
			tr.errs = append(tr.errs, errString(e.notify(pidAt(op.proc), op.nanos)))
		case 4:
			v, err := e.decide(pidAt(op.proc), op.op, op.nanos)
			tr.verdicts = append(tr.verdicts, v)
			tr.errs = append(tr.errs, errString(err))
		case 5:
			e.degrade("scripted degradation")
		case 6:
			e.undegrade()
		}
	}
	// Each side numbers its processes its own way: map every audited
	// pid back to its script index (-1 for the never-spawned pid).
	audit := e.audit()
	for i := range audit {
		idx := slices.Index(pids, audit[i].PID)
		if idx < 0 && audit[i].PID != neverSpawned {
			panic(fmt.Sprintf("audited pid %d was never handed out", audit[i].PID))
		}
		audit[i].PID = idx
	}
	b, err := json.Marshal(audit)
	if err != nil {
		panic(err)
	}
	tr.audit = b
	tr.counts = e.counts()
	return tr
}

// errString canonicalizes an error for stream comparison by sentinel:
// messages legitimately differ (session ids, pid numbering), and the
// kernel and the monitor each declare a no-such-process sentinel.
func errString(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, ErrNoSuchProcess), errors.Is(err, kernel.ErrNoSuchProcess):
		return "no-such-process"
	case errors.Is(err, ErrSessionClosed):
		return "session-closed"
	default:
		return err.Error()
	}
}

// diffTraces describes the first way got and want differ, or "".
func diffTraces(got, want trace) string {
	switch {
	case !reflect.DeepEqual(got.verdicts, want.verdicts):
		return "verdict streams diverge"
	case !reflect.DeepEqual(got.errs, want.errs):
		return fmt.Sprintf("error streams diverge\nsession: %q\nkernel:  %q", got.errs, want.errs)
	case !bytes.Equal(got.audit, want.audit):
		return fmt.Sprintf("audit streams not byte-identical\nsession: %s\nkernel:  %s", got.audit, want.audit)
	case got.counts != want.counts:
		return fmt.Sprintf("grant/deny/notify/alert counts diverge: session %v kernel %v", got.counts, want.counts)
	}
	return ""
}

// TestFleetEquivalentToStandalone is the fleet correctness property: a
// fleet session must be observably identical to the standalone desktop
// engine — a monitor.Monitor over a booted kernel's process table — on
// the same script: identical verdict and error-sentinel streams,
// byte-identical audit JSON, and identical grant, deny, notify and
// alert counts.
func TestFleetEquivalentToStandalone(t *testing.T) {
	const sessions = 32
	const steps = 400

	f := newTestFleet(t, Config{})
	for i := 0; i < sessions; i++ {
		script := genScript(rand.New(rand.NewSource(int64(1000+i))), steps)
		got := replay(sessionEngine{f.CreateSession()}, script)
		want := replay(newKernelEngine(), script)
		if d := diffTraces(got, want); d != "" {
			t.Fatalf("session %d: %s", i, d)
		}
	}
}

// TestFleetSessionsAreIndependent replays scripts concurrently across
// the sessions of one fleet and checks each trace still matches its
// kernel twin — cross-session interference through the session table
// or any shared state would corrupt some trace. Run it under -race.
func TestFleetSessionsAreIndependent(t *testing.T) {
	const sessions = 16
	const steps = 300

	f := newTestFleet(t, Config{})
	scripts := make([][]scriptOp, sessions)
	want := make([]trace, sessions)
	for i := range scripts {
		scripts[i] = genScript(rand.New(rand.NewSource(int64(5000+i))), steps)
		want[i] = replay(newKernelEngine(), scripts[i])
	}

	got := make([]trace, sessions)
	var wg sync.WaitGroup
	for i := range scripts {
		wg.Add(1)
		go func(i int, s *Session) {
			defer wg.Done()
			got[i] = replay(sessionEngine{s}, scripts[i])
		}(i, f.CreateSession())
	}
	wg.Wait()
	for i := range scripts {
		if d := diffTraces(got[i], want[i]); d != "" {
			t.Errorf("session %d diverged from its kernel twin under concurrency: %s", i, d)
		}
	}
}
