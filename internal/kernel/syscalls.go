package kernel

import (
	"fmt"
	"strconv"
	"time"

	"overhaul/internal/devfs"
	"overhaul/internal/faultinject"
	"overhaul/internal/fs"
	"overhaul/internal/monitor"
	"overhaul/internal/probe"
)

// opForClass maps a sensitive device class to the monitor's operation
// vocabulary (op ∈ {copy, paste, scr, mic, cam} plus a catch-all for
// other sensors).
func opForClass(c devfs.Class) monitor.Op {
	switch c {
	case devfs.ClassMicrophone:
		return monitor.OpMic
	case devfs.ClassCamera:
		return monitor.OpCam
	default:
		return monitor.OpOther
	}
}

// devForClass maps a sensitive device class to the probe-layer device
// vocabulary (same mapping as opForClass).
func devForClass(c devfs.Class) probe.Dev {
	switch c {
	case devfs.ClassMicrophone:
		return probe.DevMic
	case devfs.ClassCamera:
		return probe.DevCam
	default:
		return probe.DevOther
	}
}

// openOutcome reports an open's outcome on the kernel.open hook: on
// the open span's end event for a sensitive device, as a point event
// for any other file. The unattached open path pays one atomic load.
func (k *Kernel) openOutcome(sp *probe.Event, pid int, v probe.Verdict, reason string) {
	if sp.Ctx.Valid() {
		sp.Verdict, sp.Reason = v, reason
	} else if k.probeOpen.Wants(int64(pid)) {
		k.probeOpen.Emit(&probe.Event{TimeNanos: k.clk.Now().UnixNano(), PID: int64(pid), Kind: probe.KindOpen, Reason: reason})
	}
}

// instant returns now, or the clock's instant when now is unset.
func (k *Kernel) instant(now time.Time) time.Time {
	if now.IsZero() {
		return k.clk.Now()
	}
	return now
}

// openDeniedError is a sensitive open the permission monitor denied.
// It keeps the message's parts and formats them only when read, so a
// stream of denials pays no formatting no caller reads. It wraps
// ErrAccessDenied.
type openDeniedError struct {
	path  string
	class devfs.Class
	pid   int
}

func (e *openDeniedError) Error() string {
	return "open " + e.path + " (" + string(e.class) + ") by pid " + strconv.Itoa(e.pid) + ": " + ErrAccessDenied.Error()
}

func (e *openDeniedError) Unwrap() error { return ErrAccessDenied }

// Open is the augmented open(2): normal UNIX access control first, then
// — iff the target is a mapped sensitive device — the Overhaul
// permission-monitor check correlating the open with the calling
// process's latest authentic interaction (paper §IV-B, "Device
// mediation"). Non-device files pay only a map lookup beyond stock
// semantics, which is why the Bonnie++ row of Table I shows ~0.1 %.
func (k *Kernel) Open(p *Process, path string, access fs.Access) (*fs.Handle, error) {
	cred, ok := p.liveCred()
	if !ok {
		return nil, fmt.Errorf("open %s: %w", path, ErrDeadProcess)
	}

	// Resolve, not open: the lookup and permission errors come first,
	// but the handle is built only once the open goes ahead.
	target, err := k.fsys.Resolve(path, access, cred)
	if err != nil {
		return nil, err
	}

	k.stats.opens.Add(1)
	class, sensitive := k.SensitiveClassOf(path)
	if sensitive {
		k.stats.deviceOpens.Add(1)
	}

	// now is the open's instant. A traced open reads the clock once, at
	// its span's begin, and decides at that instant; an untraced one
	// reads it only when it decides.
	var now time.Time
	var sp probe.Event
	if sensitive && k.probeOpen.Wants(int64(p.PID())) {
		// The open span parents on the span that minted the caller's
		// interaction stamp, which is what connects this syscall to the
		// input event that enables it (or leaves it a fresh root when
		// no traced interaction preceded it).
		now = k.clk.Now()
		sp = probe.Event{
			TimeNanos: now.UnixNano(), PID: int64(p.PID()), Kind: probe.KindOpen,
			Dev: devForClass(class), Reason: string(class), Detail: path,
		}
		k.probeOpen.Begin(p.StampSpan(), &sp)
	}
	defer k.probeOpen.End(&sp)

	if devRounds := k.devRounds; devRounds > 0 && target.Kind() == fs.KindDevice {
		// Simulated driver initialisation, paid by every device open
		// on both the baseline and the Overhaul kernel.
		deviceInitWork(devRounds)
	}

	if f := faultinject.Eval(k.faults, faultinject.PointKernelOpen); f.Kind == faultinject.KindError {
		// Transient I/O failure mid-open. Fail closed: the open does
		// not complete, and for a sensitive device the failure is
		// recorded as an audited denial rather than disappearing into
		// an opaque errno.
		k.stats.openFaults.Add(1)
		if sensitive {
			k.stats.denials.Add(1)
		}
		if k.probeFault.Wants(int64(p.PID())) {
			k.probeFault.Emit(&probe.Event{
				PID: int64(p.PID()), Kind: probe.KindFault, Ctx: sp.Ctx, Arg: int64(f.Kind),
				Reason: string(faultinject.PointKernelOpen),
				Detail: "injected fault at " + string(faultinject.PointKernelOpen) + " during open " + path,
			})
		}
		const failClosed = "transient open failure: fail closed"
		if sensitive {
			k.mon.RecordDenialCtx(sp.Ctx, p.PID(), opForClass(class), k.instant(now), failClosed)
		}
		k.openOutcome(&sp, p.PID(), probe.VerdictDeny, failClosed)
		return nil, fmt.Errorf("open %s by pid %d: %w: %v", path, p.PID(), ErrTransientIO, f.Err)
	}

	if sensitive {
		verdict := k.mon.DecideCtx(sp.Ctx, p.PID(), opForClass(class), k.instant(now))
		if verdict != monitor.VerdictGrant {
			k.stats.denials.Add(1)
			k.openOutcome(&sp, p.PID(), probe.VerdictDeny, "")
			return nil, &openDeniedError{path: path, class: class, pid: p.PID()}
		}
		k.openOutcome(&sp, p.PID(), probe.VerdictGrant, "")
	} else {
		k.openOutcome(&sp, p.PID(), probe.VerdictNone, "")
	}
	return target.Open(), nil
}

// Create creates a regular file through the kernel on behalf of p. It
// exists so the filesystem benchmark exercises the same syscall layer
// as real programs.
func (k *Kernel) Create(p *Process, path string, mode fs.Mode) (*fs.Handle, error) {
	cred, ok := p.liveCred()
	if !ok {
		return nil, fmt.Errorf("create %s: %w", path, ErrDeadProcess)
	}
	h, err := k.fsys.Create(path, mode, cred)
	if err != nil {
		return nil, err
	}
	k.stats.opens.Add(1)
	// open(O_CREAT) runs through the same augmented open path as any
	// other open: the sensitive-device lookup happens here too, which
	// is the entire Overhaul cost Bonnie++'s file-creation phase sees.
	class, sensitive := k.SensitiveClassOf(path)
	if storRounds := k.storRounds; storRounds > 0 {
		// Simulated storage cost (journal + allocation), paid by both
		// the baseline and the Overhaul kernel.
		deviceInitWork(storRounds)
	}
	if sensitive {
		if verdict := k.mon.Decide(p.PID(), opForClass(class), k.clk.Now()); verdict != monitor.VerdictGrant {
			//overhaul:allow failclosedcheck Decide audits its own deny (stats, audit shard, flight recorder); RecordDenial here would double-count the denial
			return nil, fmt.Errorf("create %s (%s): %w", path, class, ErrAccessDenied)
		}
	}
	return h, nil
}

// Stat stats path on behalf of p. Overhaul does not interpose on stat,
// matching the paper (no measurable Bonnie++ overhead on stat).
func (k *Kernel) Stat(p *Process, path string) (fs.Stat, error) {
	if p == nil || !p.alive() {
		return fs.Stat{}, fmt.Errorf("stat %s: %w", path, ErrDeadProcess)
	}
	return k.fsys.Stat(path)
}

// Unlink removes path on behalf of p. Not interposed by Overhaul.
func (k *Kernel) Unlink(p *Process, path string) error {
	cred, ok := p.liveCred()
	if !ok {
		return fmt.Errorf("unlink %s: %w", path, ErrDeadProcess)
	}
	return k.fsys.Unlink(path, cred)
}
