package probe

import (
	"fmt"
	"strconv"
	"strings"
)

// Spec is a compiled probe predicate: the flat, allocation-free form
// of a textual spec like "op=open dev=mic verdict=deny pid=1-99". A
// zero Spec matches every event. Fields are plain bitsets and ranges,
// so Match is a handful of compares with no loops, no allocation, and
// no user code — the "safe program" contract of an eBPF predicate,
// reduced to the fragment this system needs.
type Spec struct {
	// Hook restricts the attach points the probe binds to ("" = all).
	Hook string
	// Kinds is a bitset over Kind (bit i set ⇒ Kind(i) matches);
	// 0 means any kind. Devs and Verdicts follow the same convention.
	Kinds    uint32
	Devs     uint16
	Verdicts uint8
	// HasPID arms the inclusive [PIDLo, PIDHi] range filter.
	HasPID       bool
	PIDLo, PIDHi int64
	// HasSession arms the inclusive [SessionLo, SessionHi] filter.
	HasSession           bool
	SessionLo, SessionHi uint64
}

// Match reports whether ev satisfies the predicate. It is the probe
// hot path: flat field compares only.
func (s *Spec) Match(ev *Event) bool {
	if s.Kinds != 0 && s.Kinds&(1<<ev.Kind) == 0 {
		return false
	}
	if s.Devs != 0 && s.Devs&(1<<ev.Dev) == 0 {
		return false
	}
	if s.Verdicts != 0 && s.Verdicts&(1<<ev.Verdict) == 0 {
		return false
	}
	if s.HasPID && (ev.PID < s.PIDLo || ev.PID > s.PIDHi) {
		return false
	}
	if s.HasSession && (ev.Session < s.SessionLo || ev.Session > s.SessionHi) {
		return false
	}
	return true
}

// ParseSpec compiles a textual probe spec. The grammar is
// whitespace-separated key=value tokens:
//
//	hook=NAME          attach point (see HookNames); omit for all
//	op=K[,K...]        event kinds: open decide evaluate input
//	                   send recv dispatch notify interaction
//	                   query alert call fault degrade recover
//	dev=D[,D...]       device classes: copy paste scr mic cam dev none
//	verdict=V[,V...]   verdicts: grant deny none
//	pid=N | pid=N-M    pid or inclusive pid range
//	session=N | N-M    session ID or inclusive range
//
// Repeated op/dev/verdict keys merge; repeated hook/pid/session keys
// are an error. The empty spec matches everything.
func ParseSpec(text string) (Spec, error) {
	var s Spec
	for _, tok := range strings.Fields(text) {
		key, val, ok := strings.Cut(tok, "=")
		if !ok {
			return Spec{}, fmt.Errorf("probe: spec token %q: want key=value", tok)
		}
		if val == "" {
			return Spec{}, fmt.Errorf("probe: spec token %q: empty value", tok)
		}
		switch key {
		case "hook":
			if s.Hook != "" {
				return Spec{}, fmt.Errorf("probe: duplicate hook= in spec")
			}
			if !KnownHook(val) {
				return Spec{}, fmt.Errorf("probe: unknown hook %q", val)
			}
			s.Hook = val
		case "op":
			for _, name := range strings.Split(val, ",") {
				k := KindOf(name)
				if k == KindNone {
					return Spec{}, fmt.Errorf("probe: unknown op kind %q", name)
				}
				s.Kinds |= 1 << k
			}
		case "dev":
			for _, name := range strings.Split(val, ",") {
				if name == "none" {
					s.Devs |= 1 << DevNone
					continue
				}
				d := DevOf(name)
				if d == DevNone {
					return Spec{}, fmt.Errorf("probe: unknown device class %q", name)
				}
				s.Devs |= 1 << d
			}
		case "verdict":
			for _, name := range strings.Split(val, ",") {
				if name == "none" {
					s.Verdicts |= 1 << VerdictNone
					continue
				}
				v := VerdictOf(name)
				if v == VerdictNone {
					return Spec{}, fmt.Errorf("probe: unknown verdict %q", name)
				}
				s.Verdicts |= 1 << v
			}
		case "pid":
			if s.HasPID {
				return Spec{}, fmt.Errorf("probe: duplicate pid= in spec")
			}
			lo, hi, err := parseRange(val)
			if err != nil {
				return Spec{}, fmt.Errorf("probe: pid=%s: %w", val, err)
			}
			s.HasPID, s.PIDLo, s.PIDHi = true, lo, hi
		case "session":
			if s.HasSession {
				return Spec{}, fmt.Errorf("probe: duplicate session= in spec")
			}
			lo, hi, err := parseRange(val)
			if err != nil {
				return Spec{}, fmt.Errorf("probe: session=%s: %w", val, err)
			}
			s.HasSession, s.SessionLo, s.SessionHi = true, uint64(lo), uint64(hi)
		default:
			return Spec{}, fmt.Errorf("probe: unknown spec key %q", key)
		}
	}
	return s, nil
}

// parseRange parses "N" or "N-M" with 0 <= N <= M.
func parseRange(val string) (lo, hi int64, err error) {
	loS, hiS, isRange := strings.Cut(val, "-")
	if lo, err = strconv.ParseInt(loS, 10, 64); err != nil {
		return 0, 0, fmt.Errorf("bad number %q", loS)
	}
	hi = lo
	if isRange {
		if hi, err = strconv.ParseInt(hiS, 10, 64); err != nil {
			return 0, 0, fmt.Errorf("bad number %q", hiS)
		}
	}
	if lo < 0 {
		return 0, 0, fmt.Errorf("negative bound %d", lo)
	}
	if hi < lo {
		return 0, 0, fmt.Errorf("range %d-%d is inverted", lo, hi)
	}
	return lo, hi, nil
}

// String renders the spec canonically: fields in hook, op, dev,
// verdict, pid, session order; list values in enum order; single-value
// ranges collapsed. ParseSpec(s.String()) reproduces s exactly (the
// round-trip property FuzzProbeSpec pins); the zero Spec renders "".
func (s *Spec) String() string {
	var parts []string
	if s.Hook != "" {
		parts = append(parts, "hook="+s.Hook)
	}
	if s.Kinds != 0 {
		var names []string
		for k := KindOpen; k < kindCount; k++ {
			if s.Kinds&(1<<k) != 0 {
				names = append(names, kindNames[k])
			}
		}
		parts = append(parts, "op="+strings.Join(names, ","))
	}
	if s.Devs != 0 {
		var names []string
		for d := DevNone; d < devCount; d++ {
			if s.Devs&(1<<d) != 0 {
				names = append(names, devNames[d])
			}
		}
		parts = append(parts, "dev="+strings.Join(names, ","))
	}
	if s.Verdicts != 0 {
		var names []string
		for v := VerdictNone; v < verdictCount; v++ {
			if s.Verdicts&(1<<v) != 0 {
				names = append(names, verdictNames[v])
			}
		}
		parts = append(parts, "verdict="+strings.Join(names, ","))
	}
	if s.HasPID {
		parts = append(parts, "pid="+formatRange(s.PIDLo, s.PIDHi))
	}
	if s.HasSession {
		parts = append(parts, "session="+formatRange(int64(s.SessionLo), int64(s.SessionHi)))
	}
	return strings.Join(parts, " ")
}

func formatRange(lo, hi int64) string {
	if lo == hi {
		return strconv.FormatInt(lo, 10)
	}
	return strconv.FormatInt(lo, 10) + "-" + strconv.FormatInt(hi, 10)
}
