package probe

import (
	"strings"
	"testing"
)

func TestParseSpecMatchAll(t *testing.T) {
	s, err := ParseSpec("")
	if err != nil {
		t.Fatalf("ParseSpec(\"\"): %v", err)
	}
	if s != (Spec{}) {
		t.Fatalf("empty spec compiled to %+v, want zero Spec", s)
	}
	ev := Event{Kind: KindDecide, Dev: DevMic, Verdict: VerdictDeny, PID: 42, Session: 7}
	if !s.Match(&ev) {
		t.Fatal("zero Spec must match every event")
	}
	if got := s.String(); got != "" {
		t.Fatalf("zero Spec renders %q, want \"\"", got)
	}
}

func TestParseSpecFields(t *testing.T) {
	s, err := ParseSpec("hook=kernel.decide op=decide,evaluate dev=mic,cam verdict=deny pid=10-20 session=3")
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	if s.Hook != HookKernelDecide {
		t.Fatalf("hook %q", s.Hook)
	}
	match := Event{Kind: KindDecide, Dev: DevMic, Verdict: VerdictDeny, PID: 15, Session: 3}
	if !s.Match(&match) {
		t.Fatalf("spec %q must match %+v", s.String(), match)
	}
	for name, ev := range map[string]Event{
		"wrong kind":    {Kind: KindOpen, Dev: DevMic, Verdict: VerdictDeny, PID: 15, Session: 3},
		"wrong dev":     {Kind: KindDecide, Dev: DevScreen, Verdict: VerdictDeny, PID: 15, Session: 3},
		"wrong verdict": {Kind: KindDecide, Dev: DevMic, Verdict: VerdictGrant, PID: 15, Session: 3},
		"pid low":       {Kind: KindDecide, Dev: DevMic, Verdict: VerdictDeny, PID: 9, Session: 3},
		"pid high":      {Kind: KindDecide, Dev: DevMic, Verdict: VerdictDeny, PID: 21, Session: 3},
		"wrong session": {Kind: KindDecide, Dev: DevMic, Verdict: VerdictDeny, PID: 15, Session: 4},
	} {
		ev := ev
		if s.Match(&ev) {
			t.Errorf("%s: spec must not match %+v", name, ev)
		}
	}
	// Every emitted kind parses, the ones past the original seven too.
	kinds := "open,decide,evaluate,input,send,recv,dispatch,notify,interaction,query,alert,call,fault,degrade,recover"
	all, err := ParseSpec("op=" + kinds)
	if err != nil {
		t.Fatalf("ParseSpec(op=%s): %v", kinds, err)
	}
	for _, name := range strings.Split(kinds, ",") {
		k := KindOf(name)
		if k == KindNone {
			t.Fatalf("KindOf(%q) = none", name)
		}
		if all.Kinds&(1<<k) == 0 {
			t.Errorf("op=%s not in the compiled kind set %#x", name, all.Kinds)
		}
	}
	if all.Kinds != 1<<kindCount-2 {
		t.Errorf("kind set %#x, want every kind but none", all.Kinds)
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, bad := range []string{
		"op",                       // no =
		"op=",                      // empty value
		"op=fishing",               // unknown kind
		"op=none",                  // none is not an emitted kind
		"dev=tape",                 // unknown device class
		"verdict=maybe",            // unknown verdict
		"hook=kernel.close",        // unknown hook
		"hook=a hook=b",            // duplicate hook
		"pid=1 pid=2",              // duplicate pid
		"session=1 session=2",      // duplicate session
		"pid=-4",                   // negative
		"pid=9-3",                  // inverted range
		"pid=abc",                  // not a number
		"pid=99999999999999999999", // overflow
		"color=red",                // unknown key
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q): want error, got nil", bad)
		}
	}
}

func TestSpecRoundTrip(t *testing.T) {
	for _, text := range []string{
		"",
		"op=open",
		"op=open,decide,dispatch",
		"dev=none,copy,dev",
		"verdict=none,grant,deny",
		"hook=netlink.send",
		"pid=5",
		"pid=5-500",
		"session=0",
		"session=2-9",
		"hook=kernel.decide op=decide dev=mic,cam verdict=deny pid=1-99 session=5",
	} {
		s, err := ParseSpec(text)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", text, err)
		}
		rendered := s.String()
		s2, err := ParseSpec(rendered)
		if err != nil {
			t.Fatalf("reparse of %q (from %q): %v", rendered, text, err)
		}
		if s2 != s {
			t.Fatalf("round trip of %q: %+v != %+v", text, s2, s)
		}
	}
}

func TestSpecCanonicalString(t *testing.T) {
	// Merged repeats, reordered keys, and padded numbers all render
	// canonically.
	s, err := ParseSpec("verdict=deny op=decide op=open pid=007")
	if err != nil {
		t.Fatal(err)
	}
	want := "op=open,decide verdict=deny pid=7"
	if got := s.String(); got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

func TestEventFormat(t *testing.T) {
	ev := Event{
		TimeNanos: 1000, StampNanos: 0, Session: 3, PID: 42,
		Kind: KindDecide, Dev: DevMic, Verdict: VerdictDeny,
		Reason: "no recorded user interaction",
	}
	got := ev.Format()
	want := "decide pid=42 session=3 dev=mic verdict=deny t=1000 stamp=0 reason=no recorded user interaction"
	if got != want {
		t.Fatalf("Format:\n got %q\nwant %q", got, want)
	}
	if !strings.HasPrefix(got, "decide ") {
		t.Fatal("format must lead with the kind")
	}
}
