package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// runTop runs the command with args as its command line and returns
// what it printed to stdout. Fleet mode replays on a virtual timeline,
// so the bytes are reproducible.
func runTop(t *testing.T, args ...string) []byte {
	t.Helper()
	out, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	savedArgs, savedStdout, savedFlags := os.Args, os.Stdout, flag.CommandLine
	os.Args = append([]string{"overhaul-top"}, args...)
	os.Stdout = out
	flag.CommandLine = flag.NewFlagSet("overhaul-top", flag.ContinueOnError)
	code := run()
	os.Args, os.Stdout, flag.CommandLine = savedArgs, savedStdout, savedFlags
	if code != 0 {
		t.Fatalf("overhaul-top %v exited %d", args, code)
	}
	got, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestFleetGolden pins the fleet console byte for byte: the dashboard,
// its JSON form, and one session's detail from the ring and from a
// durable store.
func TestFleetGolden(t *testing.T) {
	cases := []struct {
		golden string
		args   []string
	}{
		{"fleet16-botstorm.golden", []string{"-fleet", "16", "-mix", "bot-storm"}},
		{"fleet16-botstorm-json.golden", []string{"-fleet", "16", "-mix", "bot-storm", "-json"}},
		{"fleet4-session2.golden", []string{"-fleet", "4", "-session", "2"}},
		{"fleet4-session2-store.golden", []string{"-fleet", "4", "-session", "2", "-store", t.TempDir()}},
	}
	for _, c := range cases {
		t.Run(c.golden, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", c.golden))
			if err != nil {
				t.Fatal(err)
			}
			if got := runTop(t, c.args...); !bytes.Equal(got, want) {
				t.Errorf("overhaul-top %v differs from testdata/%s:\n%s", c.args, c.golden, got)
			}
		})
	}
}

// TestDashboardGolden pins the single-system console byte for byte:
// the dashboard (metrics, the three 12-span traces, the flight dumps)
// and the full telemetry snapshot it renders from. Both run on the
// simulated clock with sequential span IDs, so every byte is
// reproducible.
func TestDashboardGolden(t *testing.T) {
	cases := []struct {
		golden string
		args   []string
	}{
		{"dashboard.golden", nil},
		{"dashboard-json.golden", []string{"-json"}},
	}
	for _, c := range cases {
		t.Run(c.golden, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", c.golden))
			if err != nil {
				t.Fatal(err)
			}
			if got := runTop(t, c.args...); !bytes.Equal(got, want) {
				t.Errorf("overhaul-top %v differs from testdata/%s:\n%s", c.args, c.golden, got)
			}
		})
	}
}
