package analysis

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func TestParseAllow(t *testing.T) {
	tests := []struct {
		comment  string
		analyzer string
		reason   string
		isAllow  bool
	}{
		{"//overhaul:allow clockcheck benchmark timing", "clockcheck", "benchmark timing", true},
		{"//overhaul:allow errdrop reason with  spaces kept", "errdrop", "reason with spaces kept", true},
		{"//overhaul:allow clockcheck", "clockcheck", "", true},
		{"//overhaul:allow", "", "", true},
		{"//overhaul:allowx not an allow", "", "", false},
		{"// ordinary comment", "", "", false},
		{"//overhaul:deny clockcheck nope", "", "", false},
	}
	for _, tt := range tests {
		analyzer, reason, ok := parseAllow(tt.comment)
		if ok != tt.isAllow || analyzer != tt.analyzer || reason != tt.reason {
			t.Errorf("parseAllow(%q) = (%q, %q, %v), want (%q, %q, %v)",
				tt.comment, analyzer, reason, ok, tt.analyzer, tt.reason, tt.isAllow)
		}
	}
}

// writeModule materialises sources into a temp dir and loads them.
func writeModule(t *testing.T, files map[string]string) *Module {
	t.Helper()
	dir := t.TempDir()
	for name, src := range files {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	mod, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	return mod
}

func TestSuppressionScope(t *testing.T) {
	mod := writeModule(t, map[string]string{
		"app/app.go": `package app

import "time"

func trailing() time.Time {
	return time.Now() //overhaul:allow clockcheck trailing form
}

func standalone() time.Time {
	//overhaul:allow clockcheck standalone form
	return time.Now()
}

func wrongAnalyzer() time.Time {
	//overhaul:allow lockcheck wrong analyzer listed
	return time.Now()
}

func tooFarAbove() time.Time {
	//overhaul:allow clockcheck two lines above the finding

	return time.Now()
}
`,
	})
	diags := Run(mod, []*Analyzer{Clockcheck})
	// wrongAnalyzer and tooFarAbove are reported, and tooFarAbove's
	// allow, which covers nothing, is reported as stale.
	var got []string
	for _, d := range diags {
		got = append(got, fmt.Sprintf("%d %s", d.Line, d.Analyzer))
	}
	if want := []string{"16 clockcheck", "20 allow", "22 clockcheck"}; !slices.Equal(got, want) {
		t.Errorf("diagnostics %v, want %v:\n%v", got, want, diags)
	}
}

func TestMalformedAllowReported(t *testing.T) {
	mod := writeModule(t, map[string]string{
		"app/app.go": `package app

//overhaul:allow clockcheck
func missingReason() {}

//overhaul:allow
func missingEverything() {}
`,
	})
	diags := Run(mod, []*Analyzer{Clockcheck})
	if len(diags) != 2 {
		t.Fatalf("got %d diagnostics, want 2 malformed-allow reports:\n%v", len(diags), diags)
	}
	for _, d := range diags {
		if d.Analyzer != "allow" {
			t.Errorf("malformed allow reported under %q, want \"allow\"", d.Analyzer)
		}
		if !strings.Contains(d.Message, "malformed suppression") {
			t.Errorf("unexpected message: %s", d.Message)
		}
	}
}

func TestMalformedAllowCannotSuppress(t *testing.T) {
	mod := writeModule(t, map[string]string{
		"app/app.go": `package app

import "time"

func f() time.Time {
	return time.Now() //overhaul:allow clockcheck
}
`,
	})
	diags := Run(mod, []*Analyzer{Clockcheck})
	if len(diags) != 2 {
		t.Fatalf("got %d diagnostics, want the finding plus the malformed-allow report:\n%v", len(diags), diags)
	}
}

// TestStaleAllowReported pins what an allow must do to stay: suppress
// a finding of an analyzer that ran over its package. An allow naming
// an analyzer left out of the run, or one whose scope skips the
// package, is not judged; two allows covering one finding both count.
func TestStaleAllowReported(t *testing.T) {
	mod := writeModule(t, map[string]string{
		"internal/a/a.go": `package a

import "time"

func used() time.Time {
	return time.Now() //overhaul:allow clockcheck used
}

func stale() int {
	return 1 //overhaul:allow clockcheck nothing to suppress
}

func both() time.Time {
	//overhaul:allow clockcheck standalone covers the next line
	return time.Now() //overhaul:allow clockcheck so does the trailing form
}

func notRun() {} //overhaul:allow lockcheck lockcheck is not run
`,
		"cmd/c/c.go": `package main

func f() error { return nil }

func main() {
	f() //overhaul:allow errdrop errdrop only runs over internal packages
}
`,
	})
	diags := Run(mod, []*Analyzer{Clockcheck, Errdrop})
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want 1 stale allow:\n%v", len(diags), diags)
	}
	d := diags[0]
	want := "internal/a/a.go:10:11: allow: stale suppression: suppresses no clockcheck finding"
	if d.String() != want {
		t.Errorf("got %s, want %s", d, want)
	}
}

// TestErrdropResolvesCallees pins errdrop to the callee the type
// checker resolves, not to its bare name: a method that shares its
// name with an error-returning function is not flagged, and a standard
// library call is flagged only under a conventional release name.
func TestErrdropResolvesCallees(t *testing.T) {
	mod := writeModule(t, map[string]string{
		"internal/a/a.go": `package a

import "os"

func Fails() error { return nil }

func Clean() int { return 0 }

type T struct{}

func (T) Method() (int, error) { return 0, nil }

func (T) Fails() {}

func Flow(f *os.File) {
	Fails()
	T{}.Method()
	Clean()
	T{}.Fails()
	os.Remove("x")
	f.Close()
}
`,
	})
	var got []string
	for _, d := range Run(mod, []*Analyzer{Errdrop}) {
		got = append(got, strings.Fields(d.Message)[2])
	}
	if want := []string{"Fails", "Method", "Close"}; !slices.Equal(got, want) {
		t.Errorf("flagged %v, want %v", got, want)
	}
}
