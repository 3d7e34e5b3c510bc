package analysis

import (
	"os"
	"path/filepath"
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
	if len(diags) != 2 {
		t.Fatalf("got %d diagnostics, want 2 (wrongAnalyzer and tooFarAbove):\n%v", len(diags), diags)
	}
	for _, d := range diags {
		if d.Analyzer != "clockcheck" {
			t.Errorf("unexpected analyzer in %s", d)
		}
	}
	if diags[0].Line != 16 || diags[1].Line != 22 {
		t.Errorf("diagnostics at lines %d and %d, want 16 and 22", diags[0].Line, diags[1].Line)
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

// TestErrdropResolvesCallees pins errdrop to the callee the type
// checker resolves, not to its bare name: a method that shares its
// name with an error-returning function is not flagged, a standard
// library call is flagged only under a conventional release name, and
// the suggested fix assigns one blank per result of that callee.
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
	got := map[string]string{} // callee name -> fix text
	for _, d := range Run(mod, []*Analyzer{Errdrop}) {
		name := strings.Fields(d.Message)[2]
		if len(d.Fixes) != 1 || len(d.Fixes[0].Edits) != 1 {
			t.Fatalf("%s: fixes %+v, want one single-edit fix", d, d.Fixes)
		}
		got[name] = d.Fixes[0].Edits[0].NewText
	}
	want := map[string]string{"Fails": "_ = ", "Method": "_, _ = ", "Close": "_ = "}
	if len(got) != len(want) {
		t.Fatalf("flagged %v, want %v", got, want)
	}
	for name, fix := range want {
		if got[name] != fix {
			t.Errorf("%s: fix %q, want %q (all flagged: %v)", name, got[name], fix, got)
		}
	}
}
