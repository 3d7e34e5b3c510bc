package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"overhaul/internal/analysis"
)

const printcheckFixture = "../../internal/analysis/testdata/printcheck"

// golden compares got against the file, so output format changes are
// deliberate diffs.
func golden(t *testing.T, path string, got []byte) {
	t.Helper()
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output does not match %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

func TestJSONGolden(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-json", printcheckFixture}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1 (findings present); stderr: %s", code, errb.String())
	}
	golden(t, "testdata/printcheck.json", out.Bytes())

	// The golden must round-trip as the documented machine format.
	var diags []analysis.Diagnostic
	if err := json.Unmarshal(out.Bytes(), &diags); err != nil {
		t.Fatalf("-json output is not a diagnostic array: %v", err)
	}
	if len(diags) == 0 {
		t.Fatal("-json output decoded to zero diagnostics")
	}
	for _, d := range diags {
		if d.File == "" || d.Line == 0 || d.Analyzer == "" || d.Message == "" {
			t.Errorf("incomplete diagnostic in JSON output: %+v", d)
		}
	}
}

func TestHumanGolden(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{printcheckFixture}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1; stderr: %s", code, errb.String())
	}
	golden(t, "testdata/printcheck.txt", out.Bytes())
}

func TestCleanTreeExitsZero(t *testing.T) {
	var out, errb bytes.Buffer
	// The analysistest package has no violations and no fixtures.
	code := run([]string{"../../internal/analysis/analysistest"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit code = %d, want 0; stdout: %s stderr: %s", code, out.String(), errb.String())
	}
	if out.Len() != 0 {
		t.Errorf("clean run should print nothing, got: %s", out.String())
	}
}

func TestJSONCleanTreeEmitsEmptyArray(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-json", "../../internal/analysis/analysistest"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit code = %d, want 0; stderr: %s", code, errb.String())
	}
	if strings.TrimSpace(out.String()) != "[]" {
		t.Errorf("clean -json run = %q, want []", out.String())
	}
}

func TestEnableDisableFlags(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-disable", "printcheck", printcheckFixture}, &out, &errb); code != 0 {
		t.Errorf("disabling printcheck should leave the fixture clean, exit = %d: %s", code, out.String())
	}
	out.Reset()
	if code := run([]string{"-enable", "clockcheck", printcheckFixture}, &out, &errb); code != 0 {
		t.Errorf("enabling only clockcheck should leave the fixture clean, exit = %d: %s", code, out.String())
	}
	out.Reset()
	if code := run([]string{"-enable", "printcheck", printcheckFixture}, &out, &errb); code != 1 {
		t.Errorf("enabling printcheck should find the fixture violations, exit = %d", code)
	}
	if code := run([]string{"-enable", "nonesuch", printcheckFixture}, &out, &errb); code != 2 {
		t.Errorf("unknown analyzer should be a usage error, exit = %d", code)
	}
	if code := run([]string{"-disable", "nonesuch", printcheckFixture}, &out, &errb); code != 2 {
		t.Errorf("unknown analyzer in -disable should be a usage error, exit = %d", code)
	}
}

func TestMissingRootIsLoadError(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"testdata/does-not-exist"}, &out, &errb); code != 2 {
		t.Errorf("missing root should exit 2, got %d", code)
	}
	if errb.Len() == 0 {
		t.Error("load error should be reported on stderr")
	}
}

// copyTree clones a fixture directory into dst so a test can edit it.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
	if err != nil {
		t.Fatalf("copy fixture: %v", err)
	}
}

// allowAbove returns src with comment inserted on a line of its own
// above each of the 1-based lines.
func allowAbove(src []byte, lines []int, comment string) []byte {
	above := make(map[int]bool)
	for _, l := range lines {
		above[l] = true
	}
	var out []string
	for i, line := range strings.Split(string(src), "\n") {
		if above[i+1] {
			out = append(out, comment)
		}
		out = append(out, line)
	}
	return []byte(strings.Join(out, "\n"))
}

// TestExitCodeSemantics pins the documented contract on a copy of the
// printcheck fixture: findings exit 1, an //overhaul:allow with a
// reason is the only way to accept them, and a reason-less or stale
// allow is itself a finding. Driver errors, such as an unloadable tree
// or an unknown flag, exit 2.
func TestExitCodeSemantics(t *testing.T) {
	dir := t.TempDir()
	copyTree(t, printcheckFixture, dir)
	noisy := filepath.Join(dir, "internal", "noisy", "noisy.go")
	src, err := os.ReadFile(noisy)
	if err != nil {
		t.Fatal(err)
	}
	lint := func(src []byte, wantCode int, wantOut string) []analysis.Diagnostic {
		t.Helper()
		if err := os.WriteFile(noisy, src, 0o644); err != nil {
			t.Fatal(err)
		}
		var out, errb bytes.Buffer
		if code := run([]string{"-json", dir}, &out, &errb); code != wantCode {
			t.Fatalf("exit code = %d, want %d; stdout: %s stderr: %s", code, wantCode, out.String(), errb.String())
		}
		if !strings.Contains(out.String(), wantOut) {
			t.Errorf("output lacks %q:\n%s", wantOut, out.String())
		}
		var diags []analysis.Diagnostic
		if err := json.Unmarshal(out.Bytes(), &diags); err != nil {
			t.Fatal(err)
		}
		return diags
	}

	// A finding: 1.
	var lines []int
	for _, d := range lint(src, 1, `"analyzer": "printcheck"`) {
		lines = append(lines, d.Line)
	}

	// The same findings, each under an allow with a reason: 0.
	annotated := allowAbove(src, lines, "//overhaul:allow printcheck the fixture prints on purpose")
	if diags := lint(annotated, 0, "[]"); len(diags) != 0 {
		t.Fatalf("annotated copy should be clean, got %v", diags)
	}

	// An allow without a reason is malformed and suppresses nothing: 1.
	lint(allowAbove(src, lines, "//overhaul:allow printcheck"), 1, "malformed suppression")

	// A stale allow, covering no finding, on the otherwise clean copy: 1.
	stale := append([]byte("//overhaul:allow printcheck nothing to suppress here\n"), annotated...)
	diags := lint(stale, 1, "stale suppression")
	if len(diags) != 1 || diags[0].Analyzer != "allow" || diags[0].Line != 1 {
		t.Errorf("want one allow finding at line 1, got %v", diags)
	}

	var out, errb bytes.Buffer
	// A tree that does not type-check is unloadable: 2, with the
	// type error's file and line on stderr.
	broken := filepath.Join(t.TempDir(), "broken")
	if err := os.MkdirAll(broken, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(broken, "broken.go"), []byte("package broken\n\nvar x int = \"s\"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := run([]string{broken}, &out, &errb); code != 2 {
		t.Fatalf("type error should exit 2, got %d", code)
	}
	if !strings.Contains(errb.String(), "broken.go:3:") {
		t.Errorf("type error should name the file and line on stderr, got: %s", errb.String())
	}

	// The driver has no baseline ledger and no rewrite mode: their
	// flags are unknown, 2.
	for _, args := range [][]string{
		{"-baseline", "lint-baseline.json"},
		{"-write-baseline"},
		{"-fix"},
		{"-diff"},
	} {
		if code := run(append(args, printcheckFixture), &out, &errb); code != 2 {
			t.Errorf("%v should exit 2 as an unknown flag, got %d", args, code)
		}
	}
}

// TestSARIFOutput checks -sarif emits a parseable 2.1.0 log carrying
// every finding, without changing the exit code.
func TestSARIFOutput(t *testing.T) {
	path := filepath.Join(t.TempDir(), "lint.sarif")
	var out, errb bytes.Buffer
	if code := run([]string{"-sarif", path, printcheckFixture}, &out, &errb); code != 1 {
		t.Fatalf("exit = %d, want 1; stderr: %s", code, errb.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var log struct {
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID string `json:"ruleId"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(data, &log); err != nil {
		t.Fatalf("sarif output is not JSON: %v", err)
	}
	if log.Version != "2.1.0" || len(log.Runs) != 1 {
		t.Fatalf("unexpected sarif shape: version=%s runs=%d", log.Version, len(log.Runs))
	}
	if log.Runs[0].Tool.Driver.Name != "overhaul-lint" {
		t.Errorf("driver name = %s", log.Runs[0].Tool.Driver.Name)
	}
	if len(log.Runs[0].Results) == 0 {
		t.Error("sarif log carries no results for a fixture with findings")
	}
	if len(log.Runs[0].Tool.Driver.Rules) < len(analysis.All()) {
		t.Errorf("sarif rules = %d, want one per analyzer (%d)", len(log.Runs[0].Tool.Driver.Rules), len(analysis.All()))
	}
}

func TestListAnalyzers(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("-list exit = %d, want 0", code)
	}
	for _, a := range analysis.All() {
		if !strings.Contains(out.String(), a.Name) {
			t.Errorf("-list output missing analyzer %s", a.Name)
		}
	}
}
