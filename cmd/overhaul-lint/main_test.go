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

// copyTree clones a fixture directory into dst so -fix can rewrite it.
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

// TestExitCodeSemantics pins the documented contract: 0 when clean or
// fully baselined, 1 on fresh findings, 2 on driver errors — including
// a baseline flag that points at a missing or corrupt file.
func TestExitCodeSemantics(t *testing.T) {
	dir := t.TempDir()
	baseline := filepath.Join(dir, "baseline.json")
	var out, errb bytes.Buffer

	// Findings with no baseline: 1.
	if code := run([]string{printcheckFixture}, &out, &errb); code != 1 {
		t.Fatalf("findings should exit 1, got %d", code)
	}

	// -write-baseline records them and exits 0 regardless of findings.
	out.Reset()
	if code := run([]string{"-baseline", baseline, "-write-baseline", printcheckFixture}, &out, &errb); code != 0 {
		t.Fatalf("-write-baseline should exit 0, got %d; stderr: %s", code, errb.String())
	}

	// Fully baselined run: 0, with the suppression reported.
	out.Reset()
	if code := run([]string{"-baseline", baseline, printcheckFixture}, &out, &errb); code != 0 {
		t.Fatalf("baselined findings should exit 0, got %d; stdout: %s", code, out.String())
	}
	if !strings.Contains(out.String(), "known finding(s) suppressed by baseline") {
		t.Errorf("baselined run should report suppression, got: %s", out.String())
	}

	// -json with a covering baseline emits an empty array and exits 0.
	out.Reset()
	if code := run([]string{"-json", "-baseline", baseline, printcheckFixture}, &out, &errb); code != 0 {
		t.Fatalf("-json baselined run should exit 0, got %d", code)
	}
	if strings.TrimSpace(out.String()) != "[]" {
		t.Errorf("-json baselined run = %q, want []", out.String())
	}

	// Missing or corrupt baseline is a driver error, never an empty
	// baseline: a misconfigured gate must not silently pass everything.
	errb.Reset()
	if code := run([]string{"-baseline", filepath.Join(dir, "nope.json"), printcheckFixture}, &out, &errb); code != 2 {
		t.Fatalf("missing baseline should exit 2, got %d", code)
	}
	if errb.Len() == 0 {
		t.Error("missing baseline should be reported on stderr")
	}
	corrupt := filepath.Join(dir, "corrupt.json")
	if err := os.WriteFile(corrupt, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := run([]string{"-baseline", corrupt, printcheckFixture}, &out, &errb); code != 2 {
		t.Fatalf("corrupt baseline should exit 2, got %d", code)
	}

	// A tree that does not type-check is unloadable: 2, with the
	// type error's file and line on stderr.
	broken := filepath.Join(dir, "broken")
	if err := os.MkdirAll(broken, 0o755); err != nil {
		t.Fatal(err)
	}
	src := "package broken\n\nvar x int = \"s\"\n"
	if err := os.WriteFile(filepath.Join(broken, "broken.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	errb.Reset()
	if code := run([]string{broken}, &out, &errb); code != 2 {
		t.Fatalf("type error should exit 2, got %d", code)
	}
	if !strings.Contains(errb.String(), "broken.go:3:") {
		t.Errorf("type error should name the file and line on stderr, got: %s", errb.String())
	}

	// Flag misuse: 2.
	if code := run([]string{"-write-baseline", printcheckFixture}, &out, &errb); code != 2 {
		t.Errorf("-write-baseline without -baseline should exit 2, got %d", code)
	}
	if code := run([]string{"-fix", "-diff", printcheckFixture}, &out, &errb); code != 2 {
		t.Errorf("-fix with -diff should exit 2, got %d", code)
	}
}

// TestFixRoundTrip applies errdrop's suggested fixes to a scratch copy
// of its fixture and checks the rewritten tree lints clean — the
// acceptance property for -fix.
func TestFixRoundTrip(t *testing.T) {
	dir := t.TempDir()
	copyTree(t, "../../internal/analysis/testdata/errdrop", dir)
	var out, errb bytes.Buffer

	// -diff previews without writing.
	if code := run([]string{"-enable", "errdrop", "-diff", dir}, &out, &errb); code != 1 {
		t.Fatalf("-diff run should still exit 1, got %d; stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "+++ ") || !strings.Contains(out.String(), "_ = ") {
		t.Errorf("-diff should print a unified diff with the discard fix, got: %s", out.String())
	}
	out.Reset()
	if code := run([]string{"-enable", "errdrop", dir}, &out, &errb); code != 1 {
		t.Fatal("-diff must not modify the tree")
	}

	// -fix rewrites, and the rewritten tree is clean.
	out.Reset()
	if code := run([]string{"-enable", "errdrop", "-fix", dir}, &out, &errb); code != 1 {
		t.Fatalf("-fix run reports the findings it fixed, got exit %d", code)
	}
	if !strings.Contains(out.String(), "fixed ") {
		t.Errorf("-fix should report rewritten files, got: %s", out.String())
	}
	out.Reset()
	if code := run([]string{"-enable", "errdrop", dir}, &out, &errb); code != 0 {
		t.Fatalf("tree should lint clean after -fix, got exit %d: %s", code, out.String())
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
