package analysis

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// FixResult summarizes one ApplyFixes invocation.
type FixResult struct {
	// Files are the root-relative paths rewritten (or, in dry-run,
	// that would be), sorted.
	Files []string
	// Applied counts the fixes taken.
	Applied int
	// Skipped counts fixes dropped because their edits overlapped
	// with an already-accepted fix.
	Skipped int
	// Diff is the unified diff of the rewrite; only populated in
	// dry-run mode.
	Diff string
}

// ApplyFixes applies the first suggested fix of every diagnostic that
// carries one. Edits are grouped per file, sorted, and checked for
// overlap — a fix whose edits collide with an already-accepted fix is
// skipped whole, so the rewrite is always a consistent composition of
// complete fixes. In dry-run mode nothing is written and the unified
// diff is returned; otherwise each file is rewritten atomically
// (temp + rename in the same directory).
func ApplyFixes(root string, diags []Diagnostic, dryRun bool) (*FixResult, error) {
	type fileEdits struct {
		edits []TextEdit
	}
	perFile := make(map[string]*fileEdits)
	res := &FixResult{}

	// Accept fixes in diagnostic order; diags arrive sorted by
	// position, so earlier findings win collisions deterministically.
	for _, d := range diags {
		if len(d.Fixes) == 0 {
			continue
		}
		fix := d.Fixes[0]
		if len(fix.Edits) == 0 {
			continue
		}
		collides := false
		for _, e := range fix.Edits {
			fe := perFile[e.File]
			if fe == nil {
				continue
			}
			for _, have := range fe.edits {
				if overlaps(have, e) {
					collides = true
					break
				}
			}
			if collides {
				break
			}
		}
		if collides {
			res.Skipped++
			continue
		}
		for _, e := range fix.Edits {
			fe := perFile[e.File]
			if fe == nil {
				fe = &fileEdits{}
				perFile[e.File] = fe
			}
			fe.edits = append(fe.edits, e)
		}
		res.Applied++
	}

	files := make([]string, 0, len(perFile))
	for f := range perFile {
		files = append(files, f)
	}
	sort.Strings(files)

	var diff strings.Builder
	for _, rel := range files {
		abs := filepath.Join(root, filepath.FromSlash(rel))
		src, err := os.ReadFile(abs)
		if err != nil {
			return nil, fmt.Errorf("apply fixes: %w", err)
		}
		out, err := applyEdits(src, perFile[rel].edits)
		if err != nil {
			return nil, fmt.Errorf("apply fixes: %s: %w", rel, err)
		}
		res.Files = append(res.Files, rel)
		if dryRun {
			diff.WriteString(unifiedDiff(rel, string(src), string(out)))
			continue
		}
		if err := atomicWrite(abs, out); err != nil {
			return nil, fmt.Errorf("apply fixes: %w", err)
		}
	}
	res.Diff = diff.String()
	return res, nil
}

// overlaps reports whether two edits touch intersecting ranges. Two
// pure insertions at the same offset count as overlapping — their
// order would be ambiguous.
func overlaps(a, b TextEdit) bool {
	if a.File != b.File {
		return false
	}
	if a.Start == b.Start {
		return true
	}
	if a.Start < b.Start {
		return a.End > b.Start
	}
	return b.End > a.Start
}

// applyEdits rewrites src, validating offsets.
func applyEdits(src []byte, edits []TextEdit) ([]byte, error) {
	sorted := append([]TextEdit(nil), edits...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Start < sorted[j].Start })
	for i, e := range sorted {
		if e.Start < 0 || e.End < e.Start || e.End > len(src) {
			return nil, fmt.Errorf("edit [%d,%d) out of range (file is %d bytes)", e.Start, e.End, len(src))
		}
		if i > 0 && sorted[i-1].End > e.Start {
			return nil, fmt.Errorf("overlapping edits at %d", e.Start)
		}
	}
	// Apply back to front so earlier offsets stay valid.
	out := append([]byte(nil), src...)
	for i := len(sorted) - 1; i >= 0; i-- {
		e := sorted[i]
		out = append(out[:e.Start], append([]byte(e.NewText), out[e.End:]...)...)
	}
	return out, nil
}

// atomicWrite replaces path's contents via a temp file and rename,
// preserving the original mode.
func atomicWrite(path string, data []byte) error {
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".overhaul-fix-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmpName) // best-effort cleanup of a temp file after a failed write
		if werr != nil {
			return werr
		}
		return cerr
	}
	if err := os.Chmod(tmpName, info.Mode()); err != nil {
		os.Remove(tmpName) // best-effort cleanup of a temp file after a failed chmod
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName) // best-effort cleanup of a temp file after a failed rename
		return err
	}
	return nil
}

// unifiedDiff renders a minimal unified diff between two versions of
// one file: full-context hunks around each changed line run, enough
// for a human to review a dry-run.
func unifiedDiff(name, before, after string) string {
	if before == after {
		return ""
	}
	a := strings.SplitAfter(before, "\n")
	b := strings.SplitAfter(after, "\n")
	// Trim common prefix and suffix; the edits are local, so one hunk
	// with the differing middle is a faithful rendering.
	p := 0
	for p < len(a) && p < len(b) && a[p] == b[p] {
		p++
	}
	s := 0
	for s < len(a)-p && s < len(b)-p && a[len(a)-1-s] == b[len(b)-1-s] {
		s++
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "--- a/%s\n+++ b/%s\n", name, name)
	fmt.Fprintf(&sb, "@@ -%d,%d +%d,%d @@\n", p+1, len(a)-s-p, p+1, len(b)-s-p)
	for _, line := range a[p : len(a)-s] {
		sb.WriteString("-" + strings.TrimSuffix(line, "\n") + "\n")
	}
	for _, line := range b[p : len(b)-s] {
		sb.WriteString("+" + strings.TrimSuffix(line, "\n") + "\n")
	}
	return sb.String()
}
