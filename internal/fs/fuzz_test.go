package fs

import (
	"strings"
	"testing"

	"overhaul/internal/clock"
)

// FuzzPathOperations feeds arbitrary paths through the filesystem's
// entire path-addressed API: nothing may panic, and valid round trips
// must stay consistent.
func FuzzPathOperations(f *testing.F) {
	f.Add("/a/b/c", []byte("data"))
	f.Add("/", []byte{})
	f.Add("//weird//", []byte{1})
	f.Add("relative", []byte("x"))
	f.Add("/a/../b", []byte("y"))
	f.Add("/dev/snd/pcmC0D0c", []byte{0xff})

	f.Fuzz(func(t *testing.T, path string, data []byte) {
		fsys := New(clock.NewSimulated())
		// All of these must be total.
		_, _ = fsys.Stat(path)
		_ = fsys.Mkdir(path, 0o755, Root)
		_ = fsys.MkdirAll(path, 0o755, Root)
		err := fsys.WriteFile(path, data, 0o644, Root)
		if err == nil {
			got, rerr := fsys.ReadFile(path, Root)
			if rerr != nil {
				t.Fatalf("WriteFile succeeded but ReadFile failed: %v", rerr)
			}
			if string(got) != string(data) {
				t.Fatalf("round trip mismatch: %q vs %q", got, data)
			}
			if err := fsys.Unlink(path, Root); err != nil {
				t.Fatalf("Unlink after write: %v", err)
			}
		}
		_, _ = fsys.ReadDir(path, Root)
		_ = fsys.Mkfifo(path, 0o666, Root)
		_ = fsys.Mknod(path, "camera", 0o666, Root)
	})
}

// FuzzSplitPathInvariants checks the path normaliser directly: accepted
// paths must be absolute with clean components.
func FuzzSplitPathInvariants(f *testing.F) {
	f.Add("/ok/path")
	f.Add("")
	f.Add("/")
	f.Add("/a//b")
	f.Fuzz(func(t *testing.T, path string) {
		trimmed, err := trimPath(path)
		if err != nil {
			return
		}
		if !strings.HasPrefix(path, "/") {
			t.Fatalf("accepted relative path %q", path)
		}
		if trimmed == "" {
			return // the root itself
		}
		for _, p := range strings.Split(trimmed, "/") {
			if p == "" || p == "." || p == ".." || strings.Contains(p, "/") {
				t.Fatalf("dirty component %q from %q", p, path)
			}
		}
	})
}
