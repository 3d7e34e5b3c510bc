// Package auditlog renders the permission monitor's decision log to the
// simulated filesystem, the way the paper's prototype logs to disk —
// §V-C verifies clipboard behaviour "by inspecting the logs produced by
// our system" and §V-D checks "OVERHAUL's logs to see which applications
// were granted access". The log file is superuser-owned and
// world-readable, like a syslog.
package auditlog

import (
	"errors"
	"fmt"
	"strings"

	"overhaul/internal/fs"
	"overhaul/internal/monitor"
)

// Path is the conventional log location.
const Path = "/var/log/overhaul.log"

// ErrNilArgs is returned for missing dependencies.
var ErrNilArgs = errors.New("auditlog: nil filesystem or monitor")

// Writer persists monitor decisions to the filesystem.
type Writer struct {
	fsys *fs.FS
	mon  *monitor.Monitor
}

// NewWriter builds a writer targeting the conventional path.
func NewWriter(fsys *fs.FS, mon *monitor.Monitor) (*Writer, error) {
	if fsys == nil || mon == nil {
		return nil, ErrNilArgs
	}
	if err := fsys.MkdirAll("/var/log", 0o755, fs.Root); err != nil {
		return nil, fmt.Errorf("auditlog: %w", err)
	}
	return &Writer{fsys: fsys, mon: mon}, nil
}

// FormatDecision renders one audit record as a log line. Denials
// issued in degraded (fail-closed) mode carry an extra marker so the
// logs distinguish "policy said no" from "enforcement was broken, so
// everything said no"; ordinary records render exactly as before.
func FormatDecision(d monitor.Decision) string {
	line := fmt.Sprintf("%s overhaul: pid=%d op=%s verdict=%s stamp=%s reason=%q",
		d.OpTime.Format("2006-01-02T15:04:05.000Z07:00"),
		d.PID, d.Op, d.Verdict,
		d.Stamp.Format("15:04:05.000"),
		d.Reason)
	if d.Degraded {
		line += " degraded=1"
	}
	return line
}

// Flush writes the monitor's current audit log to the file, replacing
// previous content, and returns the number of records written.
func (w *Writer) Flush() (int, error) {
	decisions := w.mon.Audit()
	var b strings.Builder
	for _, d := range decisions {
		b.WriteString(FormatDecision(d))
		b.WriteByte('\n')
	}
	if err := w.fsys.WriteFile(Path, []byte(b.String()), 0o644, fs.Root); err != nil {
		return 0, fmt.Errorf("auditlog: %w", err)
	}
	return len(decisions), nil
}

// Read returns the current log content (any user may read it).
func (w *Writer) Read(cred fs.Cred) ([]string, error) {
	data, err := w.fsys.ReadFile(Path, cred)
	if err != nil {
		return nil, fmt.Errorf("auditlog: %w", err)
	}
	content := strings.TrimRight(string(data), "\n")
	if content == "" {
		return nil, nil
	}
	return strings.Split(content, "\n"), nil
}

// Grep returns log lines containing the substring.
func (w *Writer) Grep(cred fs.Cred, substr string) ([]string, error) {
	lines, err := w.Read(cred)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, l := range lines {
		if strings.Contains(l, substr) {
			out = append(out, l)
		}
	}
	return out, nil
}
