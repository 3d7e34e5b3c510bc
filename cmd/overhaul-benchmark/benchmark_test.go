package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"
)

// benchmarkFile is the part of the repository's BENCHMARK.json the
// program must agree with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBenchmarkFileMatchesProgram(t *testing.T) {
	b := loadBenchmarkFile(t)
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	var got []string
	for _, w := range b.Workloads {
		got = append(got, w.Name)
	}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", got, want)
	}
	check := func(kind string, file []metricDef, prog []metricDef) {
		if len(file) != len(prog) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program reports %d", kind, len(file), len(prog))
		}
		for i := range min(len(file), len(prog)) {
			if file[i] != prog[i] {
				t.Errorf("%s metric %d: BENCHMARK.json has %v, the program reports %v", kind, i, file[i], prog[i])
			}
		}
	}
	var e2e, layer []metricDef
	for _, m := range b.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
	}
	for _, m := range b.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit})
	}
	check("end_to_end", e2e, e2eMetrics)
	check("per_layer", layer, layerMetrics)
}

// TestEveryWorkloadTiny runs every workload at tiny sizes, untraced and
// traced, and checks that all of them pass their oracles and emit
// every metric BENCHMARK.json names.
func TestEveryWorkloadTiny(t *testing.T) {
	b := loadBenchmarkFile(t)
	for _, traced := range []bool{false, true} {
		cfg := config{seed: 7, seconds: 0.05, traced: traced, spanCap: 1 << 16, workDir: t.TempDir(), small: true}
		results, err := runAll(cfg, workloads, io.Discard)
		if err != nil {
			t.Fatalf("traced=%v: %v", traced, err)
		}
		var names []string
		if traced {
			for _, m := range b.PerLayer {
				names = append(names, m.Name)
			}
		} else {
			for _, m := range b.EndToEnd {
				names = append(names, m.Name)
			}
		}
		defs := e2eMetrics
		if traced {
			defs = layerMetrics
		}
		s := summarize(results, defs)
		if !s.Correct || s.Failed != 0 {
			t.Errorf("traced=%v: correct=%v, %d of %d ops failed", traced, s.Correct, s.Failed, s.Attempted)
		}
		for _, r := range results {
			for _, f := range r.failures {
				t.Errorf("%s: %s", r.workload, f)
			}
			for _, n := range names {
				m, ok := s.Metrics[r.workload+"/"+n]
				if !ok {
					t.Errorf("%s traced=%v: metric %s not emitted", r.workload, traced, n)
				} else if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", r.workload, n, m.Value)
				}
			}
			if traced && (r.trace == nil || len(r.trace.rows) == 0) {
				t.Errorf("%s: traced run produced no self-time table", r.workload)
			}
		}
	}
}

// TestResultLine runs the command on one tiny workload and checks the
// contract of its last output line.
func TestResultLine(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-workload", "desk-grant", "-seed", "3", "-seconds", "0.02", "-workdir", t.TempDir()}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	var keys []string
	for k := range last {
		keys = append(keys, k)
	}
	if len(keys) != 4 || last["correct"] == nil || last["attempted"] == nil || last["failed"] == nil || last["metrics"] == nil {
		t.Errorf("result line keys %v, want exactly correct, attempted, failed, metrics", keys)
	}
	var s summary
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &s); err != nil {
		t.Fatal(err)
	}
	if !s.Correct || s.Attempted == 0 || s.Failed != 0 || len(s.Metrics) != len(e2eMetrics) {
		t.Errorf("result line %+v", s)
	}
}

func TestUnknownWorkloadPrintsNoResult(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-workload", "nosuch", "-workdir", t.TempDir()}, &out, &errb); code != 2 {
		t.Errorf("exit %d, want 2", code)
	}
	if out.Len() != 0 {
		t.Errorf("printed %q, want nothing", out.String())
	}
}
