package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func suiteFig11(t *testing.T) string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "results", "full_suite.txt"))
	if err != nil {
		t.Fatal(err)
	}
	block, err := suiteBlock(string(raw), "fig11")
	if err != nil {
		t.Fatal(err)
	}
	return block
}

func newTestRun(t *testing.T, traced bool) *run {
	return &run{workload: "fig11", seed: suiteSeed, traced: traced, outDir: t.TempDir(),
		values: map[string]float64{}}
}

func TestSuiteBlockIsTheFig11Table(t *testing.T) {
	block := suiteFig11(t)
	if !strings.HasPrefix(block, "Figure 11:") || !strings.HasSuffix(block, "1.356\n") {
		t.Fatalf("unexpected block:\n%s", block)
	}
	if got := strings.Count(block, "\n"); got != 8 {
		t.Fatalf("fig11 block has %d lines, want title, caption, header and 5 rows", got)
	}
}

func TestOneCorruptedByteFailsTheFig11Check(t *testing.T) {
	ref := suiteFig11(t)
	r := newTestRun(t, false)
	if !r.checkFig11(ref, ref) {
		t.Fatalf("the reference itself must pass: %v", r.problems)
	}
	corrupt := []byte(ref)
	i := len(corrupt) - 3 // a digit of the last value
	corrupt[i] ^= 0x01
	r = newTestRun(t, false)
	r.attempted = 1
	if r.checkFig11(string(corrupt), ref) {
		t.Fatal("a table one byte off the reference passed the check")
	}
	r.failed = r.attempted // as runFig11 does on a failed check
	for _, d := range endToEnd {
		r.set(d.name, 1)
	}
	res, err := r.result()
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != 1 {
		t.Fatalf("corrupted table reported as correct=%v failed=%d", res.Correct, res.Failed)
	}
}

func TestCrossCheckComparesTimedAndTracedRuns(t *testing.T) {
	timed := newTestRun(t, false)
	traced := newTestRun(t, true)
	traced.outDir = timed.outDir
	if diff, err := timed.crossCheck(map[string]string{"a": "1", "b": "2"}); err != nil || diff != nil {
		t.Fatalf("first run has nothing to compare with: %v %v", diff, err)
	}
	diff, err := traced.crossCheck(map[string]string{"a": "1", "b": "3", "c": "4"})
	if err != nil {
		t.Fatal(err)
	}
	if len(diff) != 1 || diff[0] != "b" {
		t.Fatalf("diff = %v, want [b]", diff)
	}
}

func TestCrossCheckIgnoresOtherBuilds(t *testing.T) {
	r := newTestRun(t, true)
	other := filepath.Join(r.outDir, "records", "0123456789abcdef")
	if err := os.MkdirAll(other, 0o755); err != nil {
		t.Fatal(err)
	}
	stale := filepath.Join(other, fmt.Sprintf("%s-seed%d-timed.json", r.workload, r.seed))
	if err := os.WriteFile(stale, []byte(`{"a":"old"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if diff, err := r.crossCheck(map[string]string{"a": "new"}); err != nil || diff != nil {
		t.Fatalf("a record of another build was compared: %v %v", diff, err)
	}
}

// TestBenchmarkJSONMatchesTheProgram keeps BENCHMARK.json and the metric
// lists the program reports in step.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", kind, i,
					got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q is not in the program", w.Name)
		}
	}
}
