// Package benchmark_test keeps tier-1 honest about the benchmark: a later
// PR that breaks the driver, the oracle, the ladder or a server flag the
// workloads depend on fails `go test ./...`, not the next performance
// review.
package benchmark_test

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// manifest is the part of BENCHMARK.json the smoke test cross-checks.
type manifest struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct{ Name string } `json:"end_to_end"`
	PerLayer  []struct{ Name string } `json:"per_layer"`
}

// TestQuickRun runs the whole benchmark in -quick mode (SF 0.01, 1 s per
// run, one iteration per ladder rung) and checks that every workload
// answered correctly and that every metric BENCHMARK.json names is
// reported for every workload.
func TestQuickRun(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns servers and runs for ~20 s")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var man manifest
	if err := json.Unmarshal(raw, &man); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}

	cmd := exec.Command("go", "run", "./benchmark/cmd/bench", "-quick", "-seed", "3")
	cmd.Dir = ".."
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("bench -quick: %v\nstdout tail:\n%s\nstderr:\n%s", err, tailOf(string(out), 30), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var summary struct {
		Workloads map[string]struct {
			Attempted int                        `json:"attempted"`
			Failed    int                        `json:"failed"`
			Correct   bool                       `json:"correct"`
			EndToEnd  map[string]json.RawMessage `json:"end_to_end"`
			PerLayer  map[string]json.RawMessage `json:"per_layer"`
		} `json:"workloads"`
		Claim json.RawMessage `json:"claim"`
	}
	last := lines[len(lines)-1]
	if err := json.Unmarshal([]byte(last), &summary); err != nil {
		t.Fatalf("last line is not the summary object: %v\n%s", err, last)
	}
	if string(summary.Claim) != "null" {
		t.Errorf(`summary must end with "claim": null, got %s`, summary.Claim)
	}
	for _, w := range man.Workloads {
		got, ok := summary.Workloads[w.Name]
		if !ok {
			t.Errorf("workload %s missing from the summary", w.Name)
			continue
		}
		if !got.Correct || got.Failed != 0 || got.Attempted == 0 {
			t.Errorf("%s: correct=%v, %d failed of %d attempted", w.Name, got.Correct, got.Failed, got.Attempted)
		}
		for _, m := range man.EndToEnd {
			if _, ok := got.EndToEnd[m.Name]; !ok {
				t.Errorf("%s does not report end-to-end metric %s", w.Name, m.Name)
			}
		}
		for _, m := range man.PerLayer {
			if _, ok := got.PerLayer[m.Name]; !ok {
				t.Errorf("%s does not report per-layer metric %s", w.Name, m.Name)
			}
		}
		if len(got.EndToEnd) != len(man.EndToEnd) || len(got.PerLayer) != len(man.PerLayer) {
			t.Errorf("%s reports %d end-to-end and %d per-layer metrics, BENCHMARK.json names %d and %d",
				w.Name, len(got.EndToEnd), len(got.PerLayer), len(man.EndToEnd), len(man.PerLayer))
		}
	}
}

func tailOf(s string, n int) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, "\n")
}
