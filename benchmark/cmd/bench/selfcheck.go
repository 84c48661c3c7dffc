package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// manifest is the part of BENCHMARK.json the self-check needs: each
// end-to-end metric's direction and the bound by which its median may
// worsen before a change counts as a regression.
type manifest struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// selfcheckRuns is the number of runs in each of the self-check's sets.
const selfcheckRuns = 3

// runSelfcheck runs every workload as two sets of runs on the same
// binary and compares the sets' medians per end-to-end metric. Two sets
// of the same code must agree within the benchmark's own bounds, in
// either direction, or the benchmark cannot tell a change from its own
// noise. Run i of set A and run i of set B share a seed, so that the
// difference between the sets is run-to-run noise and not the inputs'.
func runSelfcheck(e *env, selected []*workload, opt options) int {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fatal("%v", err)
	}
	var man manifest
	if err := json.Unmarshal(raw, &man); err != nil {
		fatal("BENCHMARK.json: %v", err)
	}
	exit := 0
	fmt.Println("| workload | metric | set A median | set B median | B worse by | apart | bound | verdict |")
	fmt.Println("|---|---|---|---|---|---|---|---|")
	seed := e.seed
	for _, w := range selected {
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < 2*selfcheckRuns; i++ {
			// Sets alternate, so that drift of the box lands on both.
			e.seed = seed + int64(i/2)
			res, err := runE2E(e, w, opt)
			if err != nil {
				fatal("%s: %v", w.name, err)
			}
			if !res.Correct {
				fmt.Printf("%s seed %d: %d of %d operations failed: %v\n", w.name, e.seed, res.Failed, res.Attempted, res.failures)
				exit = 1
			}
			for n, m := range res.Metrics {
				sets[i%2][n] = append(sets[i%2][n], m.Value)
			}
		}
		for _, m := range man.EndToEnd {
			a, b := median(sets[0][m.Name]), median(sets[1][m.Name])
			worse := (b - a) / a
			if m.Better == "higher" {
				worse = (a - b) / a
			}
			apart := math.Abs(b-a) / math.Min(a, b)
			verdict := "ok"
			if math.IsNaN(apart) || apart > m.Bound {
				verdict, exit = "FAIL", 1
			}
			fmt.Printf("| %s | %s | %.4f | %.4f | %+.1f %% | %.1f %% | %.0f %% | %s |\n",
				w.name, m.Name, a, b, 100*worse, 100*apart, 100*m.Bound, verdict)
		}
	}
	return exit
}
