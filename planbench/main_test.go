package main

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"
)

// TestBenchmarkJSON keeps BENCHMARK.json at the repository root in step
// with the workloads and metric lists this command reports.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricDef             `json:"end_to_end"`
		PerLayer  []metricDef             `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, command has %v", names, workloadNames())
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end differs from the command's list:\n%v\n%v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer differs from the command's list:\n%v\n%v", spec.PerLayer, perLayer)
	}
}

// shortPass sets a workload up with seed and runs one short untimed-length
// pass; every workload still completes the plans its deterministic figures
// need.
func shortPass(t *testing.T, w bench, seed int64) *passResult {
	t.Helper()
	if err := w.setup(seed); err != nil {
		t.Fatal(err)
	}
	defer w.close()
	res, err := w.pass(context.Background(), 500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if res.failed != 0 || res.attempted == 0 {
		t.Fatalf("%d of %d plans failed: %v", res.failed, res.attempted, res.firstErr)
	}
	return res
}

// TestDeterminism checks that the seed alone fixes the inputs: two runs
// with one seed give identical simulated throughput (and, on elastic-churn,
// identical event and cold-replan counts per episode), and another seed
// gives other batches (other topology events on elastic-churn). Train-cold's planner-call count per solve depends on
// timing (in-flight deduplication between concurrent trials), so it is
// logged, not asserted.
func TestDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	for _, name := range []string{"train-cold", "serve-hot", "stream-paced"} {
		t.Run(name, func(t *testing.T) {
			w := workloads[name]()
			a := shortPass(t, w, 7)
			if tc, ok := w.(*trainCold); ok {
				m := tc.sys.Solver.Metrics()
				t.Logf("solver planned %.2f micro-batches per solve (timing-dependent)", ratio(float64(m.Planned), float64(m.Solves)))
			}
			b := shortPass(t, workloads[name](), 7)
			if a.simTokens != b.simTokens || a.simSeconds != b.simSeconds {
				t.Errorf("seed 7 twice: sim %v tokens / %v s, then %v / %v", a.simTokens, a.simSeconds, b.simTokens, b.simSeconds)
			}
			c := shortPass(t, workloads[name](), 8)
			if c.simTokens == a.simTokens {
				t.Errorf("seeds 7 and 8 drew batches of the same total length %v", a.simTokens)
			}
		})
	}
	t.Run("elastic-churn", func(t *testing.T) {
		a := shortPass(t, workloads["elastic-churn"](), 7)
		b := shortPass(t, workloads["elastic-churn"](), 7)
		for _, key := range []string{"episode_events", "episode_cold"} {
			x, y := a.details[key].([]int), b.details[key].([]int)
			n := min(len(x), len(y))
			if n < elasticSimEpisodes || !reflect.DeepEqual(x[:n], y[:n]) {
				t.Errorf("seed 7 twice: %s %v, then %v", key, x, y)
			}
		}
		if a.simTokens != b.simTokens || a.simSeconds != b.simSeconds {
			t.Errorf("seed 7 twice: sim %v tokens / %v s, then %v / %v", a.simTokens, a.simSeconds, b.simTokens, b.simSeconds)
		}
		// Elastic-churn's batches are a fixed stream; the seed drives the
		// topology events.
		c := shortPass(t, workloads["elastic-churn"](), 8)
		if reflect.DeepEqual(c.details["episode_events"], a.details["episode_events"]) {
			t.Errorf("seeds 7 and 8 drew the same events per episode %v", a.details["episode_events"])
		}
	})
}
