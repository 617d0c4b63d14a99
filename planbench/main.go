// Command planbench is the repository's planning benchmark. It drives the
// FlexSP planner through four workloads — a cold training loop, a hot
// planning daemon under an open-loop rate ladder, paced streaming sessions
// and an elastic fleet under fault injection — validates every plan it
// receives, and prints one JSON result line. See README.md for the metrics,
// the workloads and the layer map.
//
// Usage (from the repository root; run.py builds and runs this command):
//
//	planbench -workload train-cold -seed 1 -seconds 20 -trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"flexsp/internal/obs"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// bench is one named workload: a value is set up once, runs
// one or more timed passes, and is closed.
type bench interface {
	// setup builds everything the timed phase needs, from the seed alone.
	setup(seed int64) error
	// pass runs the timed phase for about d. bctx carries the benchmark's
	// trace when the pass is traced; program calls never receive it, so
	// only the benchmark's own spans are recorded.
	pass(bctx context.Context, d time.Duration) (*passResult, error)
	close()
}

// passResult is what one timed pass measured. Each workload's pass fills
// in its end-to-end figures itself.
type passResult struct {
	// attempted counts plans asked for; failed those that errored, were
	// refused, or failed validation.
	attempted, failed int
	// plans is the number of plans in hand.
	plans int
	// p50Ms and tailMs are plan_p50_ms and plan_tail_ms (due → valid plan
	// in hand); cpuMsPerPlan is cpu_ms_per_plan.
	p50Ms, tailMs, cpuMsPerPlan float64
	// simTokens / simSeconds is the simulated training throughput of the
	// plans received.
	simTokens, simSeconds float64
	// maxRate is max_rate_rps (see README.md for its meaning per workload).
	maxRate float64
	// layers holds the per-layer metrics a traced pass measured.
	layers map[string]float64
	// details are extra facts printed on the details line.
	details map[string]any
	// firstErr is the first failure, for the error report.
	firstErr error
}

func (p *passResult) fail(err error) {
	p.failed++
	if p.firstErr == nil {
		p.firstErr = err
	}
}

// setLatency sets plan_p50_ms and plan_tail_ms from a pass's latency
// population, and records on the details line which percentile the tail is.
func (p *passResult) setLatency(latMs []float64) {
	var pct float64
	p.p50Ms = median(latMs)
	p.tailMs, pct = tail(latMs)
	p.details["plan_tail"] = map[string]any{"percentile": pct, "samples": len(latMs), "beyond": min(tailBeyond, len(latMs))}
}

// setCPU sets cpu_ms_per_plan from the process CPU time spent since c0.
func (p *passResult) setCPU(c0 time.Duration) {
	p.cpuMsPerPlan = ratio(ms(cpuTime()-c0), float64(p.plans))
}

var workloads = map[string]func() bench{
	"train-cold":    func() bench { return &trainCold{} },
	"serve-hot":     func() bench { return &serveHot{} },
	"stream-paced":  func() bench { return &streamPaced{} },
	"elastic-churn": func() bench { return &elasticChurn{} },
}

// metricDef names one reported metric. The lists below are mirrored by
// BENCHMARK.json at the repository root (a test keeps them in step).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

var endToEnd = []metricDef{
	{"plan_p50_ms", "ms", "lower", 0.25},
	{"plan_tail_ms", "ms", "lower", 0.25},
	{"max_rate_rps", "1/s", "higher", 0.25},
	{"sim_tokens_per_s", "tokens/s", "higher", 0.2},
	{"cpu_ms_per_plan", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.2},
	{"setup_s", "s", "lower", 0.25},
}

var perLayer = []metricDef{
	{"solver.planned_per_plan", "count", "lower", 0},
	{"solver.unique_micro_per_plan", "count", "lower", 0},
	{"solver.parallelism", "cores", "higher", 0},
	{"blaster.ms_per_plan", "ms", "lower", 0},
	{"planner.ms_per_plan", "ms", "lower", 0},
	{"planner.calls_per_plan", "count", "lower", 0},
	{"costmodel.us_per_group", "us", "lower", 0},
	{"solver.self_ms_per_plan", "ms", "lower", 0},
	{"trace.replay_gap_pct", "%", "lower", 0},
	{"sim.ms_per_exec", "ms", "lower", 0},
	{"server.latency_p50_ms", "ms", "lower", 0},
	{"server.transport_ms_p50", "ms", "lower", 0},
	{"server.coalesced_ratio", "ratio", "higher", 0},
	{"server.solves_per_request", "count", "lower", 0},
	{"server.solve_ms_p50", "ms", "lower", 0},
	{"server.rejected_ratio", "ratio", "lower", 0},
	{"solver.cache_hit_ratio", "ratio", "higher", 0},
	{"solver.planned", "count", "lower", 0},
	{"gen.lag_p50_ms", "ms", "lower", 0},
	{"gen.lag_max_ms", "ms", "lower", 0},
	{"facade.append_us_p50", "us", "lower", 0},
	{"solver.stream_reuse_ratio", "ratio", "higher", 0},
	{"solver.stream_warm_hits_per_plan", "count", "higher", 0},
	{"solver.stream_speculations_per_plan", "count", "lower", 0},
	{"solver.stream_superseded_ratio", "ratio", "lower", 0},
	{"solver.stream_skipped_per_plan", "count", "higher", 0},
	{"cluster.apply_us_p50", "us", "lower", 0},
	{"solver.resolve_cold_ratio", "ratio", "lower", 0},
	{"solver.resolve_kept_ratio", "ratio", "higher", 0},
	{"solver.resolve_moved_per_replan", "count", "lower", 0},
	{"solver.resolve_warm_hits_per_replan", "count", "higher", 0},
	{"chaos.invalidated_ratio", "ratio", "lower", 0},
	{"env.ref_ms", "ms", "lower", 0},
	{"env.parallelism", "cores", "higher", 0},
	{"trace.overhead_pct", "%", "lower", 0},
}

// setupRepeats is how many times an untraced run sets its workload up;
// setup_s is the median, and the last set-up serves the timed phase.
const setupRepeats = 3

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("planbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: train-cold, serve-hot, stream-paced or elastic-churn")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 20, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	root := fs.String("root", ".", "repository checkout (environment stamp, trace output under .bench_build/)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	mk, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "planbench: need -workload (one of %v), -seconds > 0 and -trace 0|1\n", workloadNames())
		return 2
	}
	d := time.Duration(*seconds * float64(time.Second))

	env := stampEnv(*root)
	emit(stdout, map[string]any{"env": env})

	var res *passResult
	out := output{Metrics: map[string]metricValue{}}
	var err error
	if *trace == 0 {
		res, err = measure(mk, *seed, d, out.Metrics)
	} else {
		res, err = traced(mk, *seed, d, *name, *root, env, out.Metrics)
	}
	if err != nil {
		fmt.Fprintf(stderr, "planbench: %s: %v\n", *name, err)
		return 1
	}
	out.Attempted, out.Failed = res.attempted, res.failed
	out.Correct = res.failed == 0 && res.attempted > 0
	res.details["workload"] = *name
	res.details["seed"] = *seed
	res.details["failed_ratio"] = ratio(float64(res.failed), float64(res.attempted))
	emit(stdout, map[string]any{"details": res.details})
	emit(stdout, out)
	if !out.Correct {
		if res.firstErr != nil {
			fmt.Fprintf(stderr, "planbench: %s: %d of %d plans failed; first: %v\n", *name, res.failed, res.attempted, res.firstErr)
		} else {
			fmt.Fprintf(stderr, "planbench: %s: no plans attempted\n", *name)
		}
		return 1
	}
	return 0
}

// measure is the untraced run: set up setupRepeats times, then one timed
// pass over d on the last set-up.
func measure(mk func() bench, seed int64, d time.Duration, m map[string]metricValue) (*passResult, error) {
	var w bench
	setups := make([]float64, setupRepeats)
	for i := range setups {
		if w != nil {
			w.close()
		}
		w = mk()
		t := time.Now()
		if err := w.setup(seed); err != nil {
			w.close()
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups[i] = time.Since(t).Seconds()
	}
	defer w.close()
	setupRSS := peakRSSMB()

	res, err := gatedPass(context.Background(), w, d)
	if err != nil {
		return nil, err
	}
	res.details["peak_rss_mb_setup"] = setupRSS
	put := func(name string, v float64) { m[name] = metricValue{v, unitOf(endToEnd, name)} }
	put("plan_p50_ms", res.p50Ms)
	put("plan_tail_ms", res.tailMs)
	put("max_rate_rps", res.maxRate)
	put("sim_tokens_per_s", ratio(res.simTokens, res.simSeconds))
	put("cpu_ms_per_plan", res.cpuMsPerPlan)
	put("peak_rss_mb", peakRSSMB())
	put("setup_s", median(setups))
	res.details["setup_s_each"] = setups
	return res, nil
}

// traced is the per-layer run: one set-up, an untraced pass and a traced
// pass of d/2 each. The traced pass gives the per-layer metrics; the two
// passes' plan_p50 give the tracing overhead. The benchmark's spans are
// written as a Chrome trace under <root>/.bench_build/traces/.
func traced(mk func() bench, seed int64, d time.Duration, name, root string, env envStamp, m map[string]metricValue) (*passResult, error) {
	w := mk()
	if err := w.setup(seed); err != nil {
		w.close()
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer w.close()
	plain, err := gatedPass(context.Background(), w, d/2)
	if err != nil {
		return nil, err
	}
	tctx, tr := obs.NewTrace(context.Background(), "planbench."+name)
	res, err := gatedPass(tctx, w, d/2)
	tr.End()
	if err != nil {
		return nil, err
	}
	res.attempted += plain.attempted
	res.failed += plain.failed
	if res.firstErr == nil {
		res.firstErr = plain.firstErr
	}

	layers := res.layers
	if layers == nil {
		layers = map[string]float64{}
	}
	layers["env.ref_ms"] = env.RefMs
	layers["env.parallelism"] = env.Parallelism
	layers["trace.overhead_pct"] = 100 * ratio(res.p50Ms-plain.p50Ms, plain.p50Ms)
	for _, def := range perLayer {
		// A layer the workload never reaches did no work: it reports 0.
		m[def.Name] = metricValue{layers[def.Name], def.Unit}
	}
	for k := range layers {
		if _, ok := m[k]; !ok {
			return nil, fmt.Errorf("per-layer metric %q is not declared", k)
		}
	}

	path := filepath.Join(root, ".bench_build", "traces", fmt.Sprintf("%s-seed%d.json", name, seed))
	if err := writeTrace(path, tr); err != nil {
		return nil, err
	}
	res.details["trace_file"] = path
	res.details["plan_p50_ms_untraced"] = plain.p50Ms
	res.details["plan_p50_ms_traced"] = res.p50Ms
	return res, nil
}

// gatedPass collects garbage, waits at the host gate (see awaitHost) and
// runs one timed pass, recording the gate's reading on the details line.
func gatedPass(bctx context.Context, w bench, d time.Duration) (*passResult, error) {
	runtime.GC()
	host := awaitHost()
	res, err := w.pass(bctx, d)
	if err != nil {
		return nil, err
	}
	_, host.ParallelismAfter = probeHost()
	res.details["host"] = host
	return res, nil
}

func writeTrace(path string, tr *obs.Trace) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	if err := tr.WriteChrome(f); err != nil {
		f.Close()
		return fmt.Errorf("trace output: %w", err)
	}
	return f.Close()
}

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.Name == name {
			return d.Unit
		}
	}
	panic("planbench: undeclared metric " + name)
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func emit(w io.Writer, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("planbench: encoding output: %v", err))
	}
	fmt.Fprintln(w, string(b))
}
