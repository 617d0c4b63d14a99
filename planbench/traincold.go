package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"flexsp"
	"flexsp/internal/blaster"
	"flexsp/internal/obs"
	"flexsp/internal/planner"
	"flexsp/internal/sim"
	"flexsp/internal/solver"
)

// The paper's planning shape (§6): GPT-7B on 64 A100-40G GPUs, global
// batches of 512 CommonCrawl sequences up to a 192K context.
const (
	paperDevices = 64
	paperBatch   = 512
	paperMaxCtx  = 192 << 10
)

// trainSimPlans is how many leading plans of a pass feed sim_tokens_per_s.
// A pass always plans at least this many, so the figure depends only on
// the seed, never on how many plans fit in the time. Simulated throughput
// differs from batch to batch by a tenth or more, so the set is large.
const trainSimPlans = 32

// trainCold is the training-loop path: one caller plans a fresh batch with
// System.Plan (strategy flexsp, no plan cache) and executes it, step after
// step. Planner, blaster and cost model do nearly all the work.
type trainCold struct {
	sys  *flexsp.System
	seed int64
}

func (w *trainCold) setup(seed int64) error {
	sys, err := flexsp.NewSystem(flexsp.Config{Devices: paperDevices, Model: flexsp.GPT7B})
	if err != nil {
		return err
	}
	// Communicators are created once at start-up (§5), so simulated
	// iteration times carry no creation cost.
	sys.WarmupGroups()
	// One untimed plan lets the heap and the solver's worker start-up
	// settle; the first plan of a process takes about twice as long.
	warm := flexsp.CommonCrawl().Batch(rand.New(rand.NewSource(seed^0x5eed)), paperBatch, paperMaxCtx)
	if _, err := sys.Plan(context.Background(), warm, flexsp.PlanOptions{Strategy: flexsp.StrategyFlexSP}); err != nil {
		return fmt.Errorf("warm-up plan: %w", err)
	}
	w.sys, w.seed = sys, seed
	return nil
}

func (w *trainCold) close() {}

func (w *trainCold) pass(bctx context.Context, d time.Duration) (*passResult, error) {
	ctx := context.Background()
	traced := obs.Enabled(bctx)
	res := &passResult{details: map[string]any{}}
	// Every pass plans the same batch sequence, drawn from the seed, so a
	// traced pass plans what the untraced pass beside it planned.
	rng := rand.New(rand.NewSource(w.seed))
	planned0 := w.sys.Solver.Metrics().Planned
	var latMs []float64
	var batches [][]int
	var planWall, planCPU, execWall time.Duration
	c0, start := cpuTime(), time.Now()
	for step := 0; step < trainSimPlans || time.Since(start) < d; step++ {
		batch := flexsp.CommonCrawl().Batch(rng, paperBatch, paperMaxCtx)
		res.attempted++

		_, span := obs.Start(bctx, "flexsp.System.Plan")
		pc, t0 := cpuTime(), time.Now()
		plan, err := w.sys.Plan(ctx, batch, flexsp.PlanOptions{Strategy: flexsp.StrategyFlexSP})
		wall := time.Since(t0)
		planCPU += cpuTime() - pc
		planWall += wall
		span.End()
		if err != nil {
			res.fail(fmt.Errorf("step %d: plan: %w", step, err))
			continue
		}
		if err := checkFlat(w.sys.Coeffs, batch, plan.MicroPlans()); err != nil {
			res.fail(fmt.Errorf("step %d: %w", step, err))
			continue
		}
		latMs = append(latMs, ms(wall))
		res.plans++
		batches = append(batches, batch)

		_, span = obs.Start(bctx, "flexsp.Plan.Execute")
		t0 = time.Now()
		exec, err := plan.Execute(ctx)
		execWall += time.Since(t0)
		span.End()
		if err == nil && exec.OOM {
			err = sim.ErrOOM
		}
		if err != nil {
			res.fail(fmt.Errorf("step %d: execute: %w", step, err))
			continue
		}
		if step < trainSimPlans {
			res.simTokens += totalTokens(batch)
			res.simSeconds += exec.Time
		}
	}
	elapsed := time.Since(start)
	res.setCPU(c0)
	res.setLatency(latMs)
	// A closed loop has no offered rate: its capacity is the rate one
	// caller sustains, plans in hand per second of the timed phase.
	res.maxRate = float64(res.plans) / elapsed.Seconds()
	if !traced || len(batches) == 0 {
		return res, nil
	}
	// The sequential replay follows the timed loop, so the plans whose
	// latency the traced pass reports ran in the same conditions as the
	// untraced pass's. It replays the pass's batches in order for about d,
	// and at least one. The first sequential solve after the parallel loop
	// runs slower than the ones that follow it; an untimed solve absorbs
	// that, so the replay's first segment is not charged for it.
	warm := *w.sys.Planner
	if _, err := solveWhole(context.Background(), &warm, w.sys.Solver.Trials, batches[0], &layerAcc{}); err != nil {
		res.fail(fmt.Errorf("replay warm-up: %w", err))
	}
	lay := &layerAcc{}
	rstart := time.Now()
	for i := 0; i < len(batches) && (i == 0 || time.Since(rstart) < d); i++ {
		if err := w.replay(bctx, batches[i], lay); err != nil {
			res.fail(fmt.Errorf("step %d: replay: %w", i, err))
		}
	}
	plans := float64(res.plans)
	res.layers = lay.finish()
	res.layers["solver.planned_per_plan"] = ratio(float64(w.sys.Solver.Metrics().Planned-planned0), plans)
	res.layers["solver.parallelism"] = ratio(planCPU.Seconds(), planWall.Seconds())
	res.layers["sim.ms_per_exec"] = ratio(ms(execWall), plans)
	res.details["replay"] = lay.details()
	return res, nil
}

// layerAcc accumulates the sequential replay of Alg. 1.
type layerAcc struct {
	// wholes and parts count sequential solves timed as a whole and as
	// their parts; steps counts replayed batches.
	wholes, parts, steps         int
	seqSolve, blast, plan, price time.Duration
	sig                          time.Duration
	seqSolveCPU, partsCPU        time.Duration
	simWall                      time.Duration
	planCalls, groups, unique    int
}

// replay re-plans batch on fresh sequential solvers, in the order whole,
// parts, parts, whole (reversed on every other batch), so drift in host
// speed cancels.
// "Whole" is one Solver.SolveContext; "parts" are the public calls Alg. 1
// makes — blaster.MinMicroBatches, blaster.Blast per trial,
// solver.Signature and Planner.PlanContext per micro-batch, group pricing
// of the chosen plan — each in its own span. The parts should add up to the whole;
// trace.replay_gap_pct reports how closely they do. The chosen plan then
// runs through the simulator once.
func (w *trainCold) replay(bctx context.Context, batch []int, acc *layerAcc) error {
	rctx, rspan := obs.Start(bctx, "replay")
	defer rspan.End()
	pl := *w.sys.Planner
	trials := w.sys.Solver.Trials
	var want solver.Result
	var best []planner.MicroPlan
	var bestTime float64
	order := []bool{true, false, false, true}
	if acc.steps%2 == 1 {
		order = []bool{false, true, true, false}
	}
	countUnique := true
	for _, whole := range order {
		// Each segment starts from a collected heap, so none pays for the
		// garbage of the plan or segment before it.
		runtime.GC()
		var err error
		if whole {
			want, err = solveWhole(rctx, &pl, trials, batch, acc)
		} else {
			bestTime, best, err = solveParts(rctx, &pl, trials, batch, acc, countUnique)
			countUnique = false
		}
		if err != nil {
			return err
		}
	}
	if len(best) != len(want.Plans) || math.Abs(bestTime-want.Time) > 1e-9*math.Max(1, want.Time) {
		return fmt.Errorf("replay chose M=%d (%.6gs), the solver M=%d (%.6gs)", len(best), bestTime, want.M, want.Time)
	}
	_, span := obs.Start(rctx, "sim.ExecuteIteration")
	t0 := time.Now()
	_, err := sim.ExecuteIteration(pl.Coeffs, best, sim.Options{})
	acc.simWall += time.Since(t0)
	span.End()
	acc.steps++
	return err
}

func solveWhole(rctx context.Context, pl *planner.Planner, trials int, batch []int, acc *layerAcc) (solver.Result, error) {
	sv := solver.New(pl)
	sv.Parallel = false
	sv.Trials = trials
	_, span := obs.Start(rctx, "solver.Solver.SolveContext")
	defer span.End()
	c0, t0 := cpuTime(), time.Now()
	res, err := sv.SolveContext(context.Background(), batch)
	acc.seqSolve += time.Since(t0)
	acc.seqSolveCPU += cpuTime() - c0
	acc.wholes++
	if err != nil {
		return res, fmt.Errorf("sequential solve: %w", err)
	}
	return res, nil
}

// solveParts is Alg. 1 spelled out in public calls, sequentially, with the
// solver's trial window, tie-breaking and widening fallback. countUnique
// adds the batch's distinct micro-batch signatures to the accumulator.
func solveParts(rctx context.Context, pl *planner.Planner, trials int, batch []int, acc *layerAcc, countUnique bool) (float64, []planner.MicroPlan, error) {
	ctx := context.Background()
	timed := func(name string, d *time.Duration, f func()) {
		_, span := obs.Start(rctx, name)
		c, t := cpuTime(), time.Now()
		f()
		*d += time.Since(t)
		acc.partsCPU += cpuTime() - c
		span.End()
	}
	var mmin int
	timed("blaster.MinMicroBatches", &acc.blast, func() { mmin = blaster.MinMicroBatches(batch, pl.TokenCapacity()) })
	unique := map[uint64]bool{}
	runTrial := func(m int) (float64, []planner.MicroPlan, error) {
		var micro [][]int
		var err error
		timed("blaster.Blast", &acc.blast, func() { micro, err = blaster.Blast(batch, m) })
		if err != nil {
			return 0, nil, err
		}
		plans := make([]planner.MicroPlan, len(micro))
		total := 0.0
		for i, mb := range micro {
			// The solver keys each micro-batch by its signature before
			// planning it (in-flight deduplication).
			var key uint64
			timed("solver.Signature", &acc.sig, func() { _, key = solver.Signature(mb) })
			if countUnique {
				unique[key] = true
			}
			timed("planner.Planner.PlanContext", &acc.plan, func() { plans[i], err = pl.PlanContext(ctx, mb) })
			acc.planCalls++
			if err != nil {
				return 0, nil, err
			}
			total += plans[i].Time
		}
		return total, plans, nil
	}
	bestTime, best := math.Inf(1), []planner.MicroPlan(nil)
	for m := mmin; m < mmin+trials && m <= len(batch); m++ {
		if t, plans, err := runTrial(m); err == nil && t < bestTime {
			bestTime, best = t, plans
		}
	}
	// Alg. 1's widening fallback when no trial in the window is feasible.
	for m := mmin + trials; best == nil && m <= len(batch); m += trials {
		if t, plans, err := runTrial(m); err == nil {
			bestTime, best = t, plans
		}
	}
	acc.unique += len(unique)
	acc.parts++
	if best == nil {
		return 0, nil, fmt.Errorf("replay found no feasible plan")
	}
	timed("costmodel.Coeffs.GroupTime", &acc.price, func() {
		for _, mp := range best {
			for _, g := range mp.Groups {
				if len(g.Lens) > 0 {
					_ = pl.Coeffs.GroupTime(g.Lens, g.Degree)
					acc.groups++
				}
			}
		}
	})
	return bestTime, best, nil
}

func (a *layerAcc) finish() map[string]float64 {
	parts := float64(a.parts)
	partsWall := ms(a.blast+a.sig+a.plan+a.price) / parts
	wholeWall := ratio(ms(a.seqSolve), float64(a.wholes))
	return map[string]float64{
		"solver.unique_micro_per_plan": ratio(float64(a.unique), float64(a.steps)),
		"blaster.ms_per_plan":          ratio(ms(a.blast), parts),
		"planner.ms_per_plan":          ratio(ms(a.plan), parts),
		"planner.calls_per_plan":       ratio(float64(a.planCalls), parts),
		"costmodel.us_per_group":       ratio(float64(a.price)/float64(time.Microsecond), float64(a.groups)),
		"solver.self_ms_per_plan":      wholeWall - ratio(ms(a.blast+a.plan), parts),
		"trace.replay_gap_pct":         100 * ratio(partsWall-wholeWall, wholeWall),
	}
}

func (a *layerAcc) details() map[string]any {
	return map[string]any{
		"steps":              a.steps,
		"whole_ms_per_solve": ratio(ms(a.seqSolve), float64(a.wholes)),
		"parts_ms_per_solve": ratio(ms(a.blast+a.sig+a.plan+a.price), float64(a.parts)),
		"signature_ms":       ratio(ms(a.sig), float64(a.parts)),
		"cpu_gap_pct":        100 * ratio(ms(a.partsCPU)/float64(a.parts)-ms(a.seqSolveCPU)/float64(a.wholes), ms(a.seqSolveCPU)/float64(a.wholes)),
		"sim_ms_per_exec":    ratio(ms(a.simWall), float64(a.steps)),
		"priced_groups":      a.groups,
	}
}
