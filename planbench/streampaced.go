package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"flexsp"
	"flexsp/internal/obs"
	"flexsp/internal/sim"
	"flexsp/internal/workload"
)

// stream-paced constants: the arrival schedule is fixed here, never paced
// by a latency measured in the run.
const (
	// streamBatch RLHF-rollout sequences arrive in streamChunks appends,
	// streamGap apart; Close follows the last append at once.
	streamBatch  = 256
	streamChunks = 16
	streamGap    = 40 * time.Millisecond
	// streamSimSessions is how many leading sessions of a pass feed
	// sim_tokens_per_s; a pass always runs at least this many.
	streamSimSessions = 24
)

// streamPaced is the streaming path: sessions opened with System.PlanStream
// and an Expect hint, RLHF-rollout batches appended on a fixed schedule in
// seeded arrival order, and Close returning the plan. Speculative solves
// and warm-store writes do the work; a latency gain here can cost CPU.
type streamPaced struct {
	sys *flexsp.System
	rng *rand.Rand
}

func (w *streamPaced) setup(seed int64) error {
	sys, err := flexsp.NewSystem(flexsp.Config{Devices: paperDevices, Model: flexsp.GPT7B})
	if err != nil {
		return err
	}
	sys.WarmupGroups()
	w.sys = sys
	// One untimed session lets the heap and the solver's workers settle.
	warm := &streamPaced{sys: sys, rng: rand.New(rand.NewSource(seed ^ 0x5eed))}
	if _, err := warm.session(context.Background(), 0, &passResult{details: map[string]any{}}, &streamAcc{}); err != nil {
		return fmt.Errorf("warm-up session: %w", err)
	}
	w.rng = rand.New(rand.NewSource(seed))
	return nil
}

func (w *streamPaced) close() {}

// streamAcc accumulates per-layer observations over a pass.
type streamAcc struct {
	appendUs, lagMs                        []float64
	reused, warmHits, specs, supers, skips int64
}

func (w *streamPaced) pass(bctx context.Context, d time.Duration) (*passResult, error) {
	res := &passResult{details: map[string]any{}}
	acc := &streamAcc{}
	// Each pass draws its own batches from the seed.
	pw := &streamPaced{sys: w.sys, rng: rand.New(rand.NewSource(w.rng.Int63()))}
	planned0 := w.sys.Solver.Metrics().Planned
	var latMs []float64
	c0, start := cpuTime(), time.Now()
	for i := 0; i < streamSimSessions || time.Since(start) < d; i++ {
		lat, err := pw.session(bctx, i, res, acc)
		res.attempted++
		if err != nil {
			res.fail(fmt.Errorf("session %d: %w", i, err))
			continue
		}
		latMs = append(latMs, lat)
		res.plans++
	}
	elapsed := time.Since(start)
	res.setCPU(c0)
	res.setLatency(latMs)
	res.maxRate = float64(res.plans) / elapsed.Seconds()
	res.details["gen_lag_p50_ms"] = median(acc.lagMs)
	res.details["gen_lag_max_ms"] = maxOf(acc.lagMs)
	if obs.Enabled(bctx) {
		n := float64(res.plans)
		res.layers = map[string]float64{
			"solver.planned_per_plan":             ratio(float64(w.sys.Solver.Metrics().Planned-planned0), n),
			"facade.append_us_p50":                median(acc.appendUs),
			"solver.stream_reuse_ratio":           ratio(float64(acc.reused), n),
			"solver.stream_warm_hits_per_plan":    ratio(float64(acc.warmHits), n),
			"solver.stream_speculations_per_plan": ratio(float64(acc.specs), n),
			"solver.stream_superseded_ratio":      ratio(float64(acc.supers), float64(acc.specs)),
			"solver.stream_skipped_per_plan":      ratio(float64(acc.skips), n),
			"gen.lag_p50_ms":                      median(acc.lagMs),
			"gen.lag_max_ms":                      maxOf(acc.lagMs),
		}
	}
	return res, nil
}

// session streams one fresh batch and returns the close-to-plan latency in
// milliseconds. The plan is validated and, for the first streamSimSessions
// sessions of a pass, executed for sim_tokens_per_s.
func (w *streamPaced) session(bctx context.Context, i int, res *passResult, acc *streamAcc) (float64, error) {
	batch := workload.Arrival(workload.RLHFRollout().Batch(w.rng, streamBatch, paperMaxCtx), workload.OrderShuffled, w.rng)
	sctx, span := obs.Start(bctx, "session")
	defer span.End()
	sp, err := w.sys.PlanStream(flexsp.StreamOptions{Expect: len(batch)})
	if err != nil {
		return 0, err
	}
	defer sp.Cancel()
	chunk := (len(batch) + streamChunks - 1) / streamChunks
	start := time.Now()
	for k := 0; k*chunk < len(batch); k++ {
		due := start.Add(time.Duration(k) * streamGap)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		acc.lagMs = append(acc.lagMs, ms(time.Since(due)))
		part := batch[k*chunk : min(len(batch), (k+1)*chunk)]
		_, aspan := obs.Start(sctx, "flexsp.StreamPlanner.Append")
		t0 := time.Now()
		_, err := sp.Append(part...)
		acc.appendUs = append(acc.appendUs, float64(time.Since(t0))/float64(time.Microsecond))
		aspan.End()
		if err != nil {
			return 0, fmt.Errorf("append: %w", err)
		}
	}
	_, cspan := obs.Start(sctx, "flexsp.StreamPlanner.Close")
	t0 := time.Now()
	plan, err := sp.Close(context.Background())
	lat := ms(time.Since(t0))
	cspan.End()
	if err != nil {
		return 0, fmt.Errorf("close: %w", err)
	}
	st := sp.Stats()
	if st.Reused {
		acc.reused++
	}
	acc.warmHits += st.WarmHits
	acc.specs += st.Speculations
	acc.supers += st.Superseded
	acc.skips += st.Skipped
	if err := checkFlat(w.sys.Coeffs, batch, plan.MicroPlans()); err != nil {
		return 0, err
	}
	if i < streamSimSessions {
		_, espan := obs.Start(sctx, "flexsp.Plan.Execute")
		exec, err := plan.Execute(context.Background())
		espan.End()
		if err == nil && exec.OOM {
			err = sim.ErrOOM
		}
		if err != nil {
			return 0, fmt.Errorf("execute: %w", err)
		}
		res.simTokens += totalTokens(batch)
		res.simSeconds += exec.Time
	}
	return lat, nil
}
