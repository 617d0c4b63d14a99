package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"flexsp"
	"flexsp/internal/chaos"
	"flexsp/internal/cluster"
	"flexsp/internal/costmodel"
	"flexsp/internal/obs"
	"flexsp/internal/planner"
	simpkg "flexsp/internal/sim"
	"flexsp/internal/solver"
)

// elastic-churn constants. An episode starts from the full, healthy fleet
// with the next batch of a fixed stream drawn from elasticBatchSeed; the
// run's seed drives the topology events. (A batch stream per seed made
// sim_tokens_per_s differ by a seventh from seed to seed.)
//
// A rack of elasticRack nodes slows down and recovers; each event changes
// more than half of the fleet, so both replans are cold fallbacks. Rounds
// of chaos follow, seeded by the run's seed and the episode's index, until
// elasticSteps of them have changed the planning view. The chaos draws
// straggler slowdowns and recoveries only, so its replans are warm
// repairs. Node loss is left out of the chaos on purpose: a lost node
// sometimes leaves a trial micro-batch that does not fit memory, which is
// never cached, so every later warm replan of the episode plans it again
// (about 50-100 ms instead of 1 ms). Whether that happens depends on the
// batch, so with losses the median flipped between the two warm
// populations from seed to seed.
//
// One replan in six is cold: the tail percentile sits inside the cold
// population and the median inside the warm one.
const (
	elasticBatch     = 128
	elasticBatchSeed = 1
	elasticRack      = 5
	elasticSteps     = 10
	// elasticMaxRounds caps the chaos rounds drawn for elasticSteps
	// replans (about 17 are needed on average).
	elasticMaxRounds = 100
	// elasticRackSlowdown derates the rack (a thermal or power event).
	elasticRackSlowdown = 2.0
	// elasticSimEpisodes is how many leading episodes of a pass feed
	// sim_tokens_per_s; a pass always plays at least this many.
	elasticSimEpisodes = 8
)

// elasticChaos is the per-node, per-step fault mix of the chaos rounds.
func elasticChaos(seed int64) chaos.Config {
	return chaos.Config{Seed: seed, Straggle: 0.1, Recover: 0.4}
}

// elasticChurn is live-topology replanning: topology events are applied to
// System.Topology() and, after each one that changes the planning view, the
// batch is replanned with solver.Resolve warm-started from the last
// incumbent on a solver rebuilt for the new fleet. It is the only workload
// through cluster.Elastic, chaos and the repair code in Resolve.
type elasticChurn struct {
	sys  *flexsp.System
	topo *cluster.Elastic
	seed int64
	// inc is the incumbent the next episode starts from: solved on the full
	// fleet during set-up, then each episode's last.
	inc *solver.Incumbent
}

// elasticSolver builds the planning stack for a snapshot's live fleet the
// way the elastic daemon rebuilds it: a placement-aware planner over the
// snapshot's classes and a fresh plan cache.
func elasticSolver(snap cluster.Snapshot) (*solver.Solver, costmodel.HeteroCoeffs) {
	h := costmodel.ProfileMixed(costmodel.GPT7B, snap.Mixed)
	sv := solver.New(planner.NewHetero(h))
	sv.Cache = solver.NewPlanCache(0, 0)
	return sv, h
}

func (w *elasticChurn) setup(seed int64) error {
	sys, err := flexsp.NewSystem(flexsp.Config{Devices: paperDevices, Model: flexsp.GPT7B})
	if err != nil {
		return err
	}
	topo := sys.Topology()
	if topo == nil {
		return fmt.Errorf("system has no elastic topology")
	}
	w.sys, w.topo, w.seed = sys, topo, seed
	batch := flexsp.CommonCrawl().Batch(rand.New(rand.NewSource(elasticBatchSeed^0x5eed)), elasticBatch, paperMaxCtx)
	sv, h := elasticSolver(topo.Snapshot())
	res, inc, err := sv.SolveWarm(context.Background(), batch, nil)
	if err != nil {
		return fmt.Errorf("initial incumbent: %w", err)
	}
	if err := checkPlaced(h, batch, res.Plans); err != nil {
		return fmt.Errorf("initial incumbent: %w", err)
	}
	w.inc = inc
	return nil
}

func (w *elasticChurn) close() {}

// elasticAcc accumulates per-layer observations over a pass.
type elasticAcc struct {
	// latMs is the plan latency population.
	latMs   []float64
	applyUs []float64
	// episodeEvents and episodeCold record each episode's event and cold-
	// replan counts, which the seed alone fixes.
	episodeEvents, episodeCold                []int
	replans, cold, kept, replaced, moved, hit int
	steps, lost, events, episodes             int
	planned                                   int64
}

func (w *elasticChurn) pass(bctx context.Context, d time.Duration) (*passResult, error) {
	res := &passResult{details: map[string]any{}}
	acc := &elasticAcc{}
	rng := rand.New(rand.NewSource(elasticBatchSeed))
	c0, start := cpuTime(), time.Now()
	for acc.episodes < elasticSimEpisodes || time.Since(start) < d {
		batch := flexsp.CommonCrawl().Batch(rng, elasticBatch, paperMaxCtx)
		if err := w.episode(bctx, batch, res, acc); err != nil {
			return nil, err
		}
	}
	elapsed := time.Since(start)
	res.setCPU(c0)
	res.setLatency(acc.latMs)
	res.maxRate = float64(res.plans) / elapsed.Seconds()
	res.details["episodes"] = acc.episodes
	res.details["episode_events"] = acc.episodeEvents
	res.details["episode_cold"] = acc.episodeCold
	res.details["replans"] = acc.replans
	if obs.Enabled(bctx) {
		n := float64(acc.replans)
		res.layers = map[string]float64{
			"solver.planned_per_plan":             ratio(float64(acc.planned), n),
			"cluster.apply_us_p50":                median(acc.applyUs),
			"solver.resolve_cold_ratio":           ratio(float64(acc.cold), n),
			"solver.resolve_kept_ratio":           ratio(float64(acc.kept), float64(acc.kept+acc.replaced)),
			"solver.resolve_moved_per_replan":     ratio(float64(acc.moved), n),
			"solver.resolve_warm_hits_per_replan": ratio(float64(acc.hit), n),
			"chaos.invalidated_ratio":             ratio(float64(acc.lost), float64(acc.steps)),
		}
	}
	return res, nil
}

// episode plays one episode over batch (see elasticRack) and restores the
// full fleet afterwards. The restore is bookkeeping between episodes: no
// plan is due for it, and the next episode's first replan is cold anyway.
// The first elasticSimEpisodes episodes of a pass feed sim_tokens_per_s.
func (w *elasticChurn) episode(bctx context.Context, batch []int, res *passResult, acc *elasticAcc) error {
	ectx, span := obs.Start(bctx, "episode")
	defer span.End()
	prev, inc := w.topo.Snapshot(), w.inc
	sim := acc.episodes < elasticSimEpisodes
	events0, cold0 := acc.events, acc.cold
	// replan applies one round of events and, when the planning view
	// changed, replans; it reports whether a plan was due.
	replan := func(apply func() ([]cluster.Event, error)) bool {
		acc.steps++
		_, aspan := obs.Start(ectx, "cluster.Elastic.Apply")
		t0 := time.Now()
		evs, err := apply()
		acc.applyUs = append(acc.applyUs, float64(time.Since(t0))/float64(time.Microsecond))
		aspan.End()
		if err != nil {
			res.attempted++
			res.fail(fmt.Errorf("applying topology events: %w", err))
			return true
		}
		acc.events += len(evs)
		snap := w.topo.Snapshot()
		if len(evs) == 0 || cluster.SameView(prev, snap) {
			return false
		}
		res.attempted++
		if chaos.Lost(prev, snap, inc.Best().Plans) {
			acc.lost++
		}
		_, rspan := obs.Start(ectx, "solver.Solver.Resolve")
		sv, h := elasticSolver(snap)
		out, next, stats, err := sv.Resolve(context.Background(), batch, inc, prev, snap, solver.ResolveOptions{})
		lat := ms(time.Since(t0))
		rspan.End()
		acc.planned += sv.Metrics().Planned
		if err == nil {
			err = checkPlaced(h, batch, out.Plans)
		}
		var it simpkg.IterResult
		if err == nil {
			it, err = simpkg.ExecuteIterationHetero(h, out.Plans, simpkg.Options{})
		}
		if err != nil {
			res.fail(fmt.Errorf("replan to topology version %d: %w", snap.Version, err))
			// Without a valid plan the old incumbent stays; the next
			// replan repairs it against the newer fleet.
			return true
		}
		acc.latMs = append(acc.latMs, lat)
		res.plans++
		if sim {
			res.simTokens += totalTokens(batch)
			res.simSeconds += it.Time
		}
		acc.replans++
		if stats.Cold {
			acc.cold++
		}
		acc.kept += stats.KeptGroups
		acc.replaced += stats.ReplacedGroups
		acc.moved += stats.MovedSequences
		acc.hit += stats.WarmHits
		prev, inc = snap, next
		return true
	}
	rack := func(factor float64) func() ([]cluster.Event, error) {
		return func() ([]cluster.Event, error) {
			var evs []cluster.Event
			for n := len(prev.Health) - elasticRack; n < len(prev.Health); n++ {
				evs = append(evs, cluster.Event{Kind: cluster.EventStraggle, Node: n, Factor: factor})
			}
			_, err := w.topo.Apply(evs...)
			return evs, err
		}
	}
	replan(rack(elasticRackSlowdown))
	replan(rack(1))
	// Chaos rounds that leave the planning view unchanged are not counted,
	// so every episode replans exactly elasticSteps times after the rack.
	inj := chaos.New(elasticChaos(w.seed*1_000_003 + int64(acc.episodes)))
	for due, rounds := 0, 0; due < elasticSteps && rounds < elasticMaxRounds; rounds++ {
		if replan(func() ([]cluster.Event, error) { return inj.Drive(w.topo) }) {
			due++
		}
	}

	var heal []cluster.Event
	for n, h := range w.topo.Snapshot().Health {
		if h != cluster.Healthy {
			heal = append(heal, cluster.Event{Kind: cluster.EventNodeUp, Node: n})
		}
	}
	if len(heal) > 0 {
		if _, err := w.topo.Apply(heal...); err != nil {
			return fmt.Errorf("restoring the fleet: %w", err)
		}
	}
	w.inc = inc
	acc.episodes++
	acc.episodeEvents = append(acc.episodeEvents, acc.events-events0)
	acc.episodeCold = append(acc.episodeCold, acc.cold-cold0)
	return nil
}
