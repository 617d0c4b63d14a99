package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"flexsp"
	"flexsp/internal/obs"
	"flexsp/internal/planner"
	"flexsp/internal/server"
)

// serve-hot constants. Every rate and duration is fixed here or by the
// -seconds argument, never by a timing measured in the run.
const (
	// servePool recurring 128-sequence batches, drawn once from
	// servePoolSeed, are warmed into the daemon's plan cache during set-up;
	// the run's seed draws the timed phase's requests from them. The pool is
	// fixed so every seed sees the same mix: batches whose trial window
	// holds an infeasible micro-batch are planned again on every request
	// (it is never cached), and a pool drawn per seed made that slow share,
	// and with it the tail and the capacity, differ from seed to seed.
	servePool     = 24
	servePoolSeed = 1
	serveBatch    = 128
	// serveLimitMs is the latency limit on plan_tail_ms a rung must meet.
	serveLimitMs = 25.0
	// The reference phase offers serveRefRate for serveRefShare of the
	// timed phase, in serveRefWindows equal windows of about 100 requests.
	// plan_p50_ms and plan_tail_ms are the medians of the windows' p50 and
	// tail (p90 at 100 samples); over the whole phase the tail would be the
	// 11th slowest of 600 requests, and the pool's one re-planning batch
	// alone (about 25 requests) made that figure swing by a third between
	// runs. cpu_ms_per_plan and sim_tokens_per_s come from the same phase.
	serveRefRate    = 100.0
	serveRefShare   = 0.3
	serveRefWindows = 6
	// The ladder climbs geometrically from serveLadderLo by serveLadderStep
	// per rung up to serveLadderHi, well past the point where a two-
	// connection closed loop saturates the daemon on a 2-vCPU host (about
	// 450-500 plans/s). It stops after serveLadderMisses consecutive rungs
	// miss the limit, so one stalled rung does not end it.
	serveLadderLo     = 200.0
	serveLadderHi     = 2000.0
	serveLadderStep   = 1.06
	serveLadderMisses = 2
	// Each rung lasts 1/serveRungsPerRun of the ladder's share of the timed
	// phase: long enough for a steady tail, and a ladder that stops near
	// the knee (16 rungs reach about 480 plans/s) ends close to -seconds.
	serveRungsPerRun = 16
)

// serveLadder is the fixed offered-rate ladder in plans/s.
func serveLadder() []float64 {
	var rates []float64
	for r := serveLadderLo; r <= serveLadderHi; r *= serveLadderStep {
		rates = append(rates, r)
	}
	return rates
}

// serveConns is the open loop's connection count: two, or fewer on a
// one-CPU host.
func serveConns() int { return min(2, runtime.NumCPU()) }

// serveHot is the planning daemon under open-loop load: an in-process
// System.NewServer daemon with default settings on a loopback listener,
// called through flexsp.Client.Plan with batches drawn from a fixed pool
// whose plans are already cached. Decode, admission, the batch window,
// coalescing, plan-cache reads and encode do the work; planning does almost
// none.
type serveHot struct {
	sys    *flexsp.System
	srv    *server.Server
	hs     *http.Server
	served chan struct{}
	tr     *http.Transport
	client *flexsp.Client
	base   string
	pool   [][]int
	rng    *rand.Rand
}

func (w *serveHot) setup(seed int64) error {
	sys, err := flexsp.NewSystem(flexsp.Config{Devices: paperDevices, Model: flexsp.GPT7B})
	if err != nil {
		return err
	}
	sys.WarmupGroups()
	srv, err := sys.NewServer()
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return err
	}
	w.sys, w.srv = sys, srv
	w.hs = &http.Server{Handler: srv}
	w.served = make(chan struct{})
	go func() {
		defer close(w.served)
		_ = w.hs.Serve(ln) // returns http.ErrServerClosed once close shuts it down
	}()
	conns := serveConns()
	w.tr = &http.Transport{MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns}
	w.base = "http://" + ln.Addr().String()
	w.client = flexsp.NewClient(w.base)
	w.client.HTTPClient = &http.Client{Transport: w.tr}

	w.rng = rand.New(rand.NewSource(seed))
	poolRng := rand.New(rand.NewSource(servePoolSeed))
	w.pool = make([][]int, servePool)
	for i := range w.pool {
		w.pool[i] = flexsp.CommonCrawl().Batch(poolRng, serveBatch, paperMaxCtx)
		env, err := w.client.Plan(context.Background(), flexsp.PlanRequest{Lengths: w.pool[i]})
		if err != nil {
			return fmt.Errorf("warming pool batch %d: %w", i, err)
		}
		if err := w.checkEnvelope(w.pool[i], env); err != nil {
			return fmt.Errorf("warming pool batch %d: %w", i, err)
		}
	}
	return nil
}

func (w *serveHot) close() {
	if w.hs != nil {
		w.srv.Drain()
		w.hs.Close()
		<-w.served
		w.srv.Close()
		w.tr.CloseIdleConnections()
	}
}

// checkEnvelope validates a decoded /v2/plan envelope against the request's
// lengths.
func (w *serveHot) checkEnvelope(lens []int, env server.PlanEnvelope) error {
	if env.Version != server.WireVersion || env.Strategy != flexsp.StrategyFlexSP || env.Flat == nil {
		return fmt.Errorf("envelope version %d strategy %q flat=%v, want version %d flexsp flat", env.Version, env.Strategy, env.Flat != nil, server.WireVersion)
	}
	return checkFlat(w.sys.Coeffs, lens, env.Plans())
}

// shot is one scheduled request's outcome.
type shot struct {
	latMs, lagMs, solveMs, rttMs float64
	err                          error
}

// rung is one fixed-rate stretch of the open loop.
type rung struct {
	rate  float64
	shots []shot
	// asked counts the rung's answered requests per pool batch.
	asked []int
	// achieved is completions per second from the rung's start to its
	// last completion.
	achieved float64
}

func (r rung) lat() []float64 {
	var xs []float64
	for _, s := range r.shots {
		if s.err == nil {
			xs = append(xs, s.latMs)
		}
	}
	return xs
}

// passed reports whether the rung met the latency limit with no failures
// and no growing backlog: the median lateness with which the generator sent
// the last tenth of the rung's requests is within the limit. (Latency is
// timed from the due time, so a backlog also shows in the tail.)
func (r rung) passed() bool {
	for _, s := range r.shots {
		if s.err != nil {
			return false
		}
	}
	t, _ := tail(r.lat())
	var endLag []float64
	for _, s := range r.shots[len(r.shots)-max(1, len(r.shots)/10):] {
		endLag = append(endLag, s.lagMs)
	}
	return t <= serveLimitMs && median(endLag) <= serveLimitMs
}

func (w *serveHot) pass(bctx context.Context, d time.Duration) (*passResult, error) {
	traced := obs.Enabled(bctx)
	res := &passResult{details: map[string]any{}}
	draw := rand.New(rand.NewSource(w.rng.Int63()))
	received := make([][]planner.MicroPlan, len(w.pool))
	var recvMu sync.Mutex

	var before []obs.PromFamily
	if traced {
		var err error
		if before, err = w.scrape(); err != nil {
			return nil, err
		}
	}

	ladder := serveLadder()
	refDur := time.Duration(serveRefShare * float64(d))
	rungDur := (d - refDur) / serveRungsPerRun
	run := func(rate float64, dur time.Duration) rung {
		sctx, span := obs.Start(bctx, "rung")
		span.SetAttr("rate", rate)
		defer span.End()
		r := w.runRung(sctx, rate, dur, draw, received, &recvMu)
		for _, s := range r.shots {
			res.attempted++
			if s.err != nil {
				res.fail(s.err)
			} else {
				res.plans++
			}
		}
		return r
	}

	var rungs []rung
	var winP50, winTail []float64
	asked := make([]int, len(w.pool))
	c0 := cpuTime()
	for i := 0; i < serveRefWindows; i++ {
		r := run(serveRefRate, refDur/serveRefWindows)
		rungs = append(rungs, r)
		lat := r.lat()
		t, pct := tail(lat)
		winP50, winTail = append(winP50, median(lat)), append(winTail, t)
		res.details["plan_tail"] = map[string]any{"percentile": pct, "samples": len(lat), "beyond": tailBeyond, "windows": serveRefWindows, "statistic": "median over windows"}
		for j, n := range r.asked {
			asked[j] += n
		}
	}
	res.setCPU(c0)
	res.p50Ms, res.tailMs = median(winP50), median(winTail)
	// If no ladder rung meets the limit, the reference rate is the highest
	// rate served.
	res.maxRate = rungs[0].achieved
	top, missed := serveRefRate, 0
	for _, rate := range ladder {
		r := run(rate, rungDur)
		rungs = append(rungs, r)
		if !r.passed() {
			if missed++; missed == serveLadderMisses {
				break
			}
			continue
		}
		missed = 0
		res.maxRate, top = r.achieved, rate
	}
	var shots []shot
	var rungLog []map[string]any
	for _, r := range rungs {
		shots = append(shots, r.shots...)
		t, pct := tail(r.lat())
		rungLog = append(rungLog, map[string]any{"rate": r.rate, "achieved": r.achieved, "p50_ms": median(r.lat()), "tail_ms": t, "tail_pct": pct, "passed": r.passed()})
	}
	res.details["rungs"] = rungLog
	res.details["max_rate_rung"] = top
	res.details["latency_limit_ms"] = serveLimitMs
	res.details["connections"] = serveConns()

	// Simulated throughput of the reference phase's requests: each pool
	// batch's plan runs once and counts as often as it was asked for.
	for i, plans := range received {
		n := asked[i]
		if plans == nil || n == 0 {
			continue
		}
		it, err := w.sys.Execute(plans)
		if err == nil && it.OOM {
			err = errors.New("simulated iteration ran out of memory")
		}
		if err != nil {
			res.fail(fmt.Errorf("pool batch %d: execute: %w", i, err))
			continue
		}
		res.simTokens += float64(n) * totalTokens(w.pool[i])
		res.simSeconds += float64(n) * it.Time
	}

	var lag, solve, rtt []float64
	for _, s := range shots {
		lag = append(lag, s.lagMs)
		if s.err == nil {
			solve = append(solve, s.solveMs)
			rtt = append(rtt, s.rttMs)
		}
	}
	res.details["gen_lag_p50_ms"] = median(lag)
	res.details["gen_lag_max_ms"] = maxOf(lag)
	if traced {
		after, err := w.scrape()
		if err != nil {
			return nil, err
		}
		delta := func(name string) float64 { return promValue(after, name) - promValue(before, name) }
		reqs := delta("flexsp_requests_total")
		srvP50 := 1e3 * histQuantile(before, after, "flexsp_request_latency_seconds", 0.5)
		hits, misses := delta("flexsp_plan_cache_hits_total"), delta("flexsp_plan_cache_misses_total")
		res.layers = map[string]float64{
			"server.latency_p50_ms":     srvP50,
			"server.transport_ms_p50":   median(rtt) - srvP50,
			"server.coalesced_ratio":    ratio(delta("flexsp_coalesced_total"), reqs),
			"server.solves_per_request": ratio(delta("flexsp_solves_total"), reqs),
			"server.solve_ms_p50":       median(solve),
			"server.rejected_ratio":     ratio(delta("flexsp_rejected_total"), float64(len(shots))),
			"solver.cache_hit_ratio":    ratio(hits, hits+misses),
			"solver.planned":            delta("flexsp_solver_planned_total"),
			"gen.lag_p50_ms":            median(lag),
			"gen.lag_max_ms":            maxOf(lag),
		}
	}
	return res, nil
}

// runRung offers rate plans/s for dur over serveConns connections. Each
// request is due at a fixed offset from the rung's start and is timed from
// that due time, so a stalled daemon charges its wait to the requests
// queued behind it; lagMs is how late the generator actually sent.
func (w *serveHot) runRung(bctx context.Context, rate float64, dur time.Duration, draw *rand.Rand, received [][]planner.MicroPlan, recvMu *sync.Mutex) rung {
	n := max(1, int(math.Round(rate*dur.Seconds())))
	picks := make([]int, n)
	for i := range picks {
		picks[i] = draw.Intn(len(w.pool))
	}
	r := rung{rate: rate, shots: make([]shot, n), asked: make([]int, len(w.pool))}
	start := time.Now().Add(time.Millisecond)
	interval := float64(time.Second) / rate
	var next atomic.Int64
	var lastDone atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < serveConns(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := start.Add(time.Duration(float64(i) * interval))
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				lens := w.pool[picks[i]]
				_, span := obs.Start(bctx, "flexsp.Client.Plan")
				sent := time.Now()
				env, err := w.client.Plan(context.Background(), flexsp.PlanRequest{Lengths: lens})
				done := time.Now()
				span.End()
				s := shot{latMs: ms(done.Sub(due)), lagMs: ms(sent.Sub(due)), rttMs: ms(done.Sub(sent)), err: err}
				if err == nil {
					s.solveMs = 1e3 * env.SolveWallSeconds
					if cerr := w.checkEnvelope(lens, env); cerr != nil {
						s.err = cerr
					} else {
						recvMu.Lock()
						if received[picks[i]] == nil {
							received[picks[i]] = env.Plans()
						}
						recvMu.Unlock()
					}
				}
				r.shots[i] = s
				for {
					old := lastDone.Load()
					if done.UnixNano() <= old || lastDone.CompareAndSwap(old, done.UnixNano()) {
						break
					}
				}
			}
		}()
	}
	wg.Wait()
	ok := 0
	for i, s := range r.shots {
		if s.err == nil {
			ok++
			r.asked[picks[i]]++
		}
	}
	r.achieved = float64(ok) / time.Unix(0, lastDone.Load()).Sub(start).Seconds()
	return r
}

// scrape reads the daemon's Prometheus exposition from GET /metrics.
func (w *serveHot) scrape() ([]obs.PromFamily, error) {
	resp, err := w.client.HTTPClient.Get(w.base + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	defer resp.Body.Close()
	fams, err := obs.ParsePrometheus(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	return fams, nil
}

// promValue sums the samples of the named series (0 when absent).
func promValue(fams []obs.PromFamily, name string) float64 {
	v := 0.0
	for _, f := range fams {
		for _, s := range f.Samples {
			if s.Name == name {
				v += s.Value
			}
		}
	}
	return v
}

// histQuantile estimates the q-quantile of the observations a Prometheus
// histogram gained between two scrapes, interpolating linearly inside the
// bucket that holds it.
func histQuantile(before, after []obs.PromFamily, name string, q float64) float64 {
	type bucket struct{ le, count float64 }
	read := func(fams []obs.PromFamily) map[float64]float64 {
		out := map[float64]float64{}
		for _, f := range fams {
			for _, s := range f.Samples {
				if s.Name != name+"_bucket" {
					continue
				}
				var le float64
				if _, err := fmt.Sscan(s.Labels["le"], &le); err != nil {
					le = math.Inf(1)
				}
				out[le] += s.Value
			}
		}
		return out
	}
	b0, b1 := read(before), read(after)
	var bs []bucket
	for le, c := range b1 {
		bs = append(bs, bucket{le, c - b0[le]})
	}
	if len(bs) == 0 {
		return 0
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	total := bs[len(bs)-1].count
	if total == 0 {
		return 0
	}
	rank := q * total
	prevLe, prevCount := 0.0, 0.0
	for _, b := range bs {
		if b.count >= rank {
			if math.IsInf(b.le, 1) {
				return prevLe
			}
			if b.count == prevCount {
				return b.le
			}
			return prevLe + (b.le-prevLe)*(rank-prevCount)/(b.count-prevCount)
		}
		prevLe, prevCount = b.le, b.count
	}
	return prevLe
}
