package server

import (
	"context"
	"sync"
	"time"

	"flexsp/internal/solver"
)

// planJob identifies one batchable planning request: the length multiset
// plus the strategy/maxCtx coordinates that change the resulting plan. The
// v1 batchers run with a fixed strategy; the /v2/plan batcher carries the
// request's strategy through, so only requests asking for the same plan
// coalesce.
type planJob struct {
	lens     []int
	strategy string
	maxCtx   int
	// explain asks the pass to attach provenance; it is a pass coordinate
	// because the encoded response differs.
	explain bool
	// ver is the topology version the request arrived under (always 0 on a
	// static daemon). A request joins only a pass opened at the same
	// version, so nobody who arrived after a topology event shares a solve
	// that began before it.
	ver int64

	// sig and sigKey are the exact-length signature (solver.Signature),
	// filled once by batcher.do and reused by the pass (storeEnvelope).
	sig    []int32
	sigKey uint64
}

// key is the pass key: the exact-signature hash folded with strategy,
// maxCtx and explain — the same key the envelope cache stores the pass's
// response under. Joiners re-compare the signature and the job fields, so a
// hash collision falls back to independent passes, never shared plans.
func (j planJob) key() uint64 {
	return envelopeKey(j.sigKey, j.strategy, j.maxCtx, j.explain)
}

// sameRequest reports whether two jobs ask for the same plan under the same
// topology version.
func (j planJob) sameRequest(o planJob) bool {
	return solver.SigsEqual(j.sig, o.sig) && j.strategy == o.strategy &&
		j.maxCtx == o.maxCtx && j.explain == o.explain && j.ver == o.ver
}

// batcher groups compatible requests into one solver pass. Two requests are
// compatible when they carry the same sequence-length multiset, the same
// strategy/maxCtx/explain coordinates and the same topology version — the
// only sound grouping, since a plan depends on the whole batch, on what was
// asked of it and on the fleet it was planned for. The first request for a
// job opens a pass; identical requests join it until its solve returns, and
// every member receives the same pre-encoded response bytes, so coalesced
// responses are byte-identical by construction.
//
// A positive window makes the opener wait that long before solving, so
// requests arriving just before the solve join too. With the default zero
// window the pass solves at once and coalesces only the requests that
// arrive while it is in flight: no added latency.
//
// Each pass carries a context that is canceled once every member's request
// context is done, so a solve whose consumers all disconnected (or were cut
// off by shutdown) stops at the next trial/micro-batch boundary instead of
// burning planner workers on a response nobody reads. Such an abandoned
// pass takes no new members.
type batcher struct {
	window time.Duration
	// run executes one solver pass under the pass context and returns the
	// encoded response body and HTTP status shared by every member.
	run func(ctx context.Context, job planJob) ([]byte, int)

	mu     sync.Mutex
	passes map[uint64]*pass
}

type pass struct {
	done    chan struct{}
	job     planJob // the opener's job (collision and version guard)
	members int

	// ctx is canceled when live — the number of member request contexts
	// not yet done — reaches zero.
	ctx    context.Context
	cancel context.CancelFunc
	liveMu sync.Mutex
	live   int

	body   []byte
	status int
}

// join adds a member to the pass unless the pass is abandoned: live reached
// zero, so its context is (or is about to be) canceled and a new member
// would only inherit the cancellation.
func (p *pass) join(ctx context.Context) bool {
	p.liveMu.Lock()
	if p.live == 0 {
		p.liveMu.Unlock()
		return false
	}
	p.live++
	p.liveMu.Unlock()
	p.watch(ctx)
	return true
}

// watch counts a member's request context toward the pass lifetime: when
// the last live member disconnects, the pass context is canceled. The
// watcher goroutine exits when the request context is done, which the HTTP
// server guarantees at handler return.
func (p *pass) watch(ctx context.Context) {
	go func() {
		<-ctx.Done()
		p.liveMu.Lock()
		p.live--
		last := p.live == 0
		p.liveMu.Unlock()
		if last {
			p.cancel()
		}
	}()
}

func newBatcher(window time.Duration, run func(ctx context.Context, job planJob) ([]byte, int)) *batcher {
	return &batcher{window: window, run: run, passes: make(map[uint64]*pass)}
}

// do runs the job through the batcher. It returns the shared response body
// and status, the number of requests the pass served, and whether this
// caller joined another request's pass (true) or opened and ran its own
// (false). A canceled context while waiting returns ctx.Err(); the pass
// itself keeps running while it has other live members.
func (b *batcher) do(ctx context.Context, job planJob) (body []byte, status, members int, joined bool, err error) {
	if job.sig == nil {
		job.sig, job.sigKey = solver.Signature(job.lens)
	}
	key := job.key()

	b.mu.Lock()
	if p, ok := b.passes[key]; ok && job.sameRequest(p.job) && p.join(ctx) {
		p.members++
		b.mu.Unlock()
		select {
		case <-p.done:
			if p.status == 0 || p.status == statusClientGone {
				// The pass was abandoned before or during its solve; run our
				// own pass unless this request is gone too.
				if err := ctx.Err(); err != nil {
					return nil, 0, 0, true, err
				}
				return b.do(ctx, job)
			}
			return p.body, p.status, p.members, true, nil
		case <-ctx.Done():
			return nil, 0, 0, true, ctx.Err()
		}
	}
	p := &pass{done: make(chan struct{}), job: job, members: 1, live: 1}
	// The pass context carries the opener's values (trace span, request ID)
	// but not its cancellation: the pass lives until the LAST member
	// disconnects, tracked by watch, not until the opener does.
	p.ctx, p.cancel = context.WithCancel(context.WithoutCancel(ctx))
	p.watch(ctx)
	// A hash collision, a newer topology version or an abandoned pass under
	// the same key overwrites the map slot; the displaced pass still
	// completes (its members hold the *pass directly).
	b.passes[key] = p
	b.mu.Unlock()

	if b.window > 0 {
		t := time.NewTimer(b.window)
		select {
		case <-t.C:
		case <-ctx.Done():
			// The opener is canceled: close the pass so members are not
			// stranded; whoever is waiting re-enters as its own opener.
			t.Stop()
			b.closePass(key, p, nil, 0)
			return nil, 0, 0, false, ctx.Err()
		}
	}

	body, status = b.run(p.ctx, job)
	members = b.closePass(key, p, body, status)
	return body, status, members, false, nil
}

// closePass ends a pass with the given result: it leaves the map first, so
// the member count read next is final, and then releases the members. A zero
// status marks a pass abandoned before its solve (the opener's context was
// canceled during the window).
func (b *batcher) closePass(key uint64, p *pass, body []byte, status int) (members int) {
	b.mu.Lock()
	if b.passes[key] == p {
		delete(b.passes, key)
	}
	members = p.members
	b.mu.Unlock()
	p.body, p.status = body, status
	close(p.done)
	return members
}
