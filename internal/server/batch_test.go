package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flexsp/internal/cluster"
	"flexsp/internal/solver"
)

// gate is a channel-gated strategy: its first call signals entered and holds
// until release closes (or, with holdPastCancel, until its pass context is
// canceled, signaling abandoned, and then until release); later calls return
// at once. Each call's envelope carries the call number in estTime, so two
// bodies are equal only when they came from the same call.
type gate struct {
	calls          atomic.Int64
	entered        chan struct{}
	abandoned      chan struct{}
	release        chan struct{}
	releaseOnce    sync.Once
	holdPastCancel bool
}

func newGate() *gate {
	return &gate{entered: make(chan struct{}), abandoned: make(chan struct{}), release: make(chan struct{})}
}

// open releases the gate; tests also defer it, so a failing test never
// leaves a handler blocked in the test server's Close (deferred calls run
// before cleanups).
func (g *gate) open() { g.releaseOnce.Do(func() { close(g.release) }) }

func (g *gate) strategy(ctx context.Context, spec PlanSpec) (PlanEnvelope, error) {
	n := g.calls.Add(1)
	if n == 1 {
		close(g.entered)
		if g.holdPastCancel {
			<-ctx.Done()
			close(g.abandoned)
		}
		<-g.release
	}
	return PlanEnvelope{Version: WireVersion, Strategy: "gate", EstTime: float64(n)}, nil
}

// planResult is one /v2/plan response, collected off the test goroutine.
type planResult struct {
	status int
	body   []byte
	err    error
}

// postPlanAsync posts a gate-strategy /v2/plan request for testBatch under
// ctx and delivers the response on the returned channel.
func postPlanAsync(ctx context.Context, url string) <-chan planResult {
	out := make(chan planResult, 1)
	go func() {
		body, _ := json.Marshal(PlanRequest{Strategy: "gate", Lengths: testBatch})
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v2/plan", bytes.NewReader(body))
		if err != nil {
			out <- planResult{err: err}
			return
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			out <- planResult{err: err}
			return
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		out <- planResult{status: resp.StatusCode, body: b, err: err}
	}()
	return out
}

// waitMembers blocks until the batcher's open pass for job has n members.
func waitMembers(t *testing.T, b *batcher, job planJob, n int) {
	t.Helper()
	job.sig, job.sigKey = solver.Signature(job.lens)
	deadline := time.Now().Add(5 * time.Second)
	for {
		b.mu.Lock()
		got := 0
		if p := b.passes[job.key()]; p != nil {
			got = p.members
		}
		b.mu.Unlock()
		if got == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("pass members = %d, want %d", got, n)
		}
		time.Sleep(time.Millisecond)
	}
}

func recv(t *testing.T, ch <-chan planResult) planResult {
	t.Helper()
	select {
	case r := <-ch:
		if r.err != nil {
			t.Fatal(r.err)
		}
		return r
	case <-time.After(10 * time.Second):
		t.Fatal("no response")
		return planResult{}
	}
}

func waitClosed(t *testing.T, ch <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(5 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
	}
}

// TestInFlightCoalescing pins the default zero window: a request identical
// to one whose pass is already solving joins that pass and receives the
// same bytes, so one solve serves both.
func TestInFlightCoalescing(t *testing.T) {
	g := newGate()
	defer g.open()
	srv, ts := newTestServer(t, Config{Strategies: map[string]StrategyFunc{"gate": g.strategy}})
	if srv.v2.window != 0 {
		t.Fatalf("default batch window = %v, want 0", srv.v2.window)
	}
	first := postPlanAsync(context.Background(), ts.URL)
	waitClosed(t, g.entered, "the first pass to start solving")
	second := postPlanAsync(context.Background(), ts.URL)
	waitMembers(t, srv.v2, planJob{lens: testBatch, strategy: "gate"}, 2)
	g.open()

	a, b := recv(t, first), recv(t, second)
	if a.status != http.StatusOK || b.status != http.StatusOK {
		t.Fatalf("statuses %d, %d: %s / %s", a.status, b.status, a.body, b.body)
	}
	if !bytes.Equal(a.body, b.body) {
		t.Fatalf("coalesced bodies differ:\n%s\n%s", a.body, b.body)
	}
	m := srv.Metrics()
	if m.Solves != 1 || m.Coalesced != 1 {
		t.Fatalf("solves = %d, coalesced = %d; want 1, 1", m.Solves, m.Coalesced)
	}
}

// TestInFlightTopologyVersion pins the version guard: a request arriving
// after a topology event does not join a pass opened before it, so it never
// shares a solve planned for the previous fleet view.
func TestInFlightTopologyVersion(t *testing.T) {
	g := newGate()
	defer g.open()
	srv, ts, _ := newElasticServer(t, 2, Config{
		ReplanDebounce: time.Hour,
		Strategies:     map[string]StrategyFunc{"gate": g.strategy},
	})
	first := postPlanAsync(context.Background(), ts.URL)
	waitClosed(t, g.entered, "the first pass to start solving")
	resp, _, _ := postTopology(t, ts.URL, TopologyRequest{Events: []cluster.Event{{Kind: cluster.EventNodeDown, Node: 1}}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("topology post = %d", resp.StatusCode)
	}
	// The second request opens its own pass, which the gate answers at once
	// while the first is still held.
	b := recv(t, postPlanAsync(context.Background(), ts.URL))
	g.open()
	a := recv(t, first)
	if a.status != http.StatusOK || b.status != http.StatusOK {
		t.Fatalf("statuses %d, %d: %s / %s", a.status, b.status, a.body, b.body)
	}
	if bytes.Equal(a.body, b.body) {
		t.Fatal("a request after the topology event shared the earlier pass")
	}
	m := srv.Metrics()
	if m.Solves != 2 || m.Coalesced != 0 {
		t.Fatalf("solves = %d, coalesced = %d; want 2, 0", m.Solves, m.Coalesced)
	}
}

// TestInFlightAbandonedPass pins the abandoned-pass guard: once every member
// of a solving pass has disconnected, an identical request that arrives
// before the pass returns gets its own solve and a 200, not the abandoned
// pass's 499.
func TestInFlightAbandonedPass(t *testing.T) {
	g := newGate()
	defer g.open()
	g.holdPastCancel = true
	srv, ts := newTestServer(t, Config{Strategies: map[string]StrategyFunc{"gate": g.strategy}})
	ctx, cancel := context.WithCancel(context.Background())
	first := postPlanAsync(ctx, ts.URL)
	waitClosed(t, g.entered, "the first pass to start solving")
	cancel()
	<-first
	waitClosed(t, g.abandoned, "the pass context to cancel")

	b := recv(t, postPlanAsync(context.Background(), ts.URL))
	g.open()
	if b.status != http.StatusOK {
		t.Fatalf("request racing an abandoned pass = %d: %s", b.status, b.body)
	}
	if got := srv.Metrics().Solves; got < 2 {
		t.Fatalf("solves = %d, want 2 (the late request solved on its own)", got)
	}
}

// TestInFlightJoinerRetriesClientGone pins the fallback behind the
// abandoned-pass guard: a live joiner that still receives a pass's 499
// re-enters as its own opener instead of relaying it.
func TestInFlightJoinerRetriesClientGone(t *testing.T) {
	var calls atomic.Int64
	joined := make(chan struct{})
	b := newBatcher(0, func(ctx context.Context, job planJob) ([]byte, int) {
		if calls.Add(1) == 1 {
			<-joined
			return []byte("gone"), statusClientGone
		}
		return []byte("ok"), http.StatusOK
	})
	opener := make(chan int, 1)
	go func() {
		_, status, _, _, _ := b.do(context.Background(), planJob{lens: testBatch})
		opener <- status
	}()
	waitMembers(t, b, planJob{lens: testBatch}, 1)
	res := make(chan planResult, 1)
	go func() {
		body, status, _, _, err := b.do(context.Background(), planJob{lens: testBatch})
		res <- planResult{status: status, body: body, err: err}
	}()
	waitMembers(t, b, planJob{lens: testBatch}, 2)
	close(joined)
	if got := <-opener; got != statusClientGone {
		t.Fatalf("opener status = %d, want %d", got, statusClientGone)
	}
	r := recv(t, res)
	if r.status != http.StatusOK || string(r.body) != "ok" {
		t.Fatalf("joiner got %d %q, want 200 \"ok\"", r.status, r.body)
	}
}
