package gateway

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"sesemi/internal/semirt"
)

// flakyBatchInvoker fails (or panics on) the first failFirst Invoke calls,
// then echoes like fakeInvoker.
type flakyBatchInvoker struct {
	calls     atomic.Int32
	failFirst int32
	panics    bool
}

func (f *flakyBatchInvoker) Invoke(ctx context.Context, action string, payload []byte) ([]byte, error) {
	if n := f.calls.Add(1); n <= f.failFirst {
		if f.panics {
			panic(fmt.Sprintf("injected panic on call %d", n))
		}
		return nil, errors.New("injected transient failure")
	}
	return echoBatch(payload, nil)
}

// A dispatch that fails transiently is retried and the caller sees the
// response, not the fault.
func TestRetryRecoversTransientFailure(t *testing.T) {
	inv := &flakyBatchInvoker{failFirst: 1}
	g := New(Config{MaxBatch: 1, MaxRetries: 2, RetryBackoff: 100 * time.Microsecond}, inv)
	defer g.Close()
	resp, err := g.Do(context.Background(), "fn", req("m", 0))
	if err != nil {
		t.Fatalf("Do after transient failure: %v", err)
	}
	if string(resp.Payload) != "p-0" {
		t.Fatalf("payload %q", resp.Payload)
	}
	if got := inv.calls.Load(); got != 2 {
		t.Fatalf("backend calls = %d, want 2 (fail + retry)", got)
	}
	if st := g.Stats(); st.Retries != 1 {
		t.Fatalf("Stats.Retries = %d, want 1", st.Retries)
	}
}

// When every attempt fails, the caller gets the typed ErrRetriesExhausted
// and exactly 1+MaxRetries attempts were made.
func TestRetriesExhaustedTyped(t *testing.T) {
	inv := &flakyBatchInvoker{failFirst: 1 << 30}
	g := New(Config{MaxBatch: 1, MaxRetries: 2, RetryBackoff: 100 * time.Microsecond}, inv)
	defer g.Close()
	_, err := g.Do(context.Background(), "fn", req("m", 0))
	if !errors.Is(err, ErrRetriesExhausted) {
		t.Fatalf("err = %v, want ErrRetriesExhausted", err)
	}
	if got := inv.calls.Load(); got != 3 {
		t.Fatalf("backend calls = %d, want 3 (1 + 2 retries)", got)
	}
}

// badRequestInvoker answers every call with a wrapped semirt.ErrBadRequest,
// as a backend whose envelope never parses (or decrypts) would.
type badRequestInvoker struct{ calls atomic.Int32 }

func (b *badRequestInvoker) Invoke(ctx context.Context, action string, payload []byte) ([]byte, error) {
	b.calls.Add(1)
	return nil, fmt.Errorf("%w: request decrypt: injected", semirt.ErrBadRequest)
}

// A deterministic request failure (malformed envelope, undecryptable
// payload) must fail fast: one backend attempt, no retries burned, no
// ErrRetriesExhausted — even with a generous retry budget.
func TestBadRequestFailsFastWithoutRetry(t *testing.T) {
	inv := &badRequestInvoker{}
	g := New(Config{MaxBatch: 1, MaxRetries: 3, RetryBackoff: 100 * time.Microsecond}, inv)
	defer g.Close()
	_, err := g.Do(context.Background(), "fn", req("m", 0))
	if !errors.Is(err, semirt.ErrBadRequest) {
		t.Fatalf("err = %v, want semirt.ErrBadRequest", err)
	}
	if errors.Is(err, ErrRetriesExhausted) {
		t.Fatalf("bad request misclassified as exhausted retries: %v", err)
	}
	if got := inv.calls.Load(); got != 1 {
		t.Fatalf("backend calls = %d, want 1 (no retries for deterministic failures)", got)
	}
	if st := g.Stats(); st.Retries != 0 {
		t.Fatalf("Stats.Retries = %d, want 0", st.Retries)
	}
}

// Satellite: a panicking backend must fail its batch with the typed
// ErrBackendPanic — recovered in the dispatch goroutine — and the gateway
// keeps serving afterwards.
func TestBackendPanicRecoveredTyped(t *testing.T) {
	inv := &flakyBatchInvoker{failFirst: 1, panics: true}
	g := New(Config{MaxBatch: 1}, inv) // retries off: the panic surfaces
	defer g.Close()
	_, err := g.Do(context.Background(), "fn", req("m", 0))
	if !errors.Is(err, ErrBackendPanic) {
		t.Fatalf("err = %v, want ErrBackendPanic", err)
	}
	// The dispatch goroutine survived; the queue still serves.
	resp, err := g.Do(context.Background(), "fn", req("m", 1))
	if err != nil || string(resp.Payload) != "p-1" {
		t.Fatalf("post-panic Do: resp=%q err=%v", resp.Payload, err)
	}
	if st := g.Stats(); st.BackendPanics != 1 {
		t.Fatalf("Stats.BackendPanics = %d, want 1", st.BackendPanics)
	}
}

// A panicking backend with retries on is retried like any fault.
func TestBackendPanicRetried(t *testing.T) {
	inv := &flakyBatchInvoker{failFirst: 1, panics: true}
	g := New(Config{MaxBatch: 1, MaxRetries: 1, RetryBackoff: 100 * time.Microsecond}, inv)
	defer g.Close()
	resp, err := g.Do(context.Background(), "fn", req("m", 0))
	if err != nil || string(resp.Payload) != "p-0" {
		t.Fatalf("Do: resp=%q err=%v", resp.Payload, err)
	}
}

// The fairness regression the issue demands: a retried request re-enters at
// its original-arrival position and burns NO fresh DRR deficit. With the
// resumed flag, tenant A's retried request is a free pop, so A's later
// request still fits in the same weight-1 quantum; without it, the retry
// would consume the quantum and tenant B's request would take the slot.
func TestRetryRequeueBurnsNoFreshDeficit(t *testing.T) {
	drainAfterRetry := func(markResumed bool) []string {
		g := New(Config{MaxBatch: 8, MaxWait: time.Minute}, newFakeInvoker())
		defer g.Close()
		q := newQueue("fn", "m", queueKey("fn", "m"))
		base := time.Now()
		mk := func(tenant, payload string, enq time.Time) *pending {
			return &pending{
				req:    semirt.Request{Payload: []byte(payload)},
				tenant: tenant,
				done:   make(chan result, 1),
				enq:    enq,
			}
		}
		pA1 := mk("A", "A1", base) // the request whose dispatch failed
		pA2 := mk("A", "A2", base.Add(time.Millisecond))
		pB1 := mk("B", "B1", base.Add(2*time.Millisecond))
		pA1.retries = 1

		g.mu.Lock()
		q.enqueueLocked(q.tenant("A", &g.cfg), pA2)
		q.enqueueLocked(q.tenant("B", &g.cfg), pB1)
		if markResumed {
			g.retryLocked(q, pA1, base) // the production path: resumed + insertResumed
		} else {
			// Counterfactual: a naive re-enqueue that pays deficit again.
			q.enqueueLocked(q.tenant("A", &g.cfg), pA1)
		}
		batch := g.drainLocked(q, 2)
		g.mu.Unlock()

		out := make([]string, len(batch))
		for i, p := range batch {
			out[i] = string(p.req.Payload)
		}
		return out
	}

	got := drainAfterRetry(true)
	if len(got) != 2 || got[0] != "A1" || got[1] != "A2" {
		t.Fatalf("fairness-neutral drain = %v, want [A1 A2] (retry is a free pop)", got)
	}
	// Sanity-check the counterfactual actually distinguishes: a naive
	// re-enqueue loses the original-arrival position (A1 lands behind A2)
	// AND pays deficit again, handing the second slot to tenant B.
	if got := drainAfterRetry(false); len(got) != 2 || got[0] != "A2" || got[1] != "B1" {
		t.Fatalf("deficit-paying drain = %v, want [A2 B1]", got)
	}
}

// Session recovery: a continuous session crashing mid-stream re-queues its
// member carrying StepsDone, so the session it rejoins charges only the
// remaining steps.
func TestSessionRecoveryCarriesStepsDone(t *testing.T) {
	b := newFakeSessionBackend()
	b.crashAfter = 2 // first session dies after 2 completed frames
	g := New(Config{
		MaxBatch: 1, MaxWait: time.Millisecond, Continuous: true,
		MaxRetries: 1, RetryBackoff: 100 * time.Microsecond,
	}, b)
	defer g.Close()

	r := req("m", 0)
	r.ExecSteps = 5
	resp, err := g.Do(context.Background(), "fn", r)
	if err != nil {
		t.Fatalf("Do across session crash: %v", err)
	}
	if string(resp.Payload) != "p-0" {
		t.Fatalf("payload %q", resp.Payload)
	}
	b.mu.Lock()
	joins := append([]fakeJoin(nil), b.joins...)
	b.mu.Unlock()
	if len(joins) != 2 {
		t.Fatalf("joins = %+v, want 2 (original + recovery)", joins)
	}
	if joins[0].stepsDone != 0 {
		t.Fatalf("first join StepsDone = %d, want 0", joins[0].stepsDone)
	}
	if joins[1].stepsDone != 2 {
		t.Fatalf("recovery join StepsDone = %d, want 2 (completed steps not re-charged)", joins[1].stepsDone)
	}
	if st := g.Stats(); st.Retries != 1 {
		t.Fatalf("Stats.Retries = %d, want 1", st.Retries)
	}
}

// A session that crashes every time exhausts the member's budget with the
// typed error.
func TestSessionCrashExhaustsRetriesTyped(t *testing.T) {
	b := newFakeSessionBackend()
	b.failOpen = errors.New("no capacity anywhere")
	g := New(Config{
		MaxBatch: 1, MaxWait: time.Millisecond, Continuous: true,
		MaxRetries: 1, RetryBackoff: 100 * time.Microsecond,
	}, b)
	defer g.Close()
	_, err := g.Do(context.Background(), "fn", req("m", 0))
	if !errors.Is(err, ErrRetriesExhausted) {
		t.Fatalf("err = %v, want ErrRetriesExhausted", err)
	}
}

// Satellite: Wait after Cancel observes ErrCanceled (the settled outcome),
// never blocks.
func TestWaitAfterCancel(t *testing.T) {
	inv := newFakeInvoker()
	inv.block = make(chan struct{})
	inv.started = make(chan struct{}, 8)
	g := New(Config{MaxBatch: 8, MaxWait: time.Minute}, inv)
	defer g.Close()
	occupy(t, g, inv) // a held dispatch keeps the next request queued
	tk, err := g.Submit(context.Background(), Request{Action: "fn", Body: req("m", 0)})
	if err != nil {
		t.Fatal(err)
	}
	if !tk.Cancel() {
		t.Fatal("Cancel of a queued request reported false")
	}
	_, err = tk.Wait(context.Background())
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("Wait after Cancel = %v, want ErrCanceled", err)
	}
}

// Satellite: WaitCtx expiry withdraws a still-queued request — the bound is
// real, the slot is freed.
func TestWaitCtxExpiryWithdraws(t *testing.T) {
	inv := newFakeInvoker()
	inv.block = make(chan struct{})
	inv.started = make(chan struct{}, 8)
	g := New(Config{MaxBatch: 8, MaxWait: time.Minute}, inv)
	defer g.Close()
	occupy(t, g, inv) // a held dispatch keeps the next request queued
	tk, err := g.Submit(context.Background(), Request{Action: "fn", Body: req("m", 0)})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	_, err = tk.WaitCtx(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("WaitCtx = %v, want DeadlineExceeded", err)
	}
	// Only the held request is still pending.
	if st := g.Stats(); st.Pending != 1 || st.Canceled != 1 {
		t.Fatalf("after WaitCtx expiry: Pending=%d Canceled=%d, want 1/1", st.Pending, st.Canceled)
	}
	if tk.Cancel() {
		t.Fatal("Cancel after WaitCtx withdrawal reported true")
	}
}
