package gateway

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"sesemi/internal/semirt"
)

// echoBatch decodes a batch activation envelope (via the semirt codec, so
// the wire shape lives in one place), hands the decoded requests to record,
// and returns the canonical echo response (each request payload becomes its
// response payload, Kind Hot).
func echoBatch(payload []byte, record func([]semirt.Request)) ([]byte, error) {
	_, batch, err := semirt.DecodeEnvelope(payload)
	if err != nil {
		return nil, err
	}
	if record != nil {
		record(batch)
	}
	results := make([]semirt.BatchResult, len(batch))
	for i, r := range batch {
		results[i].Response = semirt.Response{Payload: r.Payload, Kind: semirt.Hot}
	}
	return semirt.EncodeBatchResults(results)
}

// fakeInvoker records every batch in dispatch order and echoes payloads.
type fakeInvoker struct {
	mu      sync.Mutex
	batches map[string][][]semirt.Request // action -> batches in order
	calls   int
	block   chan struct{} // when non-nil, Invoke waits until closed
	fail    error         // when non-nil, Invoke fails wholesale
	started chan struct{} // when non-nil, receives one token per Invoke entry
}

func newFakeInvoker() *fakeInvoker {
	return &fakeInvoker{batches: map[string][][]semirt.Request{}}
}

func (f *fakeInvoker) Invoke(ctx context.Context, action string, payload []byte) ([]byte, error) {
	raw, err := echoBatch(payload, func(batch []semirt.Request) {
		f.mu.Lock()
		f.calls++
		f.batches[action] = append(f.batches[action], batch)
		f.mu.Unlock()
	})
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	block, fail := f.block, f.fail
	f.mu.Unlock()
	if f.started != nil {
		f.started <- struct{}{}
	}
	if block != nil {
		select {
		case <-block:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if fail != nil {
		return nil, fail
	}
	return raw, nil
}

// dispatched returns every request payload for the action, flattened in
// dispatch order, plus the per-batch sizes.
func (f *fakeInvoker) dispatched(action string) (payloads []string, sizes []int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, b := range f.batches[action] {
		sizes = append(sizes, len(b))
		for _, r := range b {
			payloads = append(payloads, string(r.Payload))
		}
	}
	return payloads, sizes
}

func req(model string, i int) semirt.Request {
	return semirt.Request{UserID: "u", ModelID: model, Payload: []byte(fmt.Sprintf("p-%d", i))}
}

func TestFlushOnMaxBatch(t *testing.T) {
	inv := newFakeInvoker()
	inv.block = make(chan struct{})
	inv.started = make(chan struct{}, 8)
	g := New(Config{MaxBatch: 4, MaxWait: time.Minute}, inv)
	defer g.Close()

	// A held dispatch keeps the queue busy, so the next arrivals wait for a
	// full batch instead of shipping one by one.
	held := occupy(t, g, inv)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := g.Do(context.Background(), "fn", req("m", i))
			if err != nil {
				t.Error(err)
				return
			}
			if string(resp.Payload) != fmt.Sprintf("p-%d", i) {
				t.Errorf("request %d got someone else's response %q", i, resp.Payload)
			}
		}(i)
	}
	<-inv.started // the full batch shipped while the first is still held
	close(inv.block)
	wg.Wait()
	if _, err := held.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	_, sizes := inv.dispatched("fn")
	if len(sizes) != 2 || sizes[1] != 4 {
		t.Fatalf("batches %v, want the held one then one batch of 4", sizes)
	}
	if st := g.Stats(); st.Accepted != 5 || st.Served != 5 || st.Batches != 2 {
		t.Fatalf("stats %+v", st)
	}
}

// TestFlushOnMaxWait: MaxWait still caps a busy queue. While a batch is in
// flight and nothing completes, a partial batch ships once its oldest
// request has waited MaxWait.
func TestFlushOnMaxWait(t *testing.T) {
	inv := newFakeInvoker()
	inv.block = make(chan struct{})
	inv.started = make(chan struct{}, 8)
	g := New(Config{MaxBatch: 64, MaxWait: 10 * time.Millisecond}, inv)
	defer g.Close()

	tks := []*Ticket{occupy(t, g, inv)}
	for i := 0; i < 3; i++ {
		tk, err := g.Submit(context.Background(), Request{Action: "fn", Body: req("m", i)})
		if err != nil {
			t.Fatal(err)
		}
		tks = append(tks, tk)
	}
	select {
	case <-inv.started:
	case <-time.After(2 * time.Second):
		t.Fatal("a partial batch on a busy queue never shipped: MaxWait no longer caps it")
	}
	// Nothing completed and no batch filled: only the timer can have shipped
	// a second batch.
	if _, sizes := inv.dispatched("fn"); len(sizes) < 2 {
		t.Fatalf("dispatched %v, want the held batch then a MaxWait-flushed partial one", sizes)
	}
	close(inv.block)
	for i, tk := range tks {
		if _, err := tk.Wait(context.Background()); err != nil {
			t.Fatalf("ticket %d: %v", i, err)
		}
	}
}

// TestWorkConservingFormation pins the formation rule with MaxWait an hour,
// so the timer cannot be what ships anything. An idle queue dispatches at
// once; a queue with a batch in flight holds arrivals until they fill a batch
// or that batch completes, even with free dispatch slots (MaxInFlight 4).
func TestWorkConservingFormation(t *testing.T) {
	const maxBatch = 4
	cases := []struct {
		name     string
		hold     bool  // a first request holds a dispatch in flight
		arrivals int   // requests submitted after it
		queued   int   // backlog once the arrivals are in
		before   []int // batch sizes shipped while the held batch is in flight
		after    []int // batch sizes once every request is answered
	}{
		{"idle queue ships alone at once", false, 1, 0, []int{1}, []int{1}},
		{"busy queue ships k on completion", true, maxBatch - 1, maxBatch - 1, []int{1}, []int{1, maxBatch - 1}},
		{"busy queue ships a full batch at once", true, maxBatch, 0, []int{1, maxBatch}, []int{1, maxBatch}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			inv := newFakeInvoker()
			inv.block = make(chan struct{})
			inv.started = make(chan struct{}, 8)
			g := New(Config{MaxBatch: maxBatch, MaxWait: time.Hour}, inv)
			defer g.Close()

			var tks []*Ticket
			if tc.hold {
				tks = append(tks, occupy(t, g, inv))
			}
			for i := 0; i < tc.arrivals; i++ {
				tk, err := g.Submit(context.Background(), Request{Action: "fn", Body: req("m", i)})
				if err != nil {
					t.Fatal(err)
				}
				tks = append(tks, tk)
			}
			if got := g.Backlog(); got != tc.queued {
				t.Fatalf("backlog %d after the arrivals, want %d", got, tc.queued)
			}
			for i := len(tks) - tc.arrivals; i < len(tc.before); i++ {
				<-inv.started // occupy already took the held batch's token
			}
			if _, sizes := inv.dispatched("fn"); fmt.Sprint(sizes) != fmt.Sprint(tc.before) {
				t.Fatalf("shipped %v while held, want %v", sizes, tc.before)
			}
			close(inv.block)
			for i, tk := range tks {
				if _, err := tk.Wait(context.Background()); err != nil {
					t.Fatalf("ticket %d: %v", i, err)
				}
			}
			if _, sizes := inv.dispatched("fn"); fmt.Sprint(sizes) != fmt.Sprint(tc.after) {
				t.Fatalf("shipped %v, want %v", sizes, tc.after)
			}
		})
	}
}

// TestStatsCountOutcomeBeforeDelivery: the gateway accounts an outcome before
// it delivers it, so once Wait has returned n times, Stats() and
// TenantSnapshot() count n served and nothing pending.
func TestStatsCountOutcomeBeforeDelivery(t *testing.T) {
	g := New(Config{MaxBatch: 1, MaxWait: time.Hour}, newFakeInvoker())
	defer g.Close()
	for n := 1; n <= 200; n++ {
		if _, err := g.Do(context.Background(), "fn", req("m", n)); err != nil {
			t.Fatal(err)
		}
		st := g.Stats()
		if st.Served != uint64(n) || st.Pending != 0 {
			t.Fatalf("after %d answers: served=%d pending=%d", n, st.Served, st.Pending)
		}
		if tc := g.TenantSnapshot()[DefaultTenant]; tc.Served != uint64(n) {
			t.Fatalf("after %d answers: tenant served=%d", n, tc.Served)
		}
	}
}

func TestPerQueueFIFO(t *testing.T) {
	inv := newFakeInvoker()
	inv.block = make(chan struct{})
	inv.started = make(chan struct{}, 64)
	g := New(Config{MaxBatch: 1, MaxWait: time.Millisecond, MaxInFlight: 1, MaxQueue: 64}, inv)
	defer g.Close()

	// First request occupies the single in-flight slot...
	go g.Do(context.Background(), "fn", req("m", 0))
	<-inv.started
	// ...then enqueue 0..9 strictly in order while dispatch is blocked.
	var wg sync.WaitGroup
	for i := 1; i < 10; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := g.Do(context.Background(), "fn", req("m", i)); err != nil {
				t.Error(err)
			}
		}(i)
		for int(g.Stats().Accepted) != i+1 {
			time.Sleep(100 * time.Microsecond)
		}
	}
	close(inv.block)
	wg.Wait()
	payloads, _ := inv.dispatched("fn")
	for i, p := range payloads {
		if p != fmt.Sprintf("p-%d", i) {
			t.Fatalf("dispatch order %v: position %d is %q", payloads, i, p)
		}
	}
}

func TestOverloadRejectsImmediately(t *testing.T) {
	inv := newFakeInvoker()
	inv.block = make(chan struct{})
	inv.started = make(chan struct{}, 8)
	g := New(Config{MaxBatch: 1, MaxWait: time.Millisecond, MaxInFlight: 1, MaxQueue: 2}, inv)
	defer g.Close()

	go g.Do(context.Background(), "fn", req("m", 0)) // in flight, blocked
	<-inv.started
	for i := 1; i <= 2; i++ { // fill the queue
		go g.Do(context.Background(), "fn", req("m", i))
	}
	for g.Stats().Accepted != 3 {
		time.Sleep(100 * time.Microsecond)
	}

	done := make(chan error, 1)
	go func() {
		_, err := g.Do(context.Background(), "fn", req("m", 3))
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrOverloaded) {
			t.Fatalf("err %v, want ErrOverloaded", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("overloaded Do blocked instead of rejecting")
	}
	if g.Stats().Rejected != 1 {
		t.Fatalf("stats %+v", g.Stats())
	}
	close(inv.block)
}

func TestCancelWhileQueuedWithdraws(t *testing.T) {
	inv := newFakeInvoker()
	inv.block = make(chan struct{})
	inv.started = make(chan struct{}, 8)
	g := New(Config{MaxBatch: 1, MaxWait: time.Millisecond, MaxInFlight: 1, MaxQueue: 16}, inv)
	defer g.Close()

	go g.Do(context.Background(), "fn", req("m", 0))
	<-inv.started

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := g.Do(ctx, "fn", req("m", 99))
		errc <- err
	}()
	for g.Stats().Accepted != 2 {
		time.Sleep(100 * time.Microsecond)
	}
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("err %v, want context.Canceled", err)
	}
	close(inv.block)
	// Drain the first request, then verify the withdrawn one never shipped.
	for g.Stats().Served != 1 {
		time.Sleep(100 * time.Microsecond)
	}
	payloads, _ := inv.dispatched("fn")
	for _, p := range payloads {
		if p == "p-99" {
			t.Fatal("withdrawn request was dispatched")
		}
	}
}

func TestCloseFailsQueuedAndRejectsNew(t *testing.T) {
	inv := newFakeInvoker()
	inv.block = make(chan struct{})
	inv.started = make(chan struct{}, 8)
	g := New(Config{MaxBatch: 1, MaxWait: time.Millisecond, MaxInFlight: 1, MaxQueue: 16}, inv)

	go g.Do(context.Background(), "fn", req("m", 0))
	<-inv.started
	errc := make(chan error, 1)
	go func() {
		_, err := g.Do(context.Background(), "fn", req("m", 1))
		errc <- err
	}()
	for g.Stats().Accepted != 2 {
		time.Sleep(100 * time.Microsecond)
	}
	// Close while the first dispatch still holds the only in-flight slot, so
	// the second request is still queued; release the backend only once
	// Close has failed it, or the dispatcher could ship it first.
	closed := make(chan struct{})
	go func() {
		g.Close()
		close(closed)
	}()
	if err := <-errc; !errors.Is(err, ErrClosed) {
		t.Fatalf("queued err %v, want ErrClosed", err)
	}
	close(inv.block)
	<-closed
	if _, err := g.Do(context.Background(), "fn", req("m", 2)); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close err %v, want ErrClosed", err)
	}
}

func TestInvokerErrorFansOutToWholeBatch(t *testing.T) {
	inv := newFakeInvoker()
	inv.fail = errors.New("backend down")
	g := New(Config{MaxBatch: 2, MaxWait: time.Millisecond}, inv)
	defer g.Close()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := g.Do(context.Background(), "fn", req("m", i))
			if err == nil || err.Error() != "backend down" {
				t.Errorf("err %v", err)
			}
		}(i)
	}
	wg.Wait()
}

// fakePrewarmer wraps fakeInvoker with a Prewarm recorder.
type fakePrewarmer struct {
	*fakeInvoker
	mu    sync.Mutex
	wants []int
}

func (f *fakePrewarmer) Prewarm(action string, want int) (int, error) {
	f.mu.Lock()
	f.wants = append(f.wants, want)
	f.mu.Unlock()
	return want, nil
}

func TestQueueDepthDrivesPrewarm(t *testing.T) {
	inv := &fakePrewarmer{fakeInvoker: newFakeInvoker()}
	inv.block = make(chan struct{})
	inv.started = make(chan struct{}, 8)
	g := New(Config{
		MaxBatch: 1, MaxWait: time.Millisecond, MaxInFlight: 1, MaxQueue: 64,
		PrewarmDepth: 2, PrewarmMax: 4,
	}, inv)
	defer g.Close()

	go g.Do(context.Background(), "fn", req("m", 0))
	<-inv.started
	for i := 1; i <= 6; i++ {
		go g.Do(context.Background(), "fn", req("m", i))
	}
	for g.Stats().Accepted != 7 {
		time.Sleep(100 * time.Microsecond)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		inv.mu.Lock()
		n := len(inv.wants)
		maxWant := 0
		for _, w := range inv.wants {
			if w > maxWant {
				maxWant = w
			}
		}
		inv.mu.Unlock()
		if n > 0 && maxWant >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("prewarm never requested warm capacity")
		}
		time.Sleep(time.Millisecond)
	}
	if g.Stats().Prewarmed == 0 {
		t.Fatalf("stats %+v", g.Stats())
	}
	close(inv.block)
}

func TestMetricsPopulated(t *testing.T) {
	inv := newFakeInvoker()
	g := New(Config{MaxBatch: 2, MaxWait: time.Millisecond}, inv)
	defer g.Close()
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := g.Do(context.Background(), "fn", req("m", i)); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	m := g.Metrics()
	if m.BatchSizes.Count() == 0 || m.QueueDepth.Count() != 6 {
		t.Fatalf("histograms: batches %d depth %d", m.BatchSizes.Count(), m.QueueDepth.Count())
	}
	if m.E2E.Count() != 6 || m.QueueWait.Count() != 6 {
		t.Fatalf("latencies: e2e %d wait %d", m.E2E.Count(), m.QueueWait.Count())
	}
	if m.BatchSizes.Max() > 2 {
		t.Fatalf("batch size %v exceeds MaxBatch", m.BatchSizes.Max())
	}
}

func TestAggregatePendingBoundAcrossModelIDs(t *testing.T) {
	// Per-queue bounds alone cannot shed load spread over many model ids;
	// the aggregate MaxPending must trip instead.
	inv := &stuckInvoker{}
	g := New(Config{MaxBatch: 1, MaxWait: time.Millisecond, MaxQueue: 64, MaxInFlight: 1, MaxPending: 8}, inv)

	var overloaded int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
			defer cancel()
			_, err := g.Do(ctx, "fn", req(fmt.Sprintf("model-%d", i), i))
			if errors.Is(err, ErrOverloaded) {
				mu.Lock()
				overloaded++
				mu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	mu.Lock()
	n := overloaded
	mu.Unlock()
	if n == 0 {
		t.Fatal("aggregate pending bound never tripped across distinct model ids")
	}
	g.Close()
}

func TestDrainedQueuesAreReaped(t *testing.T) {
	inv := newFakeInvoker()
	g := New(Config{MaxBatch: 4, MaxWait: time.Millisecond}, inv)
	defer g.Close()
	for i := 0; i < 32; i++ {
		if _, err := g.Do(context.Background(), "fn", req(fmt.Sprintf("model-%d", i), i)); err != nil {
			t.Fatal(err)
		}
	}
	// Every queue drained; reaping happens at dispatch completion or on the
	// deadline timer's next fire.
	deadline := time.Now().Add(2 * time.Second)
	for {
		st := g.Stats()
		if st.Queues == 0 && st.Pending == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("queues not reaped: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestColdQueueDeadlineWatchdogLeavesServiceMargin is the regression test
// for the cold-queue watchdog margin: on a queue that has never completed a
// batch (svcEWMA == 0) the deadline flush margin collapsed to ~1ms, so the
// watchdog fired a breath before the deadline and the request missed it
// anyway. Config.MinService floors the estimate: the first-ever request on a
// queue must dispatch with a real service window left, not at the wire.
func TestColdQueueDeadlineWatchdogLeavesServiceMargin(t *testing.T) {
	inv := newFakeInvoker()
	inv.block = make(chan struct{})
	inv.started = make(chan struct{}, 8)
	// MaxWait an hour, and a held dispatch keeps the queue busy without ever
	// completing a batch: only the deadline machinery can flush this one.
	g := New(Config{MaxBatch: 64, MaxWait: time.Hour, MinService: 150 * time.Millisecond}, inv)
	defer g.Close()
	held := occupy(t, g, inv)

	start := time.Now()
	tk, err := g.Submit(context.Background(), Request{
		Action:   "fn",
		Deadline: start.Add(200 * time.Millisecond),
		Body:     semirt.Request{UserID: "u", ModelID: "m", Payload: []byte("cold")},
	})
	if err != nil {
		t.Fatal(err)
	}
	<-inv.started
	// The margin (MinService + 25% + 1ms ≈ 189ms) flushes almost immediately;
	// the buggy ~1ms margin waited until ~199ms after submit.
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Fatalf("dispatch took %v, want well before the 200ms deadline (margin floor)", d)
	}
	close(inv.block)
	if _, err := tk.Wait(context.Background()); err != nil {
		t.Fatalf("cold-queue deadline request failed: %v", err)
	}
	if _, err := held.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, sizes := inv.dispatched("fn"); len(sizes) != 2 || sizes[1] != 1 {
		t.Fatalf("dispatched %v, want the held batch then the single cold request", sizes)
	}
}

// TestCancelRacesDispatchExactlyOnce runs Ticket.Cancel against the dispatch
// fan-out under -race: for every ticket exactly one of the two wins — Cancel
// reports true iff Wait observes ErrCanceled — and the pending gauge returns
// to zero with served + canceled covering every accepted request.
func TestCancelRacesDispatchExactlyOnce(t *testing.T) {
	inv := newFakeInvoker()
	g := New(Config{MaxBatch: 4, MaxWait: time.Millisecond, MaxInFlight: 2, MaxQueue: 1024}, inv)
	defer g.Close()

	const n = 200
	canceled := make([]bool, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		tk, err := g.Submit(context.Background(), Request{Action: "fn", Body: req("m", i)})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(2)
		go func(i int) {
			defer wg.Done()
			canceled[i] = tk.Cancel()
		}(i)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = tk.Wait(context.Background())
		}(i)
	}
	wg.Wait()

	var served, withdrawn int
	for i := 0; i < n; i++ {
		if canceled[i] != errors.Is(errs[i], ErrCanceled) {
			t.Fatalf("ticket %d: Cancel=%v but Wait err=%v", i, canceled[i], errs[i])
		}
		if canceled[i] {
			withdrawn++
		} else if errs[i] == nil {
			served++
		} else {
			t.Fatalf("ticket %d failed with %v", i, errs[i])
		}
	}
	st := g.Stats()
	if st.Pending != 0 {
		t.Fatalf("pending %d after settle, want 0 (double decrement?)", st.Pending)
	}
	if st.Served+st.Canceled != n || int(st.Canceled) != withdrawn || int(st.Served) != served {
		t.Fatalf("accounting: served=%d canceled=%d (observed %d/%d), want total %d",
			st.Served, st.Canceled, served, withdrawn, n)
	}
}
