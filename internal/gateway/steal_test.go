package gateway

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// blockedGateway returns a gateway whose invoker blocks until release is
// closed, with every dispatch slot occupied — the "saturated shard" fixture:
// anything submitted past the in-flight batches stays queued and stealable.
func blockedGateway(t *testing.T, cfg Config) (*Gateway, *fakeInvoker, func()) {
	t.Helper()
	inv := newFakeInvoker()
	inv.block = make(chan struct{})
	g := New(cfg, inv)
	release := func() {
		inv.mu.Lock()
		block := inv.block
		inv.block = nil
		inv.mu.Unlock()
		if block != nil {
			close(block)
		}
	}
	t.Cleanup(func() { release(); g.Close() })
	return g, inv, release
}

func TestStealQueueMovesBacklogToIdlePeer(t *testing.T) {
	src, _, _ := blockedGateway(t, Config{MaxBatch: 1, MaxWait: time.Microsecond, MaxInFlight: 1})
	dstInv := newFakeInvoker()
	dst := New(Config{MaxBatch: 4, MaxWait: time.Microsecond}, dstInv)
	defer dst.Close()
	ctx := context.Background()

	// One submission occupies src's single dispatch slot (blocked); the rest
	// pile up behind it.
	const queued = 6
	var tickets []*Ticket
	for i := 0; i < queued+1; i++ {
		tk, err := src.Submit(ctx, Request{Action: "a", Body: req("m", i)})
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
	}
	waitForBacklog(t, src, queued)

	s := src.StealQueue(queued)
	if got := s.Count(); got != queued {
		t.Fatalf("stole %d, want %d", got, queued)
	}
	if s.Action() != "a" || s.Model() != "m" {
		t.Fatalf("stolen drain identifies (%q, %q), want (a, m)", s.Action(), s.Model())
	}
	if got := src.Backlog(); got != 0 {
		t.Fatalf("source backlog after steal = %d, want 0", got)
	}
	if n := dst.AcceptStolen(s); n != queued {
		t.Fatalf("accepted %d, want %d", n, queued)
	}
	if again := dst.AcceptStolen(s); again != 0 {
		t.Fatalf("a spent drain re-accepted %d requests", again)
	}

	// Every stolen request completes exactly once, served by the DESTINATION's
	// backend (the blocked source can't have answered them).
	for i, tk := range tickets[1:] {
		resp, err := tk.Wait(ctx)
		if err != nil {
			t.Fatalf("stolen request %d: %v", i, err)
		}
		if string(resp.Payload) == "" {
			t.Fatalf("stolen request %d: empty payload", i)
		}
	}
	if payloads, _ := dstInv.dispatched("a"); len(payloads) != queued {
		t.Fatalf("destination served %d requests, want %d", len(payloads), queued)
	}
	srcStats, dstStats := src.Stats(), dst.Stats()
	if srcStats.StolenOut != queued || dstStats.StolenIn != queued {
		t.Fatalf("steal counters: out=%d in=%d, want %d/%d",
			srcStats.StolenOut, dstStats.StolenIn, queued, queued)
	}
	// Admission stayed on the source, outcomes land on the destination.
	if srcStats.Accepted != queued+1 {
		t.Fatalf("source accepted = %d, want %d", srcStats.Accepted, queued+1)
	}
	if dstStats.Served != queued {
		t.Fatalf("destination served = %d, want %d", dstStats.Served, queued)
	}
}

// TestStealFairnessNeutral pins the fairness contract: stolen requests keep
// their original enqueue times (dispatch order on the destination is original
// arrival order) and burn no fresh DRR deficit on drain (resumed flag set).
func TestStealFairnessNeutral(t *testing.T) {
	src, _, _ := blockedGateway(t, Config{MaxBatch: 1, MaxWait: time.Microsecond, MaxInFlight: 1})
	ctx := context.Background()

	var tickets []*Ticket
	for i := 0; i < 4; i++ {
		tk, err := src.Submit(ctx, Request{Action: "a", Body: req("m", i)})
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
		time.Sleep(200 * time.Microsecond) // strictly ordered arrivals
	}
	waitForBacklog(t, src, 3)

	s := src.StealQueue(16)
	if s.Count() != 3 {
		t.Fatalf("stole %d, want 3", s.Count())
	}
	for i, p := range s.items {
		if i > 0 && p.enq.Before(s.items[i-1].enq) {
			t.Fatal("stolen drain reordered arrivals")
		}
	}

	// White box: accept on a fresh destination and inspect its queue before
	// any dispatch runs — the stolen items must re-enter resumed (so their
	// next drain burns no fresh deficit) at original-arrival positions.
	dst, _, _ := blockedGateway(t, Config{MaxBatch: 8, MaxWait: time.Hour, MaxInFlight: 1})
	// Park a request on the destination FIRST with a LATER arrival than the
	// stolen ones: original-arrival insertion must place every stolen item
	// ahead of it. The request before it ships at once to the idle queue and
	// holds the only dispatch slot, so the parked one and the drain stay
	// queued.
	for i := 98; i <= 99; i++ {
		if _, err := dst.Submit(ctx, Request{Action: "a", Body: req("m", i)}); err != nil {
			t.Fatal(err)
		}
	}
	dst.AcceptStolen(s)

	dst.mu.Lock()
	q := dst.queues[queueKey("a", "m")]
	if q == nil || q.size != 4 {
		dst.mu.Unlock()
		t.Fatalf("destination queue missing or wrong size")
	}
	tq := q.tenants[DefaultTenant]
	for i, p := range tq.items {
		if i < 3 && !p.resumed {
			dst.mu.Unlock()
			t.Fatalf("stolen item %d not flagged resumed: would burn fresh DRR deficit", i)
		}
		if i > 0 && p.enq.Before(tq.items[i-1].enq) {
			dst.mu.Unlock()
			t.Fatalf("destination sub-queue not in original-arrival order at %d", i)
		}
	}
	if tq.items[len(tq.items)-1].resumed {
		dst.mu.Unlock()
		t.Fatal("the destination's own (later) request should sit last and unresumed")
	}
	dst.mu.Unlock()
}

func TestAcceptStolenOnClosedGatewayFailsExactlyOnce(t *testing.T) {
	src, _, _ := blockedGateway(t, Config{MaxBatch: 1, MaxWait: time.Microsecond, MaxInFlight: 1})
	ctx := context.Background()
	var tickets []*Ticket
	for i := 0; i < 3; i++ {
		tk, err := src.Submit(ctx, Request{Action: "a", Body: req("m", i)})
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
	}
	waitForBacklog(t, src, 2)
	s := src.StealQueue(16)
	if s.Count() != 2 {
		t.Fatalf("stole %d, want 2", s.Count())
	}

	dst := New(Config{}, newFakeInvoker())
	dst.Close()
	if n := dst.AcceptStolen(s); n != 2 {
		t.Fatalf("closed destination handled %d, want 2", n)
	}
	for _, tk := range tickets[1:] {
		if _, err := tk.Wait(ctx); !errors.Is(err, ErrClosed) {
			t.Fatalf("stolen-to-closed request got %v, want ErrClosed", err)
		}
	}
}

func TestStealQueueEmptyAndClosed(t *testing.T) {
	g := New(Config{}, newFakeInvoker())
	if s := g.StealQueue(8); s.Count() != 0 {
		t.Fatalf("empty gateway yielded a %d-item drain", s.Count())
	}
	if g.StealQueue(0) != nil {
		t.Fatal("max=0 must steal nothing")
	}
	g.Close()
	if s := g.StealQueue(8); s != nil {
		t.Fatal("closed gateway must not export requests")
	}
}

// TestStealConcurrentBothDirections crosses steals between two gateways from
// racing goroutines while submitters hammer both — the deadlock-freedom check
// for the two-phase locking (and, under -race, the memory-safety one).
func TestStealConcurrentBothDirections(t *testing.T) {
	mk := func() *Gateway {
		return New(Config{MaxBatch: 4, MaxWait: 50 * time.Microsecond, MaxQueue: 4096, TenantQuota: 4096}, newFakeInvoker())
	}
	a, b := mk(), mk()
	defer a.Close()
	defer b.Close()
	ctx := context.Background()

	var stealers, submitters sync.WaitGroup
	stop := make(chan struct{})
	for _, pair := range [][2]*Gateway{{a, b}, {b, a}} {
		src, dst := pair[0], pair[1]
		stealers.Add(1)
		go func() {
			defer stealers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				dst.AcceptStolen(src.StealQueue(8))
				// Paced: a hot steal loop on a small box could bounce a drain
				// between shards faster than either one's formation timer fires.
				time.Sleep(200 * time.Microsecond)
			}
		}()
	}
	for _, g := range []*Gateway{a, b} {
		submitters.Add(1)
		go func(g *Gateway) {
			defer submitters.Done()
			for i := 0; i < 300; i++ {
				tk, err := g.Submit(ctx, Request{Action: "a", Body: req("m", i)})
				if err != nil {
					continue
				}
				if _, err := tk.Wait(ctx); err != nil {
					t.Errorf("wait: %v", err)
					return
				}
			}
		}(g)
	}
	// Every submitted request must complete even while drains bounce between
	// shards; a hang here means a steal stranded or deadlocked one.
	done := make(chan struct{})
	go func() { submitters.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("deadlock or stranded request: cross-steal never drained")
	}
	close(stop)
	stealers.Wait()
}

// waitForBacklog blocks until g's queued backlog reaches want (the dispatch
// goroutine needs a moment to drain the first batch into its blocked invoke).
func waitForBacklog(t *testing.T, g *Gateway, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for g.Backlog() < want {
		if time.Now().After(deadline) {
			t.Fatalf("backlog never reached %d (at %d)", want, g.Backlog())
		}
		time.Sleep(100 * time.Microsecond)
	}
}
