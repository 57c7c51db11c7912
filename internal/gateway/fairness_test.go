package gateway

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"sesemi/internal/secure"
	"sesemi/internal/semirt"
)

// treq builds a v2 envelope for tenant; the Body's UserID doubles as the
// tenant so test invokers can attribute dispatches from the wire.
func treq(tenant string, i int) Request {
	return Request{
		Action: "fn",
		Tenant: tenant,
		Body: semirt.Request{UserID: secure.ID("u-" + tenant), ModelID: "m",
			Payload: []byte(fmt.Sprintf("%s|p-%d", tenant, i))},
	}
}

// occupy fills the gateway's single dispatch slot with a sentinel request
// that blocks in inv until inv.block is closed, so everything submitted
// afterwards backlogs and drains in one deterministic DRR sequence.
func occupy(t *testing.T, g *Gateway, inv *fakeInvoker) *Ticket {
	t.Helper()
	tk, err := g.Submit(context.Background(), treq("warm", 0))
	if err != nil {
		t.Fatal(err)
	}
	<-inv.started
	return tk
}

func TestSubmitTicketLifecycle(t *testing.T) {
	inv := newFakeInvoker()
	g := New(Config{MaxBatch: 2, MaxWait: time.Millisecond}, inv)
	defer g.Close()

	tk, err := g.Submit(context.Background(), treq("a", 1))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := tk.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if string(resp.Payload) != "a|p-1" {
		t.Fatalf("payload %q", resp.Payload)
	}
	// Wait is repeatable after settlement.
	if _, err := tk.Wait(context.Background()); err != nil {
		t.Fatalf("second Wait: %v", err)
	}
	// Cancel after completion reports not-withdrawn and does not clobber
	// the settled result.
	if tk.Cancel() {
		t.Fatal("Cancel after completion reported withdrawn")
	}
	if resp, err := tk.Wait(context.Background()); err != nil || string(resp.Payload) != "a|p-1" {
		t.Fatalf("Wait after late Cancel: %q, %v", resp.Payload, err)
	}
}

func TestWaitCtxExpiryLeavesRequestQueued(t *testing.T) {
	inv := newFakeInvoker()
	inv.block = make(chan struct{})
	inv.started = make(chan struct{}, 8)
	g := New(Config{MaxBatch: 1, MaxWait: time.Millisecond, MaxInFlight: 1, MaxQueue: 16}, inv)
	defer g.Close()

	occupy(t, g, inv)
	tk, err := g.Submit(context.Background(), treq("a", 1))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if _, err := tk.Wait(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Wait err %v, want DeadlineExceeded", err)
	}
	// Unlike Do's ctx, an expired Wait ctx does not withdraw: the request
	// is still queued, dispatches once the slot frees, and a later Wait
	// observes the response.
	close(inv.block)
	resp, err := tk.Wait(context.Background())
	if err != nil || string(resp.Payload) != "a|p-1" {
		t.Fatalf("re-Wait: %q, %v", resp.Payload, err)
	}
}

func TestCancelWithdrawsQueuedTicket(t *testing.T) {
	inv := newFakeInvoker()
	inv.block = make(chan struct{})
	inv.started = make(chan struct{}, 8)
	g := New(Config{MaxBatch: 1, MaxWait: time.Millisecond, MaxInFlight: 1, MaxQueue: 16}, inv)
	defer g.Close()

	occupy(t, g, inv)
	tk, err := g.Submit(context.Background(), treq("a", 99))
	if err != nil {
		t.Fatal(err)
	}
	if !tk.Cancel() {
		t.Fatal("Cancel of a queued ticket reported not-withdrawn")
	}
	if tk.Cancel() {
		t.Fatal("second Cancel reported withdrawn again")
	}
	if _, err := tk.Wait(context.Background()); !errors.Is(err, ErrCanceled) {
		t.Fatalf("Wait err %v, want ErrCanceled", err)
	}
	close(inv.block)
	for g.Stats().Served != 1 {
		time.Sleep(100 * time.Microsecond)
	}
	for _, p := range firstPayloads(inv, "fn") {
		if p == "a|p-99" {
			t.Fatal("canceled request was dispatched")
		}
	}
}

func firstPayloads(inv *fakeInvoker, action string) []string {
	ps, _ := inv.dispatched(action)
	return ps
}

func TestTenantQuotaRejectsTyped(t *testing.T) {
	inv := newFakeInvoker()
	inv.block = make(chan struct{})
	inv.started = make(chan struct{}, 8)
	g := New(Config{MaxBatch: 1, MaxWait: time.Millisecond, MaxInFlight: 1,
		MaxQueue: 64, TenantQuota: 2}, inv)
	defer g.Close()

	occupy(t, g, inv)
	for i := 0; i < 2; i++ {
		if _, err := g.Submit(context.Background(), treq("hog", i)); err != nil {
			t.Fatal(err)
		}
	}
	// The hog's third request trips ITS quota...
	if _, err := g.Submit(context.Background(), treq("hog", 2)); !errors.Is(err, ErrTenantOverloaded) {
		t.Fatalf("err %v, want ErrTenantOverloaded", err)
	}
	if errors.Is(ErrTenantOverloaded, ErrOverloaded) {
		t.Fatal("ErrTenantOverloaded must be distinct from ErrOverloaded")
	}
	// ...while another tenant is still admitted.
	if _, err := g.Submit(context.Background(), treq("quiet", 0)); err != nil {
		t.Fatalf("quiet tenant rejected: %v", err)
	}
	st := g.Stats()
	if st.TenantRejected != 1 || st.Rejected != 0 {
		t.Fatalf("stats %+v", st)
	}
	ts := g.TenantSnapshot()
	if ts["hog"].Rejected != 1 || ts["hog"].Accepted != 2 || ts["quiet"].Accepted != 1 {
		t.Fatalf("tenant snapshot %+v", ts)
	}
	close(inv.block)
}

func TestDeadlineShedAtAdmission(t *testing.T) {
	inv := newFakeInvoker()
	g := New(Config{MaxBatch: 1, MaxWait: time.Millisecond}, inv)
	defer g.Close()

	r := treq("a", 0)
	r.Deadline = time.Now().Add(-time.Millisecond)
	if _, err := g.Submit(context.Background(), r); !errors.Is(err, ErrDeadline) {
		t.Fatalf("err %v, want ErrDeadline", err)
	}
	if st := g.Stats(); st.Shed != 1 || st.Accepted != 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestDeadlineShedAtDispatch(t *testing.T) {
	inv := newFakeInvoker()
	inv.block = make(chan struct{})
	inv.started = make(chan struct{}, 8)
	g := New(Config{MaxBatch: 1, MaxWait: time.Millisecond, MaxInFlight: 1, MaxQueue: 16}, inv)
	defer g.Close()

	occupy(t, g, inv)
	r := treq("a", 7)
	r.Deadline = time.Now().Add(10 * time.Millisecond)
	tk, err := g.Submit(context.Background(), r)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // deadline passes while slot-blocked
	close(inv.block)
	if _, err := tk.Wait(context.Background()); !errors.Is(err, ErrDeadline) {
		t.Fatalf("Wait err %v, want ErrDeadline", err)
	}
	for _, p := range firstPayloads(inv, "fn") {
		if p == "a|p-7" {
			t.Fatal("expired request burned a batch slot")
		}
	}
	if st := g.Stats(); st.Shed != 1 {
		t.Fatalf("stats %+v", st)
	}
}

// TestTightDeadlineServedOnIdleQueue: a deadline shorter than the MaxWait
// formation window must not be starved by the gateway's own timer — the
// idle queue dispatches the request at once and it is served, not shed.
// (TestColdQueueDeadlineWatchdogLeavesServiceMargin covers the busy queue,
// where the deadline watchdog is what flushes.)
func TestTightDeadlineServedOnIdleQueue(t *testing.T) {
	inv := newFakeInvoker()
	g := New(Config{MaxBatch: 8, MaxWait: 10 * time.Second}, inv)
	defer g.Close()

	r := treq("a", 0)
	r.Deadline = time.Now().Add(150 * time.Millisecond)
	tk, err := g.Submit(context.Background(), r)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	resp, err := tk.Wait(ctx)
	if err != nil {
		t.Fatalf("tight-deadline request not served: %v", err)
	}
	if string(resp.Payload) != "a|p-0" {
		t.Fatalf("payload %q", resp.Payload)
	}
	if st := g.Stats(); st.Shed != 0 || st.Served != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestClosedWinsOverStaleDeadline(t *testing.T) {
	inv := newFakeInvoker()
	g := New(Config{MaxBatch: 1, MaxWait: time.Millisecond}, inv)
	g.Close()
	r := treq("a", 0)
	r.Deadline = time.Now().Add(-time.Second)
	if _, err := g.Submit(context.Background(), r); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-Close err %v, want ErrClosed", err)
	}
	if st := g.Stats(); st.Shed != 0 {
		t.Fatalf("closed gateway accounted a shed: %+v", st)
	}
}

func TestCancelAccounting(t *testing.T) {
	inv := newFakeInvoker()
	inv.block = make(chan struct{})
	inv.started = make(chan struct{}, 8)
	g := New(Config{MaxBatch: 1, MaxWait: time.Millisecond, MaxInFlight: 1, MaxQueue: 16}, inv)
	defer g.Close()

	occupy(t, g, inv)
	tk, err := g.Submit(context.Background(), treq("a", 1))
	if err != nil {
		t.Fatal(err)
	}
	tk.Cancel()
	close(inv.block)
	if st := g.Stats(); st.Canceled != 1 {
		t.Fatalf("stats %+v", st)
	}
	tc := g.TenantSnapshot()["a"]
	if tc.Accepted != 1 || tc.Canceled != 1 || tc.Served != 0 {
		t.Fatalf("tenant counts %+v", tc)
	}
}

func TestPriorityOrdersWithinTenant(t *testing.T) {
	inv := newFakeInvoker()
	inv.block = make(chan struct{})
	inv.started = make(chan struct{}, 8)
	g := New(Config{MaxBatch: 1, MaxWait: time.Millisecond, MaxInFlight: 1, MaxQueue: 16}, inv)
	defer g.Close()

	occupy(t, g, inv)
	var tks []*Ticket
	for i, prio := range []int{-1, 0, 5} {
		r := treq("a", i)
		r.Priority = prio
		tk, err := g.Submit(context.Background(), r)
		if err != nil {
			t.Fatal(err)
		}
		tks = append(tks, tk)
	}
	close(inv.block)
	for _, tk := range tks {
		if _, err := tk.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	ps := firstPayloads(inv, "fn")
	// ps[0] is the sentinel; then priority 5 jumps the tenant's line, the
	// priority-0 request passes the earlier negative-priority one.
	if len(ps) != 4 || ps[1] != "a|p-2" || ps[2] != "a|p-1" || ps[3] != "a|p-0" {
		t.Fatalf("dispatch order %v", ps)
	}
}

func TestWeightedDRRShares(t *testing.T) {
	inv := newFakeInvoker()
	inv.block = make(chan struct{})
	inv.started = make(chan struct{}, 64)
	g := New(Config{
		MaxBatch: 4, MaxWait: time.Millisecond, MaxInFlight: 1, MaxQueue: 256,
		TenantWeights: map[string]int{"big": 3, "small": 1},
	}, inv)
	defer g.Close()

	occupy(t, g, inv)
	var wg sync.WaitGroup
	submit := func(tenant string, n int) {
		for i := 0; i < n; i++ {
			tk, err := g.Submit(context.Background(), treq(tenant, i))
			if err != nil {
				t.Fatal(err)
			}
			wg.Add(1)
			go func() { defer wg.Done(); tk.Wait(context.Background()) }()
		}
	}
	submit("big", 12)
	submit("small", 12)
	close(inv.block)
	wg.Wait()

	inv.mu.Lock()
	batches := append([][]semirt.Request(nil), inv.batches["fn"]...)
	inv.mu.Unlock()
	// While both tenants backlog, every full batch carries 3 "big" and 1
	// "small" — the 3:1 weighted share. The first four post-sentinel batches
	// drain big's 12 against small's first 4.
	for bi := 1; bi <= 4; bi++ {
		counts := map[string]int{}
		for _, r := range batches[bi] {
			counts[string(r.UserID)]++
		}
		if counts["u-big"] != 3 || counts["u-small"] != 1 {
			t.Fatalf("batch %d shares %+v, want big 3 / small 1", bi, counts)
		}
	}
}

// TestPropertyNoTenantStarves is the fairness invariant under -race: with K
// light tenants and one flooding tenant at equal weight, every tenant's
// requests eventually dispatch, and at every batch boundary the served
// counts of any two still-backlogged tenants differ by at most the DRR
// bound (one quantum, +1 slack for the boundary falling mid-round).
func TestPropertyNoTenantStarves(t *testing.T) {
	prop := func(nTenants, perLight, maxBatch uint8) bool {
		k := int(nTenants)%4 + 2  // 2..5 light tenants
		m := int(perLight)%6 + 2  // 2..7 requests per light tenant
		mb := int(maxBatch)%6 + 2 // MaxBatch 2..7
		flood := 6 * m            // flooder submits far more than anyone

		inv := newFakeInvoker()
		inv.block = make(chan struct{})
		inv.started = make(chan struct{}, 1024)
		g := New(Config{MaxBatch: mb, MaxWait: time.Millisecond,
			MaxInFlight: 1, MaxQueue: 4096}, inv)
		defer g.Close()

		occupy(t, g, inv)
		want := map[string]int{"flood": flood}
		var tks []*Ticket
		push := func(tenant string, n int) {
			for i := 0; i < n; i++ {
				tk, err := g.Submit(context.Background(), treq(tenant, i))
				if err != nil {
					t.Errorf("submit %s/%d: %v", tenant, i, err)
					return
				}
				tks = append(tks, tk)
			}
		}
		push("flood", flood) // the flooder gets in first
		for l := 0; l < k; l++ {
			name := fmt.Sprintf("light%d", l)
			want[name] = m
			push(name, m)
		}
		close(inv.block)
		for _, tk := range tks {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			if _, err := tk.Wait(ctx); err != nil {
				cancel()
				t.Errorf("a request starved: %v", err)
				return false
			}
			cancel()
		}

		inv.mu.Lock()
		batches := append([][]semirt.Request(nil), inv.batches["fn"]...)
		inv.mu.Unlock()
		served := map[string]int{}
		for _, b := range batches[1:] { // [0] is the sentinel
			for _, r := range b {
				served[string(r.UserID)[2:]]++ // strip "u-"
			}
			for a, wa := range want {
				ca := served[a]
				if ca >= wa {
					continue // a exhausted: no fairness claim
				}
				for bt, wb := range want {
					cb := served[bt]
					if cb < wb && cb-ca > 2 {
						t.Errorf("DRR bound violated: %s served %d while %s served %d (both backlogged)",
							bt, cb, a, ca)
						return false
					}
				}
			}
		}
		for tenant, n := range want {
			if served[tenant] != n {
				t.Errorf("%s: served %d of %d", tenant, served[tenant], n)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}
