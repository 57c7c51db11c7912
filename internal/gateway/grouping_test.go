package gateway

import (
	"context"
	"testing"
	"time"

	"sesemi/internal/secure"
	"sesemi/internal/semirt"
)

// submitUsers enqueues one request per user key (in order) and returns the
// tickets; on a busy queue, MaxBatch equal to the count makes the final
// submit flush them as ONE batch.
func submitUsers(t *testing.T, g *Gateway, users []string) []*Ticket {
	t.Helper()
	tks := make([]*Ticket, len(users))
	for i, u := range users {
		tk, err := g.Submit(context.Background(), Request{
			Action: "fn",
			Hints:  Hints{User: u},
			Body:   semirt.Request{UserID: secure.ID(u), ModelID: "m", Payload: []byte{byte(i)}},
		})
		if err != nil {
			t.Fatal(err)
		}
		tks[i] = tk
	}
	return tks
}

// TestGroupUsersFormsRuns: with GroupUsers on, an interleaved submission
// order dispatches as same-user runs; responses still land on the right
// tickets. Without the knob the batch keeps arrival order.
func TestGroupUsersFormsRuns(t *testing.T) {
	users := []string{"a", "b", "a", "b", "a", "b"}

	run := func(group bool) []string {
		inv := newFakeInvoker()
		inv.block = make(chan struct{})
		inv.started = make(chan struct{}, 8)
		g := New(Config{MaxBatch: len(users), MaxWait: time.Hour, GroupUsers: group}, inv)
		defer g.Close()
		// A held dispatch keeps the queue busy, so the users gather into one
		// full batch instead of the first shipping alone.
		occupy(t, g, inv)
		tks := submitUsers(t, g, users)
		close(inv.block)
		for i, tk := range tks {
			resp, err := tk.Wait(context.Background())
			if err != nil {
				t.Fatalf("ticket %d: %v", i, err)
			}
			// The echo invoker returns each request's own payload: ticket i
			// must receive request i's bytes regardless of dispatch order.
			if len(resp.Payload) != 1 || resp.Payload[0] != byte(i) {
				t.Fatalf("ticket %d got payload %v", i, resp.Payload)
			}
		}
		inv.mu.Lock()
		defer inv.mu.Unlock()
		if len(inv.batches["fn"]) != 2 {
			t.Fatalf("dispatched %d batches, want the held one and 1 more", len(inv.batches["fn"]))
		}
		var order []string
		for _, r := range inv.batches["fn"][1] {
			order = append(order, string(r.UserID))
		}
		return order
	}

	grouped := run(true)
	want := []string{"a", "a", "a", "b", "b", "b"}
	for i := range want {
		if grouped[i] != want[i] {
			t.Fatalf("grouped dispatch order %v, want %v", grouped, want)
		}
	}
	fifo := run(false)
	for i, u := range users {
		if fifo[i] != u {
			t.Fatalf("ungrouped dispatch order %v, want arrival order %v", fifo, users)
		}
	}
}

// TestDeadlinePropagatesIntoBody: the envelope deadline is threaded into
// the enclave request, so the backend can shed members mid-batch.
func TestDeadlinePropagatesIntoBody(t *testing.T) {
	inv := newFakeInvoker()
	g := New(Config{MaxBatch: 1, MaxWait: time.Hour}, inv)
	defer g.Close()
	dl := time.Now().Add(time.Hour).Truncate(0)
	tk, err := g.Submit(context.Background(), Request{
		Action:   "fn",
		Deadline: dl,
		Body:     semirt.Request{UserID: "u", ModelID: "m", Payload: []byte{1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tk.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	inv.mu.Lock()
	defer inv.mu.Unlock()
	got := inv.batches["fn"][0][0].Deadline
	if !got.Equal(dl) {
		t.Fatalf("backend saw deadline %v, want %v", got, dl)
	}
}

// TestGroupRunNeverCrossesTenantBoundary is the regression test for the
// drain-state leak: a group run's (group, inRun) survived the deficit round
// robin's advance to the next tenant, so popGroup scanned tenant B's
// sub-queue for tenant A's user key and could pull a later B request over an
// earlier one — a cross-tenant grouping violation of B's FIFO order. The
// run state must reset at every tenant boundary.
func TestGroupRunNeverCrossesTenantBoundary(t *testing.T) {
	inv := newFakeInvoker()
	inv.block = make(chan struct{})
	inv.started = make(chan struct{}, 8)
	g := New(Config{MaxBatch: 2, MaxWait: time.Hour, MaxInFlight: 1, GroupUsers: true}, inv)
	defer g.Close()

	submit := func(tenant, user string, payload byte) *Ticket {
		t.Helper()
		tk, err := g.Submit(context.Background(), Request{
			Action: "fn",
			Tenant: tenant,
			Hints:  Hints{User: user},
			Body:   semirt.Request{UserID: secure.ID(user), ModelID: "m", Payload: []byte{payload}},
		})
		if err != nil {
			t.Fatal(err)
		}
		return tk
	}

	// A filler occupies the only dispatch slot (blocked in the invoker), so
	// the interesting arrivals queue up and drain together afterwards.
	tks := []*Ticket{submit("fill", "f", 'x')}
	<-inv.started
	// Tenant A queues user g1; tenant B queues g2 then two g1s. The round
	// robin takes A's g1 first — if the run leaks across the boundary,
	// popGroup hoists B's g1 over B's earlier g2. Four queued requests form
	// two full batches, each shipped by the completion of the one before.
	tks = append(tks, submit("A", "g1", 'a'), submit("B", "g2", 'b'),
		submit("B", "g1", 'c'), submit("B", "g1", 'd'))
	close(inv.block)
	for i, tk := range tks {
		if _, err := tk.Wait(context.Background()); err != nil {
			t.Fatalf("ticket %d: %v", i, err)
		}
	}

	payloads, sizes := inv.dispatched("fn")
	if len(sizes) != 3 || sizes[1] != 2 || sizes[2] != 2 {
		t.Fatalf("batch sizes %v, want [1 2 2]", sizes)
	}
	// Second batch: A's g1 plus tenant B's OLDEST request (g2) — not a B:g1
	// hoisted over it by A's leaked group run.
	if got := payloads[1] + payloads[2]; got != "ab" {
		t.Fatalf("second batch %q, want \"ab\" (A:g1 then B:g2, tenant FIFO intact)", got)
	}
	if got := payloads[3] + payloads[4]; got != "cd" {
		t.Fatalf("last batch %q, want \"cd\"", got)
	}
}
