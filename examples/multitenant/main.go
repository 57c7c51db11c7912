// Multitenant demonstrates the serving API v2: the tenant-aware request
// envelope (gateway.Request), the async Submit/Ticket surface, weighted
// fair queueing across tenants, per-tenant admission quotas, and deadline
// shedding.
//
// A "free"-tier tenant floods the gateway while a "gold" tenant (weight 4)
// sends sparse requests: deficit round robin keeps gold's latency near its
// undisturbed baseline instead of queueing it behind the flood, and the
// free tenant's own quota — not the shared queue — is what pushes back.
//
// Run with: go run ./examples/multitenant
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"sync"
	"time"

	"sesemi/internal/bench"
	"sesemi/internal/gateway"
)

func main() {
	// A complete in-process deployment (KeyService, SGX2 cluster, one SeMIRT
	// action) fronted by the batching gateway.
	w, err := bench.NewLiveWorld(bench.LiveWorldConfig{
		Gateway: gateway.Config{
			MaxBatch:      8,
			MaxWait:       2 * time.Millisecond,
			MaxQueue:      1024,
			TenantQuota:   32, // a tenant's backlog beyond this is ITS problem
			TenantWeights: map[string]int{"gold": 4},
		},
	})
	check(err)
	defer w.Close()
	ctx := context.Background()

	// --- Submit/Ticket: the async surface ---------------------------------
	req, err := w.Request(1)
	check(err)
	tk, err := w.Gateway.Submit(ctx, gateway.Request{
		Action:   w.Action,
		Tenant:   "gold",
		Priority: 1, // ahead of gold's own priority-0 traffic, never of other tenants
		Body:     req,
	})
	check(err)
	// ... the caller is free to do other work here ...
	resp, err := tk.Wait(ctx)
	check(err)
	fmt.Printf("async submit: served %s (%d bytes)\n", resp.Kind, len(resp.Payload))

	// --- Deadlines: a request that cannot make it is shed, not served -----
	req, err = w.Request(2)
	check(err)
	_, err = w.Gateway.Submit(ctx, gateway.Request{
		Action:   w.Action,
		Tenant:   "gold",
		Deadline: time.Now().Add(-time.Millisecond), // already stale
		Body:     req,
	})
	fmt.Printf("stale deadline: %v (no batch slot burned)\n", err)

	// --- Fairness under a flood ------------------------------------------
	// The free tenant saturates the queue with closed-loop clients; gold
	// sends one request at a time. Weighted DRR gives gold its share of
	// every batch, so its latency stays flat.
	stop := make(chan struct{})
	var flooders sync.WaitGroup
	for c := 0; c < 64; c++ {
		flooders.Add(1)
		go func(c int) {
			defer flooders.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				fr, err := w.Request(1000 + c*1000 + i)
				if err != nil {
					return
				}
				ftk, err := w.Gateway.Submit(ctx, gateway.Request{
					Action: w.Action, Tenant: "free", Body: fr,
				})
				if errors.Is(err, gateway.ErrTenantOverloaded) {
					time.Sleep(time.Millisecond) // the quota says back off
					continue
				}
				if err != nil {
					return
				}
				ftk.Wait(ctx)
			}
		}(c)
	}
	time.Sleep(50 * time.Millisecond) // let the flood establish its backlog

	var worst time.Duration
	for i := 0; i < 16; i++ {
		gr, err := w.Request(3000 + i)
		check(err)
		t0 := time.Now()
		gtk, err := w.Gateway.Submit(ctx, gateway.Request{Action: w.Action, Tenant: "gold", Body: gr})
		check(err)
		_, err = gtk.Wait(ctx)
		check(err)
		if d := time.Since(t0); d > worst {
			worst = d
		}
	}
	close(stop)
	flooders.Wait()
	fmt.Printf("gold worst latency under the free-tier flood: %v\n", worst.Round(100*time.Microsecond))

	// --- Ticket.Cancel ----------------------------------------------------
	req, err = w.Request(4)
	check(err)
	tk, err = w.Gateway.Submit(ctx, gateway.Request{Action: w.Action, Tenant: "gold", Body: req})
	check(err)
	if tk.Cancel() {
		fmt.Println("cancel: withdrawn while still queued")
	} else {
		fmt.Println("cancel: already riding a batch; response is accounted")
	}

	// --- Per-tenant accounting -------------------------------------------
	for _, tenant := range []string{"gold", "free"} {
		tc := w.Gateway.TenantSnapshot()[tenant]
		fmt.Printf("%-5s accepted %5d  served %5d  quota-rejected %5d  shed %d\n",
			tenant, tc.Accepted, tc.Served, tc.Rejected, tc.Shed)
	}
	st := w.Gateway.Stats()
	fmt.Printf("gateway: %d batches, %d tenant-quota rejections, %d deadline-shed\n",
		st.Batches, st.TenantRejected, st.Shed)
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
