package bench

import (
	"context"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sesemi/internal/autoscale"
	"sesemi/internal/faults"
	"sesemi/internal/gateway"
	"sesemi/internal/rollout"
	"sesemi/internal/semirt"
	"sesemi/internal/workload"
)

// Behavioural gates on the live serving stack: each runs one small seeded
// configuration and asserts an outcome (nothing lost, rolled back, warm),
// never a wall-clock ratio.

// runChaos drives a closed loop through a fresh two-node world while a
// seeded schedule crashes node-0 and takes the KeyService down at one third
// of the run, then restores node-0 into a second outage at one half;
// throughout, every activation flips a sandbox-crash coin. recovery arms the
// gateway retries and the runtime's key-service retries and brownout. It
// returns the requests lost to their callers.
func runChaos(t *testing.T, recovery bool) int {
	t.Helper()
	const clients, perClient = 8, 8
	const ksOutage = 100 * time.Millisecond
	inj := faults.New(1, nil)
	inj.SetSandboxCrashProb(0.1)
	cfg := LiveWorldConfig{
		Nodes:        2,
		ExecCost:     2 * time.Millisecond,
		StartEnclave: true,
		Faults:       inj,
		Gateway: gateway.Config{
			MaxBatch:     4,
			MaxWait:      2 * time.Millisecond,
			MaxQueue:     4096,
			MaxInFlight:  8,
			PrewarmDepth: 32,
		},
	}
	if recovery {
		cfg.Gateway.MaxRetries = 3
		cfg.Gateway.RetryBackoff = time.Millisecond
		cfg.KSRetries = 3
		cfg.KSRetryBackoff = 50 * time.Millisecond
		cfg.KSBrownout = 250 * time.Millisecond
	}
	w, err := NewLiveWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	// Warm the full capacity (two sandboxes per node) first, so failover
	// lands on warm capacity rather than waiting out an enclave launch.
	if _, err := w.Cluster.Prewarm(w.Action, 4); err != nil {
		t.Fatal(err)
	}
	// The schedule triggers on served-request count, not wall time, so it
	// lands at the same fraction of the run on any machine.
	const total = clients * perClient
	var served atomic.Int64
	do := func(ctx context.Context, seed int) (semirt.Response, error) {
		switch served.Add(1) {
		case total / 3:
			inj.CrashNode("node-0")
			inj.KeyServiceOutage(ksOutage)
		case total / 2:
			// The flap: node-0 comes back while the KeyService is down
			// again, so rebuilding its enclaves provisions into the outage.
			inj.RestoreNode("node-0")
			inj.KeyServiceOutage(ksOutage)
		}
		return w.DoGateway(ctx, seed)
	}
	res := ClosedLoop("chaos", clients, perClient, do)
	is := inj.Stats()
	t.Logf("recovery=%v: %d/%d lost, %d retries, %d sandbox crashes, %d ks rejects",
		recovery, res.Errors, res.Requests, w.Gateway.Stats().Retries, is.SandboxCrashes, is.KSRejects)
	return res.Errors
}

// TestChaosSmoke: with the recovery plane armed the fault schedule loses no
// request; with it off the identical schedule visibly loses some, or the
// injector proved nothing.
func TestChaosSmoke(t *testing.T) {
	if lost := runChaos(t, true); lost != 0 {
		t.Fatalf("%d requests lost with recovery armed, want 0", lost)
	}
	if lost := runChaos(t, false); lost == 0 {
		t.Fatal("no request lost with recovery off: the fault schedule did not bite")
	}
}

// slowSubmitter makes a canary revision misbehave: requests for slowID pay
// extra latency before reaching the gateway, as a slower model build would.
type slowSubmitter struct {
	g      *gateway.Gateway
	slowID string
	extra  time.Duration
}

func (s slowSubmitter) Submit(ctx context.Context, req gateway.Request) (*gateway.Ticket, error) {
	if req.Body.ModelID == s.slowID {
		time.Sleep(s.extra)
	}
	return s.g.Submit(ctx, req)
}

// TestRolloutSmoke ramps a deliberately slow canary revision through the real
// gateway: the SLO gate must catch it, roll it back and revoke its
// measurement without losing a request. The controller is ticked once per
// closed-loop observation window, so the outcome does not depend on timer
// jitter.
func TestRolloutSmoke(t *testing.T) {
	const (
		canary             = "mbnet@v2"
		users              = 16
		clients, perWindow = 8, 6
	)
	steps := []int{25, 50, 100}
	w, err := NewLiveWorld(LiveWorldConfig{
		Users:       users,
		ExtraModels: []string{canary},
		Gateway: gateway.Config{
			MaxBatch:     4,
			MaxWait:      2 * time.Millisecond,
			MaxQueue:     4096,
			MaxInFlight:  8,
			PrewarmDepth: 32,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	split := rollout.NewSplitter(w.Model)
	var revoked []string
	ctrl, err := rollout.NewController(rollout.Config{
		Splitter:   split,
		Canary:     canary,
		Steps:      steps,
		MinSamples: 5,
		SLO:        rollout.SLO{MaxLatencyRatio: 2},
		Revoke: func(c string) error {
			revoked = append(revoked, c)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	sub := slowSubmitter{g: w.Gateway, slowID: canary, extra: 15 * time.Millisecond}
	do := func(ctx context.Context, seed int) (semirt.Response, error) {
		u := seed % users
		return split.Do(ctx, sub, "", "u"+strconv.Itoa(u), func(modelID string) (gateway.Request, error) {
			req, err := w.RequestForUser(u, modelID, seed)
			if err != nil {
				return gateway.Request{}, err
			}
			return gateway.Request{Action: w.Action, Hints: gateway.Hints{User: string(req.UserID)}, Body: req}, nil
		})
	}

	ctrl.Begin()
	lost := 0
	// Every healthy window promotes one step, so steps+3 windows is
	// promote-or-breach with slack for windows held for too few samples.
	for wnd := 0; wnd < len(steps)+3 && ctrl.Status().Phase == rollout.PhaseRamping; wnd++ {
		lost += ClosedLoop("window", clients, perWindow, do).Errors
		ctrl.Tick()
	}
	st := ctrl.Status()
	if st.Phase != rollout.PhaseRolledBack {
		t.Fatalf("slow canary ended %q, want rolled back", st.Phase)
	}
	if len(revoked) != 1 || revoked[0] != canary {
		t.Fatalf("revoked %v, want [%s]", revoked, canary)
	}
	if lost != 0 {
		t.Fatalf("%d requests lost during the ramp", lost)
	}
}

// TestAutoscaleSteadyWarmHitNotBelowReactive is the live half of the
// scale-down safety property (the -race in-flight half lives in
// internal/serverless): on a steady trace, an active autoscaler — adaptive
// keep-warm included — must serve every request and must not push the
// action's warm-hit rate below the reactive baseline's by more than noise.
// Scale-down may only reap capacity the forecast no longer wants; a steady
// stream's pool is always wanted.
func TestAutoscaleSteadyWarmHitNotBelowReactive(t *testing.T) {
	const (
		keepWarm = 2 * time.Second
		window   = 100 * time.Millisecond
		slots    = 2
	)
	tr := workload.FixedRate(12, 3*time.Second, "mbnet", "u")

	warmHit := func(predictive bool) (float64, int) {
		cfg := LiveWorldConfig{
			NodeMemory:     2 << 30, // eight 256 MiB sandboxes
			Concurrency:    slots,
			ExecCost:       20 * time.Millisecond,
			SandboxStart:   100 * time.Millisecond,
			KeepWarm:       keepWarm,
			ReaperInterval: keepWarm / 8,
			StartEnclave:   true,
			Gateway: gateway.Config{
				MaxBatch:    4,
				MaxWait:     4 * time.Millisecond,
				MaxQueue:    8192,
				MaxInFlight: 16,
			},
		}
		if predictive {
			cfg.Autoscale = &autoscale.Config{
				Window:          window,
				Horizon:         4,
				Headroom:        1,
				MaxWarm:         8,
				SlotsPerSandbox: slots,
				MinKeepWarm:     keepWarm / 4,
				MaxKeepWarm:     keepWarm,
			}
		} else {
			// The reactive baseline: depth-triggered prewarm, fixed keep-warm.
			cfg.Gateway.PrewarmDepth = 8
			cfg.Gateway.PrewarmMax = 8
		}
		w, err := NewLiveWorld(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		_, _, errs := OpenLoopGateway(w, tr)
		st, err := w.Cluster.ActionStats(w.Action)
		if err != nil {
			t.Fatal(err)
		}
		total := float64(st.WarmHits + st.ColdStarts)
		if total == 0 {
			t.Fatal("no claims recorded")
		}
		return float64(st.WarmHits) / total, errs
	}

	reactive, rerrs := warmHit(false)
	predictive, perrs := warmHit(true)
	if rerrs != 0 || perrs != 0 {
		t.Fatalf("errors on a steady trace: reactive %d, predictive %d", rerrs, perrs)
	}
	if predictive < reactive-0.15 {
		t.Fatalf("steady warm-hit rate dropped under the autoscaler: predictive %.2f vs reactive %.2f",
			predictive, reactive)
	}
	t.Logf("steady warm-hit: reactive %.2f, predictive %.2f", reactive, predictive)
}

// TestAffinityWarmHit: on a 4-node / 4-model deployment with two sandboxes
// per node, affinity routing homes each model on its own node, so at least
// 80% of requests find their model's enclave hot.
func TestAffinityWarmHit(t *testing.T) {
	const clients, perClient = 64, 8
	w, err := NewLiveWorld(LiveWorldConfig{
		Nodes:  4,
		Models: 4,
		Gateway: gateway.Config{
			MaxBatch:     8,
			MaxWait:      4 * time.Millisecond,
			MaxQueue:     4096,
			MaxInFlight:  8,
			PrewarmDepth: 32,
			Affinity:     true,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	var mu sync.Mutex
	kinds := map[semirt.InvocationKind]int{}
	// Client c is pinned to model c mod 4 (seeds run c*perClient+i).
	res := ClosedLoop("affinity", clients, perClient, func(ctx context.Context, seed int) (semirt.Response, error) {
		resp, err := w.DoGatewayFor(ctx, w.Models[(seed/perClient)%len(w.Models)], seed)
		if err == nil {
			mu.Lock()
			kinds[resp.Kind]++
			mu.Unlock()
		}
		return resp, err
	})
	if res.Errors != 0 {
		t.Fatalf("%d errors", res.Errors)
	}
	hot := float64(kinds[semirt.Hot]) / float64(res.Requests)
	t.Logf("kinds %v, hot %.2f, %d rehomes", kinds, hot, w.Gateway.Stats().Rehomes)
	if hot < 0.8 {
		t.Fatalf("warm-hit rate %.2f < 0.8", hot)
	}
}
