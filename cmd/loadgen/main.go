// Command loadgen replays a workload trace against a live SeMIRT action (or
// a FnPacker router) and reports latency statistics — the open-loop load
// driver used for ad-hoc measurements against the multi-process deployment.
//
// Usage:
//
//	loadgen -url http://127.0.0.1:7200/run -model mbnet -pattern poisson \
//	        -rate 5 -duration 30s -user-seed alice
//	loadgen -via-packer http://127.0.0.1:7300/invoke -models m0,m1 \
//	        -pattern mmpp -rate 5 -rate2 10 -duration 60s
//
// With -local, loadgen instead spins up a complete in-process deployment
// (KeyService, cluster, SeMIRT action) fronted by the batching gateway and
// drives it directly — open loop from the trace flags, or closed loop with
// -closed N concurrent clients:
//
//	loadgen -local -pattern poisson -rate 200 -duration 10s -max-batch 8
//	loadgen -local -closed 64 -requests 32 -max-batch 8
//	loadgen -local -closed 32 -exec-tail 10 -exec-steps 20 -continuous
//	loadgen -local -closed 256 -shards 4
//	loadgen -local -closed 32 -nodes 2 -chaos -retries 3 -crash-at 500ms -restore-at 1s
//	loadgen -local -closed 32 -revisions 2 -canary-weight 25
//
// The request keys derive from the same seeds cmd/owctl uses, so a
// deployment set up with `owctl deploy` is directly loadable.
package main

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"sesemi/internal/autoscale"
	"sesemi/internal/bench"
	"sesemi/internal/costmodel"
	"sesemi/internal/faults"
	"sesemi/internal/gateway"
	"sesemi/internal/inference"
	_ "sesemi/internal/inference/tinytflm"
	_ "sesemi/internal/inference/tinytvm"
	"sesemi/internal/metrics"
	"sesemi/internal/model"
	"sesemi/internal/obs"
	"sesemi/internal/rollout"
	"sesemi/internal/secure"
	"sesemi/internal/semirt"
	"sesemi/internal/tensor"
	"sesemi/internal/workload"
)

func main() {
	url := flag.String("url", "", "SeMIRT action /run URL (single model)")
	packer := flag.String("via-packer", "", "FnPacker /invoke base URL (multi-model)")
	modelsFlag := flag.String("models", "mbnet", "comma-separated model ids")
	baseModel := flag.String("zoo", "mbnet", "zoo architecture for input shape")
	userSeed := flag.String("user-seed", "alice", "user principal seed")
	pattern := flag.String("pattern", "poisson", "arrival pattern: fixed, poisson, mmpp, diurnal")
	shape := flag.String("shape", "", "workload shape shorthand: steady (FixedRate), burst (MMPP), diurnal (sinusoidal); overrides -pattern")
	rate := flag.Float64("rate", 2, "request rate (rps); MMPP/diurnal low state")
	rate2 := flag.Float64("rate2", 0, "MMPP/diurnal high-state rate (default 2x rate)")
	period := flag.Duration("period", 0, "diurnal period (default duration/4)")
	duration := flag.Duration("duration", 30*time.Second, "trace duration")
	seed := flag.Int64("seed", 1, "trace seed")
	conc := flag.Int("concurrency", 16, "max in-flight requests")
	local := flag.Bool("local", false, "drive an in-process gateway-fronted deployment instead of HTTP")
	closed := flag.Int("closed", 0, "with -local: closed-loop client count (0 = open loop from the trace flags)")
	requests := flag.Int("requests", 32, "with -local -closed: requests per client")
	maxBatch := flag.Int("max-batch", 8, "with -local: gateway batch bound")
	maxWait := flag.Duration("max-wait", 2*time.Millisecond, "with -local: gateway batch formation cap on a busy queue")
	affinity := flag.Bool("affinity", false, "with -local: locality-aware batch routing (sticky per-model home nodes)")
	localNodes := flag.Int("nodes", 1, "with -local: invoker node count")
	shards := flag.Int("shards", 0, "with -local -closed: front the deployment with a sharded frontier of this many gateway shards (one tenant per client; 0/1 = the single gateway)")
	localModels := flag.Int("local-models", 1, "with -local: model ids deployed on the action")
	revisions := flag.Int("revisions", 1, "with -local -closed: deployed revisions of the model (revision k is mbnet@v<k>); the highest is the canary")
	canaryWeight := flag.Int("canary-weight", 0, "with -local -revisions >= 2: percent of traffic sticky-split to the canary revision (per closed-loop client)")
	tenants := flag.Int("tenants", 0, "with -local: tenants drawing Zipf-skewed load through the v2 Submit surface (0 = single default tenant via Do)")
	tenantSkew := flag.Float64("tenant-skew", 1.2, "with -local -tenants: Zipf skew s (>1; larger = hotter hottest tenant)")
	tenantQuota := flag.Int("tenant-quota", 0, "with -local -tenants: per-tenant admission quota (0 = gateway default)")
	users := flag.Int("users", 0, "with -local: distinct user principals drawing Zipf-skewed load (0/1 = the single default user)")
	userSkew := flag.Float64("user-skew", 1.2, "with -local -users: Zipf skew s (>1; larger = hotter hottest user)")
	groupUsers := flag.Bool("group-users", false, "with -local: user-affinity batch grouping in the gateway")
	keyCache := flag.Int("key-cache", 0, "with -local: enclave key-cache size (0 = default, 1 = historical single pair)")
	autoscaleOn := flag.Bool("autoscale", false, "with -local: predictive autoscaler (forecast-driven prewarm + adaptive keep-warm) instead of depth-triggered prewarm")
	sandboxStart := flag.Duration("sandbox-start", 0, "with -local: modeled container start latency (what prewarming hides; 0 = free starts)")
	keepWarm := flag.Duration("keep-warm", 0, "with -local: idle-sandbox deadline (0 = the 3-minute default); the adaptive ceiling under -autoscale")
	execTail := flag.Int("exec-tail", 0, "with -local: every Nth request is long, running -exec-steps execution steps (0 = homogeneous single-step mix)")
	execSteps := flag.Int("exec-steps", 20, "with -local -exec-tail: execution step count for the long requests")
	execCost := flag.Duration("exec-cost", 2*time.Millisecond, "with -local -exec-tail: modeled per-step execution latency")
	continuous := flag.Bool("continuous", false, "with -local: continuous batching (session step loop with mid-batch admission and step-boundary preemption)")
	preemptAfter := flag.Int("preempt-after", 0, "with -local -continuous: per-session step budget before an over-budget member is preempted (0 = gateway default)")
	retries := flag.Int("retries", 0, "with -local: gateway retry budget for failed dispatches (0 = fail fast; also arms the runtime's key-service retries under -chaos)")
	retryBackoff := flag.Duration("retry-backoff", time.Millisecond, "with -local -retries: base exponential backoff between retries")
	chaos := flag.Bool("chaos", false, "with -local: arm the seeded fault injector (sandbox-crash coin, plus -crash-at/-restore-at node crash and key-service flap)")
	crashProb := flag.Float64("crash-prob", 0.05, "with -local -chaos: per-activation sandbox crash probability")
	crashAt := flag.Duration("crash-at", 0, "with -local -chaos: crash node-0 and flap the key service this long into the run (0 = never)")
	restoreAt := flag.Duration("restore-at", 0, "with -local -chaos: restore node-0 this long into the run (0 = never)")
	ksOutage := flag.Duration("ks-outage", 100*time.Millisecond, "with -local -chaos: key-service outage window opened at -crash-at")
	obsAddr := flag.String("obs-addr", "", "serve the unified metrics plane (/metrics + pprof) for this run on the given address (\"\" = disabled)")
	traceSample := flag.Float64("trace-sample", 0, "with -local: head-sample this fraction of requests for lifecycle tracing and report the per-stage decomposition (0 = off; anomalous requests are always kept)")
	flag.Parse()

	// -shape is a workload-shape shorthand over -pattern.
	switch *shape {
	case "":
	case "steady":
		*pattern = "fixed"
	case "burst":
		*pattern = "mmpp"
	case "diurnal":
		*pattern = "diurnal"
	default:
		log.Fatalf("loadgen: unknown -shape %q (steady, burst, diurnal)", *shape)
	}

	if *traceSample < 0 || *traceSample > 1 {
		log.Fatal("loadgen: -trace-sample must be in [0, 1]")
	}
	if *traceSample > 0 && !*local {
		log.Fatal("loadgen: -trace-sample requires -local (HTTP mode has no in-process trace plane)")
	}
	if *local {
		if *url != "" || *packer != "" {
			log.Fatal("loadgen: -local is mutually exclusive with -url/-via-packer")
		}
		if *modelsFlag != "mbnet" || *conc != 16 {
			log.Print("loadgen: note: -models and -concurrency apply to HTTP mode only; -local drives one model through the gateway's own bounds")
		}
		if *tenants < 0 || (*tenants > 0 && *tenantSkew <= 1) {
			log.Fatal("loadgen: -tenant-skew must be > 1 (rand.Zipf) and -tenants >= 0")
		}
		if *users < 0 || (*users > 1 && *userSkew <= 1) {
			log.Fatal("loadgen: -user-skew must be > 1 (rand.Zipf) and -users >= 0")
		}
		if *users > 1 && *tenants > 0 {
			log.Fatal("loadgen: -users and -tenants are mutually exclusive")
		}
		if *shards > 1 && (*tenants > 0 || *users > 1) {
			log.Fatal("loadgen: -shards drives its own tenant-per-client mix; it is mutually exclusive with -tenants/-users")
		}
		if *shards > 1 && *closed <= 0 {
			log.Fatal("loadgen: -shards requires -closed (the frontier sweep is a closed-loop measurement)")
		}
		if *revisions < 1 || *canaryWeight < 0 || *canaryWeight > 100 {
			log.Fatal("loadgen: -revisions must be >= 1 and -canary-weight in [0, 100]")
		}
		if *canaryWeight > 0 && *revisions < 2 {
			log.Fatal("loadgen: -canary-weight needs a canary revision; deploy one with -revisions 2")
		}
		if *revisions > 1 {
			if *closed <= 0 {
				log.Fatal("loadgen: -revisions requires -closed (the sticky split is keyed per closed-loop client)")
			}
			if *shards > 1 || *tenants > 0 || *users > 1 || *localModels > 1 {
				log.Fatal("loadgen: -revisions splits one model's traffic; it is mutually exclusive with -shards/-tenants/-users/-local-models")
			}
		}
		if *execTail < 0 || (*execTail > 0 && *execSteps < 2) {
			log.Fatal("loadgen: -exec-tail must be >= 0 and -exec-steps >= 2 when a tail is requested")
		}
		if !*chaos && (*crashAt > 0 || *restoreAt > 0) {
			log.Fatal("loadgen: -crash-at/-restore-at require -chaos")
		}
		if *chaos && *crashAt > 0 && *localNodes < 2 {
			log.Fatal("loadgen: crashing node-0 on a single-node deployment loses everything; use -nodes 2")
		}
		runLocal(localCfg{
			closed: *closed, requests: *requests, maxBatch: *maxBatch, maxWait: *maxWait,
			pattern: *pattern, rate: *rate, rate2: *rate2, duration: *duration,
			seed: *seed, user: *userSeed,
			affinity: *affinity, nodes: *localNodes, models: *localModels, shards: *shards,
			tenants: *tenants, skew: *tenantSkew, quota: *tenantQuota,
			revisions: *revisions, canaryWeight: *canaryWeight,
			users: *users, userSkew: *userSkew, groupUsers: *groupUsers, keyCache: *keyCache,
			period: *period, autoscale: *autoscaleOn, sandboxStart: *sandboxStart, keepWarm: *keepWarm,
			execTail: *execTail, execSteps: *execSteps, execCost: *execCost,
			continuous: *continuous, preemptAfter: *preemptAfter,
			retries: *retries, retryBackoff: *retryBackoff,
			chaos: *chaos, crashProb: *crashProb,
			crashAt: *crashAt, restoreAt: *restoreAt, ksOutage: *ksOutage,
			obsAddr: *obsAddr, traceSample: *traceSample,
		})
		return
	}
	if *url == "" && *packer == "" {
		log.Fatal("loadgen: one of -url or -via-packer is required")
	}
	modelIDs := strings.Split(*modelsFlag, ",")

	// Build the trace: one stream per model.
	var traces []workload.Trace
	for i, m := range modelIDs {
		traces = append(traces, buildTrace(*pattern, *seed+int64(i), *rate, *rate2, *period, *duration, m, *userSeed))
	}
	trace := workload.Merge(traces...)
	fmt.Printf("loadgen: %d requests over %v (avg %.1f rps)\n", len(trace), *duration, trace.Rate())

	// Prepare one encrypted payload per model.
	base, err := model.NewFunctional(*baseModel)
	if err != nil {
		log.Fatal(err)
	}
	in := tensor.New(base.InputShape...)
	for i := range in.Data() {
		in.Data()[i] = float32(i%17) * 0.05
	}
	uid := secure.IdentityOf(secure.KeyFromSeed("user:" + *userSeed))
	bodies := map[string][]byte{}
	for _, m := range modelIDs {
		kr := secure.KeyFromSeed("kr:" + *userSeed + ":" + m)
		payload, err := semirt.EncryptRequest(kr, m, inference.EncodeTensor(in))
		if err != nil {
			log.Fatal(err)
		}
		body, err := json.Marshal(map[string]any{"value": map[string]any{
			"user_id":  string(uid),
			"model_id": m,
			"payload":  base64.StdEncoding.EncodeToString(payload),
		}})
		if err != nil {
			log.Fatal(err)
		}
		bodies[m] = body
	}

	client := &http.Client{Timeout: 2 * time.Minute}
	var lat metrics.Latency
	perKind := map[string]int{}
	var mu sync.Mutex
	var failures int
	if *obsAddr != "" {
		// HTTP mode has no in-process serving stack; the metrics plane serves
		// the driver's own view — client-observed latency and failure count.
		reg := obs.NewRegistry()
		reg.SummaryFunc("sesemi_loadgen_latency_seconds", "Client-observed request latency.", nil, 1e-9, lat.Snapshot)
		reg.CounterFunc("sesemi_loadgen_failures_total", "Requests failed (transport or application error).", nil,
			func() float64 { mu.Lock(); defer mu.Unlock(); return float64(failures) })
		serveObs(*obsAddr, reg)
	}
	sem := make(chan struct{}, *conc)
	var wg sync.WaitGroup
	start := time.Now()
	for _, ev := range trace {
		time.Sleep(time.Until(start.Add(ev.At)))
		wg.Add(1)
		sem <- struct{}{}
		go func(ev workload.Event) {
			defer wg.Done()
			defer func() { <-sem }()
			target := *url
			if *packer != "" {
				target = strings.TrimSuffix(*packer, "/") + "/" + ev.ModelID
			}
			t0 := time.Now()
			resp, err := client.Post(target, "application/json", bytes.NewReader(bodies[ev.ModelID]))
			if err != nil {
				mu.Lock()
				failures++
				mu.Unlock()
				return
			}
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			d := time.Since(t0)
			var rr struct {
				Kind  string `json:"kind"`
				Error string `json:"error"`
			}
			_ = json.Unmarshal(raw, &rr)
			mu.Lock()
			if resp.StatusCode != http.StatusOK || rr.Error != "" {
				failures++
			} else {
				lat.Add(d)
				perKind[rr.Kind]++
			}
			mu.Unlock()
		}(ev)
	}
	wg.Wait()

	s := lat.Snapshot()
	fmt.Printf("completed %d ok, %d failed\n", s.Count, failures)
	if s.Count > 0 {
		fmt.Printf("latency: mean %v  p50 %v  p95 %v  p99 %v  max %v\n",
			s.Mean.Round(time.Millisecond), s.P50.Round(time.Millisecond),
			s.P95.Round(time.Millisecond), s.P99.Round(time.Millisecond),
			s.Max.Round(time.Millisecond))
	}
	for _, k := range []string{"cold", "warm", "hot"} {
		if perKind[k] > 0 {
			fmt.Printf("%-5s %d\n", k+":", perKind[k])
		}
	}
}

// serveObs starts the unified metrics plane (GET /metrics + pprof) on addr
// for the lifetime of the run.
func serveObs(addr string, reg *obs.Registry) {
	mux := http.NewServeMux()
	obs.Mount(mux, reg)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		log.Fatalf("loadgen: obs listener: %v", err)
	}
	go func() { _ = http.Serve(ln, mux) }()
	fmt.Printf("loadgen: metrics on http://%s/metrics\n", ln.Addr())
}

// buildTrace constructs one model's arrival stream from the pattern flags
// (shared by the HTTP and -local drivers). rate2 <= 0 defaults to 2*rate
// for the MMPP/diurnal high state; period <= 0 to duration/4.
func buildTrace(pattern string, seed int64, rate, rate2 float64, period, duration time.Duration, modelID, user string) workload.Trace {
	if rate2 <= 0 {
		rate2 = 2 * rate
	}
	if period <= 0 {
		period = duration / 4
	}
	switch pattern {
	case "fixed":
		return workload.FixedRate(rate, duration, modelID, user)
	case "poisson":
		return workload.Poisson(seed, rate, duration, modelID, user)
	case "mmpp":
		return workload.MMPP(seed, []float64{rate, rate2}, duration/6, duration, modelID, user)
	case "diurnal":
		return workload.Diurnal(seed, rate2, rate, period, duration, modelID, user)
	}
	log.Fatalf("loadgen: unknown pattern %q", pattern)
	return nil
}

// localCfg carries the -local mode knobs.
type localCfg struct {
	closed, requests, maxBatch int
	maxWait                    time.Duration
	pattern                    string
	rate, rate2                float64
	period, duration           time.Duration
	seed                       int64
	user                       string
	affinity                   bool
	nodes, models, shards      int
	tenants                    int
	skew                       float64
	quota                      int

	// revisions > 1 deploys canary revisions mbnet@v2..mbnet@v<revisions>
	// alongside the stable model; canaryWeight percent of closed-loop
	// traffic is sticky-split (per client) to the highest revision through
	// the same splitter the rollout controller ramps.
	revisions    int
	canaryWeight int

	// users > 1 drives a Zipf-skewed multi-user mix against the enclave's
	// key cache; groupUsers turns on gateway user-affinity grouping and
	// keyCache sets the enclave LRU capacity.
	users      int
	userSkew   float64
	groupUsers bool
	keyCache   int

	// autoscale swaps the depth-triggered prewarm for the predictive
	// controller; sandboxStart and keepWarm make its effects visible
	// (cold-start cost, idle squatting).
	autoscale    bool
	sandboxStart time.Duration
	keepWarm     time.Duration

	// execTail > 0 marks every execTail-th request long (execSteps steps at
	// execCost each) — the heavy-tailed mix that exposes head-of-line
	// blocking; continuous swaps dispatch for the session step loop.
	execTail, execSteps int
	execCost            time.Duration
	continuous          bool
	preemptAfter        int

	// chaos arms a seeded fault injector (sandbox-crash coin at crashProb,
	// node-0 crash + KS flap at crashAt, restore at restoreAt); retries is
	// the gateway budget that decides whether those faults become latency or
	// loss.
	retries            int
	retryBackoff       time.Duration
	chaos              bool
	crashProb          float64
	crashAt, restoreAt time.Duration
	ksOutage           time.Duration

	// obsAddr serves the world's unified registry over HTTP for the run;
	// traceSample > 0 arms lifecycle tracing and the stage decomposition
	// report.
	obsAddr     string
	traceSample float64
}

// runLocal drives the in-process gateway deployment (bench.LiveWorld):
// closed loop with N concurrent clients, or open loop from the trace flags.
func runLocal(c localCfg) {
	closed, requests, maxBatch, maxWait := c.closed, c.requests, c.maxBatch, c.maxWait
	wc := bench.LiveWorldConfig{
		Nodes:        c.nodes,
		Models:       c.models,
		Users:        c.users,
		KeyCacheSize: c.keyCache,
		SandboxStart: c.sandboxStart,
		KeepWarm:     c.keepWarm,
		Shards:       c.shards,
		TraceSample:  c.traceSample,
		Gateway: gateway.Config{
			MaxBatch:     maxBatch,
			MaxWait:      maxWait,
			MaxInFlight:  8,
			PrewarmDepth: 32,
			Affinity:     c.affinity,
			TenantQuota:  c.quota,
			GroupUsers:   c.groupUsers,
			Continuous:   c.continuous,
			PreemptAfter: c.preemptAfter,
		},
	}
	if c.execTail > 0 {
		// A heavy tail needs a modeled execution stage so the long requests
		// actually occupy their slot for execSteps × execCost.
		wc.ExecCost = c.execCost
	}
	wc.Gateway.MaxRetries = c.retries
	wc.Gateway.RetryBackoff = c.retryBackoff
	// -revisions deploys canary revisions next to the stable model. Traffic
	// still arrives addressed to "mbnet"; the splitter re-targets the
	// configured share BEFORE the request is built, so the revision choice
	// binds the encryption key and the routed id together — a fixed-weight
	// snapshot of the rollout controller's ramp.
	var split *rollout.Splitter
	if c.revisions > 1 {
		for r := 2; r <= c.revisions; r++ {
			wc.ExtraModels = append(wc.ExtraModels, fmt.Sprintf("mbnet@v%d", r))
		}
		split = rollout.NewSplitter("mbnet")
		split.SetCanary(fmt.Sprintf("mbnet@v%d", c.revisions), c.canaryWeight)
	}
	var inj *faults.Injector
	if c.chaos {
		inj = faults.New(c.seed, nil)
		inj.SetSandboxCrashProb(c.crashProb)
		wc.Faults = inj
		if c.retries > 0 {
			// -retries arms the whole recovery plane; with it at 0 the chaos
			// run shows raw loss.
			wc.KSRetries = 3
			wc.KSRetryBackoff = 50 * time.Millisecond
			wc.KSBrownout = 250 * time.Millisecond
		}
	}
	kw := c.keepWarm
	if kw <= 0 {
		kw = 3 * time.Minute // the cluster default
	}
	if c.sandboxStart > 0 || c.keepWarm > 0 || c.autoscale {
		// Reaping and boot-time enclave launch make keep-warm (fixed or
		// adaptive) and prewarming observable.
		wc.ReaperInterval = kw / 8
		wc.StartEnclave = true
	}
	if c.autoscale {
		wc.Autoscale = &autoscale.Config{
			Window:          250 * time.Millisecond,
			Horizon:         3,
			Headroom:        1,
			MaxWarm:         8,
			SlotsPerSandbox: 4, // the live world's per-enclave concurrency
			MinKeepWarm:     kw / 4,
			MaxKeepWarm:     kw,
		}
	}
	w, err := bench.NewLiveWorld(wc)
	if err != nil {
		log.Fatalf("loadgen: local world: %v", err)
	}
	defer w.Close()
	if c.obsAddr != "" {
		serveObs(c.obsAddr, w.Registry)
	}
	defer reportTrace(w)
	if inj != nil {
		// The fault schedule is armed once serving starts, not at world
		// construction, so -crash-at offsets mean what they say.
		if c.crashAt > 0 {
			time.AfterFunc(c.crashAt, func() {
				inj.CrashNode("node-0")
				inj.KeyServiceOutage(c.ksOutage)
			})
		}
		if c.restoreAt > 0 {
			time.AfterFunc(c.restoreAt, func() { inj.RestoreNode("node-0") })
		}
	}

	if c.tenants > 0 {
		tenantLoop(w, c)
		return
	}
	if c.users > 1 {
		userLoop(w, c)
		return
	}
	if closed > 0 {
		fmt.Printf("loadgen: closed loop, %d clients x %d requests, MaxBatch=%d affinity=%v\n", closed, requests, maxBatch, c.affinity)
		if c.shards > 1 {
			fmt.Printf("loadgen: sharded frontier, %d gateway shards, one tenant per client\n", c.shards)
		}
		if c.execTail > 0 {
			fmt.Printf("loadgen: heavy tail: every %d-th request runs %d steps x %v, continuous=%v\n",
				c.execTail, c.execSteps, c.execCost, c.continuous)
		}
		do := func(ctx context.Context, seed int) (semirt.Response, error) {
			model := w.Models[seed%len(w.Models)]
			if c.execTail > 0 && seed%c.execTail == c.execTail-1 {
				req, err := w.RequestFor(model, seed)
				if err != nil {
					return semirt.Response{}, err
				}
				req.ExecSteps = c.execSteps
				return w.Gateway.Do(ctx, w.Action, req)
			}
			return w.DoGatewayFor(ctx, model, seed)
		}
		mode := "gateway"
		if split != nil {
			// Sticky per client: a client never flaps between revisions, and
			// Splitter.Do keeps the per-revision served/error ledgers.
			mode = "split"
			fmt.Printf("loadgen: revisions: %d deployed, canary %s at %d%% weight\n",
				c.revisions, split.Canary(), split.Weight())
			do = func(ctx context.Context, seed int) (semirt.Response, error) {
				client := "c" + strconv.Itoa(seed/requests)
				return split.Do(ctx, w.Gateway, "", client, func(modelID string) (gateway.Request, error) {
					req, err := w.RequestFor(modelID, seed)
					if err != nil {
						return gateway.Request{}, err
					}
					return gateway.Request{Action: w.Action, Body: req}, nil
				})
			}
		}
		if c.shards > 1 {
			// Route through the frontier, one tenant per client, so the ring
			// spreads the closed-loop mix across shards by (model, tenant).
			mode = "frontier"
			do = func(ctx context.Context, seed int) (semirt.Response, error) {
				tenant := fmt.Sprintf("t%d", seed/requests)
				return w.DoFrontierAs(ctx, tenant, w.Models[seed%len(w.Models)], seed)
			}
		}
		r := bench.ClosedLoop(mode, closed, requests, do)
		fmt.Printf("completed %d ok, %d failed in %.2fs (%.0f req/s)\n",
			r.Requests-r.Errors, r.Errors, r.Seconds, r.RPS)
		fmt.Printf("latency: mean %.1fms  p50 %.1fms  p95 %.1fms  p99 %.1fms\n",
			r.MeanMs, r.P50Ms, r.P95Ms, r.P99Ms)
		if split != nil {
			canary := split.Canary()
			fmt.Printf("split: %-10s %d served (%d errors)\n", "mbnet", split.Served("mbnet"), split.Errored("mbnet"))
			fmt.Printf("split: %-10s %d served (%d errors)\n", canary, split.Served(canary), split.Errored(canary))
		}
	} else {
		// One arrival stream per deployed model, merged — so -local-models
		// exercises a real multi-model mix, as HTTP mode's -models does.
		var streams []workload.Trace
		for i, m := range w.Models {
			streams = append(streams, buildTrace(c.pattern, c.seed+int64(i), c.rate, c.rate2, c.period, c.duration, m, c.user))
		}
		tr := workload.Merge(streams...)
		if c.execTail > 0 {
			for i := range tr {
				if i%c.execTail == c.execTail-1 {
					tr[i].ExecSteps = c.execSteps
				}
			}
		}
		fmt.Printf("loadgen: open loop, %d requests over %v (avg %.1f rps, %d models), MaxBatch=%d\n",
			len(tr), c.duration, tr.Rate(), len(w.Models), maxBatch)
		lat, perKind, fails := bench.OpenLoopGateway(w, tr)
		s := lat.Snapshot()
		fmt.Printf("completed %d ok, %d failed\n", s.Count, fails)
		if s.Count > 0 {
			fmt.Printf("latency: mean %v  p50 %v  p95 %v  p99 %v\n",
				s.Mean.Round(time.Millisecond), s.P50.Round(time.Millisecond),
				s.P95.Round(time.Millisecond), s.P99.Round(time.Millisecond))
		}
		for _, k := range []string{"cold", "warm", "hot"} {
			if perKind[k] > 0 {
				fmt.Printf("%-5s %d\n", k+":", perKind[k])
			}
		}
	}
	gs := w.Gateway.Stats()
	gm := w.Gateway.Metrics()
	if c.shards > 1 {
		// The frontier carried the traffic: report its merged view (the plain
		// gateway only served the world's warm-up request).
		fs := w.Frontier.Stats()
		fm := w.Frontier.Metrics()
		gs, gm = fs.Stats, &fm
		perShard := make([]float64, len(fs.PerShard))
		for i, s := range fs.PerShard {
			perShard[i] = float64(s.Accepted)
		}
		fmt.Printf("frontier: %d shards, %d spills, %d steals moving %d requests, imbalance %.2f\n",
			c.shards, fs.Spills, fs.Steals, fs.Stolen, costmodel.ShardImbalance(perShard))
	}
	fmt.Printf("gateway: %d batches (mean %.1f, p95 %.0f), %d rejected, %d prewarmed\n",
		gs.Batches, gm.BatchSizes.Mean(), gm.BatchSizes.Quantile(0.95), gs.Rejected, gs.Prewarmed)
	if c.continuous {
		steps, pre := w.SessionStats()
		fmt.Printf("continuous: %d session frames, %d enclave preemptions, %d gateway requeues\n",
			steps, pre, gs.Preemptions)
	}
	st := w.Cluster.Stats()
	// Amortization is served requests per gateway batch; cluster Invocations
	// additionally counts the world's warm-up activation.
	fmt.Printf("cluster: %d activations (%d gateway batches for %d served requests, %.1fx amortized), %d cold starts\n",
		st.Invocations, gs.Batches, gs.Served, float64(gs.Served)/float64(max(gs.Batches, 1)), st.ColdStarts)
	if ast, err := w.Cluster.ActionStats(w.Action); err == nil {
		fmt.Printf("warm pool: %d cold starts, %d warm hits, %.1f idle sandbox-seconds, keep-warm %v\n",
			ast.ColdStarts, ast.WarmHits, ast.IdleSeconds, ast.KeepWarm)
	}
	if inj != nil {
		is := inj.Stats()
		fmt.Printf("chaos: %d node-down hits, %d sandbox crashes, %d ks rejects; gateway: %d retries, %d node failures\n",
			is.NodeDownHits, is.SandboxCrashes, is.KSRejects, gs.Retries, st.NodeFailures)
	}
	if w.Autoscaler != nil {
		as := w.Autoscaler.Stats()
		fmt.Printf("autoscaler: %d prewarmed over %d steps, forecast MAE %.2f rps (mean rate %.2f rps)\n",
			as.Prewarmed, as.Steps, as.ForecastMAE, as.MeanRate)
	}
}

// reportTrace prints the request-lifecycle decomposition when tracing was
// armed: per-stage span counts and means over every finished trace, plus the
// top-level span coverage of end-to-end time (1.0 = the stage partition is
// gapless; the stitched-trace bar is a sum within 5% of e2e).
func reportTrace(w *bench.LiveWorld) {
	tr := w.Tracer
	if tr == nil {
		return
	}
	ts := tr.Stats()
	fmt.Printf("trace: %d traces (%d kept, %d anomalous), top-level coverage %.3f of e2e\n",
		ts.Started, ts.Kept, ts.Anomalous, tr.Coverage())
	for _, st := range tr.Decomposition() {
		fmt.Printf("  %-10s %8d spans  mean %8.3fms  total %10.1fms\n",
			st.Stage, st.Count, float64(st.Mean)/1e6, float64(st.Total)/1e6)
	}
}

// tenantLoop drives Zipf-skewed multi-tenant load through the serving API
// v2 Submit surface — closed loop with -closed clients, open loop from the
// trace flags otherwise — and reports latency per tenant, so the fairness
// claim (hot tenant cannot starve the rest) is reproducible from the CLI.
func tenantLoop(w *bench.LiveWorld, c localCfg) {
	perTenant := map[string]*metrics.Latency{}
	fails := 0
	var mu sync.Mutex
	do := func(tenant, model string, seed int) {
		req, err := w.RequestFor(model, seed)
		if err != nil {
			log.Fatalf("loadgen: %v", err)
		}
		t0 := time.Now()
		var resp semirt.Response
		tk, err := w.Gateway.Submit(context.Background(), gateway.Request{
			Action: w.Action, Tenant: tenant, Body: req,
		})
		if err == nil {
			resp, err = tk.Wait(context.Background())
		}
		_ = resp
		d := time.Since(t0)
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			fails++
			return
		}
		lat := perTenant[tenant]
		if lat == nil {
			lat = &metrics.Latency{}
			perTenant[tenant] = lat
		}
		lat.Add(d)
	}

	start := time.Now()
	total := 0
	if c.closed > 0 {
		fmt.Printf("loadgen: closed loop, %d clients x %d requests over %d tenants (Zipf s=%.2f), MaxBatch=%d\n",
			c.closed, c.requests, c.tenants, c.skew, c.maxBatch)
		total = c.closed * c.requests
		var wg sync.WaitGroup
		for cl := 0; cl < c.closed; cl++ {
			wg.Add(1)
			go func(cl int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(c.seed + int64(cl)))
				zipf := rand.NewZipf(rng, c.skew, 1, uint64(c.tenants-1))
				for i := 0; i < c.requests; i++ {
					seed := cl*c.requests + i
					do(fmt.Sprintf("t%d", zipf.Uint64()), w.Models[seed%len(w.Models)], seed)
				}
			}(cl)
		}
		wg.Wait()
	} else {
		var streams []workload.Trace
		for i, m := range w.Models {
			streams = append(streams, buildTrace(c.pattern, c.seed+int64(i), c.rate, c.rate2, c.period, c.duration, m, c.user))
		}
		tr := workload.Merge(streams...)
		total = len(tr)
		fmt.Printf("loadgen: open loop, %d requests over %v across %d tenants (Zipf s=%.2f), MaxBatch=%d\n",
			len(tr), c.duration, c.tenants, c.skew, c.maxBatch)
		rng := rand.New(rand.NewSource(c.seed))
		zipf := rand.NewZipf(rng, c.skew, 1, uint64(c.tenants-1))
		var wg sync.WaitGroup
		for i := range tr {
			ev := tr[i]
			tenant := fmt.Sprintf("t%d", zipf.Uint64())
			time.Sleep(time.Until(start.Add(ev.At)))
			wg.Add(1)
			go func(tenant, model string, seed int) {
				defer wg.Done()
				do(tenant, model, seed)
			}(tenant, ev.ModelID, i)
		}
		wg.Wait()
	}
	elapsed := time.Since(start)

	ok := total - fails
	fmt.Printf("completed %d ok, %d failed in %.2fs (%.0f req/s)\n",
		ok, fails, elapsed.Seconds(), float64(ok)/elapsed.Seconds())
	names := make([]string, 0, len(perTenant))
	for name := range perTenant {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s := perTenant[name].Snapshot()
		fmt.Printf("  %-8s %6d req  mean %7.1fms  p50 %7.1fms  p99 %7.1fms\n",
			name, s.Count, float64(s.Mean)/1e6, float64(s.P50)/1e6, float64(s.P99)/1e6)
	}
	gs := w.Gateway.Stats()
	fmt.Printf("gateway: %d batches, %d overload-rejected, %d tenant-quota-rejected, %d deadline-shed\n",
		gs.Batches, gs.Rejected, gs.TenantRejected, gs.Shed)
}

// userLoop drives a Zipf-skewed multi-user mix against the enclave's key
// cache — closed loop with -closed clients (default 16), each drawing its
// user per request — and reports latency per user plus the enclave-level
// key-fetch count, so the key-locality claim (an LRU keeps a user-diverse
// stream hot) is reproducible from the CLI:
//
//	loadgen -local -users 16 -closed 64 -key-cache 1           # the old single pair
//	loadgen -local -users 16 -closed 64 -group-users           # LRU + grouping
func userLoop(w *bench.LiveWorld, c localCfg) {
	closed := c.closed
	if closed <= 0 {
		closed = 16
	}
	fmt.Printf("loadgen: closed loop, %d clients x %d requests over %d users (Zipf s=%.2f), MaxBatch=%d key-cache=%d group=%v\n",
		closed, c.requests, c.users, c.userSkew, c.maxBatch, c.keyCache, c.groupUsers)
	perUser := map[int]*metrics.Latency{}
	perKind := map[string]int{}
	fails := 0
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for cl := 0; cl < closed; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(c.seed + int64(cl)))
			zipf := rand.NewZipf(rng, c.userSkew, 1, uint64(c.users-1))
			for i := 0; i < c.requests; i++ {
				u := int(zipf.Uint64())
				t0 := time.Now()
				resp, err := w.DoGatewayUser(context.Background(), u, cl*c.requests+i)
				d := time.Since(t0)
				mu.Lock()
				if err != nil {
					fails++
				} else {
					lat := perUser[u]
					if lat == nil {
						lat = &metrics.Latency{}
						perUser[u] = lat
					}
					lat.Add(d)
					perKind[resp.Kind.String()]++
				}
				mu.Unlock()
			}
		}(cl)
	}
	wg.Wait()
	elapsed := time.Since(start)

	total := closed * c.requests
	fmt.Printf("completed %d ok, %d failed in %.2fs (%.0f req/s)\n",
		total-fails, fails, elapsed.Seconds(), float64(total-fails)/elapsed.Seconds())
	us := make([]int, 0, len(perUser))
	for u := range perUser {
		us = append(us, u)
	}
	sort.Ints(us)
	for _, u := range us {
		s := perUser[u].Snapshot()
		fmt.Printf("  u%-7d %6d req  mean %7.1fms  p50 %7.1fms  p99 %7.1fms\n",
			u, s.Count, float64(s.Mean)/1e6, float64(s.P50)/1e6, float64(s.P99)/1e6)
	}
	for _, k := range []string{"cold", "warm", "hot"} {
		if perKind[k] > 0 {
			fmt.Printf("%-5s %d\n", k+":", perKind[k])
		}
	}
	gs := w.Gateway.Stats()
	gm := w.Gateway.Metrics()
	fmt.Printf("gateway: %d batches (mean %.1f); enclave: %d key fetches across %d users\n",
		gs.Batches, gm.BatchSizes.Mean(), w.KeyFetches(), c.users)
}
