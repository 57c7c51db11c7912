package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"time"

	"sesemi/internal/attest"
	"sesemi/internal/autoscale"
	"sesemi/internal/costmodel"
	"sesemi/internal/enclave"
	"sesemi/internal/faults"
	"sesemi/internal/frontier"
	"sesemi/internal/gateway"
	"sesemi/internal/inference"
	_ "sesemi/internal/inference/tinytflm"
	_ "sesemi/internal/inference/tinytvm"
	"sesemi/internal/keyservice"
	"sesemi/internal/metrics"
	"sesemi/internal/model"
	"sesemi/internal/obs"
	"sesemi/internal/secure"
	"sesemi/internal/semirt"
	"sesemi/internal/serverless"
	"sesemi/internal/storage"
	"sesemi/internal/tensor"
	"sesemi/internal/vclock"
	"sesemi/internal/workload"
)

// ---------- Live serving world (cluster + KeyService + gateway) ----------

// LiveWorld is a complete in-process SeSeMI deployment — KeyService over
// loopback TCP, a serverless cluster of SGX2 platforms running SeMIRT
// actions, and a serving gateway in front — used by loadgen's -local mode,
// examples/multitenant and this package's behavioural tests.
type LiveWorld struct {
	Cluster *serverless.Cluster
	Gateway *gateway.Gateway
	// Frontier is the sharded gateway tier over the same cluster (nil unless
	// LiveWorldConfig.Shards > 1). The plain Gateway stays available — the
	// frontier's shards are their own gateway instances.
	Frontier *frontier.Frontier
	// Autoscaler is the predictive controller wired between the gateway and
	// the cluster (nil unless LiveWorldConfig.Autoscale is set).
	Autoscaler *autoscale.Controller
	// Tracer is the deployment-wide request tracer (nil unless
	// LiveWorldConfig.TraceSample > 0); Registry is the unified metrics
	// registry every world carries — gateway (or frontier), key service and
	// tracer series are pre-registered, ready for obs.Mount.
	Tracer   *obs.Tracer
	Registry *obs.Registry
	// Action is the single deployed endpoint; Model its default model id.
	Action, Model string
	// Models lists every deployed model id (Models[0] == Model). All models
	// share the one action — the multi-model endpoint whose enclaves swap
	// state when consecutive requests target different models.
	Models []string

	// userIDs and userKeys hold every deployed user principal's identity and
	// per-model request keys (LiveWorldConfig.Users of them; index 0 is the
	// default user).
	userIDs  []secure.ID
	userKeys []map[string]secure.Key
	shape    []int
	closers  []func()

	// rtMu/runtimes track every SeMIRT runtime the cluster instantiated, so
	// enclave-level counters (key fetches, session frames) that never cross
	// the activation wire can be aggregated.
	rtMu     sync.Mutex
	runtimes []*semirt.Runtime
}

// LiveWorldConfig shapes the deployment.
type LiveWorldConfig struct {
	// Nodes is the invoker count (default 1).
	Nodes int
	// NodeMemory bounds sandboxes per node (default 512 MiB: two 256 MiB
	// sandboxes, so warm capacity is genuinely scarce).
	NodeMemory int64
	// Concurrency is TCSs per SeMIRT enclave (default 4).
	Concurrency int
	// Models is how many model ids to deploy on the single action (default
	// 1). The first is "mbnet"; the rest are functional clones ("m1", "m2",
	// …) with their own keys and blobs, so a multi-model serving mix is real:
	// an enclave switching models pays decrypt + load + runtime init.
	Models int
	// ExtraModels deploys additional model ids identically to the clones —
	// each with its own keys, blob and grants (e.g. a canary revision
	// "mbnet@v2" alongside its stable base).
	ExtraModels []string
	// Users is how many user principals to register and grant on every
	// model (default 1). Each gets its own request keys, so a user-diverse
	// stream exercises the enclave's key cache for real: serving a user not
	// resident in the cache pays a KeyService provisioning round trip.
	Users int
	// ExecCost, when positive, charges a modeled model-execution latency per
	// request on the platform clock (which it unmutes, so modeled enclave
	// launch/attestation sleeps apply to cold paths too) — so batches occupy
	// sandbox slots for realistic service times and warm capacity is
	// genuinely scarce at load.
	ExecCost time.Duration
	// SandboxStart is the modeled container start latency charged on the
	// cluster clock (0 = free starts). The cost every cold start pays and
	// prewarming hides.
	SandboxStart time.Duration
	// KeepWarm overrides the cluster's idle-sandbox deadline (0 = the
	// 3-minute paper default).
	KeepWarm time.Duration
	// ReaperInterval, when positive, runs Cluster.ReapIdle on this cadence
	// for the world's lifetime — required for keep-warm (fixed or adaptive)
	// to actually reclaim memory during a run.
	ReaperInterval time.Duration
	// StartEnclave launches each runtime's enclave inside the sandbox start
	// (semirt.Runtime.Start) instead of lazily on the first request — the
	// OpenWhisk prewarm semantics, where a prewarmed sandbox serves its first
	// request warm, not cold.
	StartEnclave bool
	// Autoscale, when non-nil, wires a predictive autoscale.Controller
	// between the gateway and the cluster (gateway.Config.Autoscaler is set
	// automatically) and runs its control loop for the world's lifetime.
	Autoscale *autoscale.Config
	// KeyCacheSize sets semirt.Config.KeyCacheSize (0 = the live default,
	// 1 = the historical single-pair cache).
	KeyCacheSize int
	// Faults, when non-nil, wires the fault-injection plane into both layers
	// of the deployment: the cluster consults it per node dispatch
	// (serverless.Config.Faults) and every SeMIRT runtime per activation
	// (semirt.Deps.Faults).
	Faults *faults.Injector
	// KSRetries / KSRetryBackoff / KSBrownout pass through to semirt.Deps:
	// the runtime-side key-service retry budget and brownout window.
	KSRetries      int
	KSRetryBackoff time.Duration
	KSBrownout     time.Duration
	// TraceSample, when positive, arms request-lifecycle tracing across the
	// deployment: a shared obs.Tracer head-sampling this fraction of requests
	// (anomalies always retained) is wired into the gateway (and frontier
	// shards), and LiveWorld.Tracer/Registry expose the decomposition. Zero
	// leaves tracing off — the historical zero-overhead configuration.
	TraceSample float64
	// Gateway tunes the front-end; zero values take gateway defaults.
	Gateway gateway.Config
	// Shards, when > 1, additionally builds a sharded frontier
	// (internal/frontier) of that many gateway shards over the same cluster,
	// each configured from Gateway.
	Shards int
}

// invokeOverhead is the modeled per-activation platform overhead charged on
// the wall clock while a request holds its slot — the
// controller/invoker/action-proxy hop of an OpenWhisk activation, which
// batching amortizes.
const invokeOverhead = 2 * time.Millisecond

// NewLiveWorld builds the deployment, deploys one functional mbnet model and
// one action, and warms one sandbox.
func NewLiveWorld(cfg LiveWorldConfig) (*LiveWorld, error) {
	if cfg.Nodes <= 0 {
		cfg.Nodes = 1
	}
	if cfg.NodeMemory <= 0 {
		cfg.NodeMemory = 512 << 20
	}
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 4
	}
	if cfg.Models <= 0 {
		cfg.Models = 1
	}
	if cfg.Users <= 0 {
		cfg.Users = 1
	}
	w := &LiveWorld{Action: "fn-mbnet", Model: "mbnet"}
	w.Models = append(w.Models, "mbnet")
	for i := 1; i < cfg.Models; i++ {
		w.Models = append(w.Models, fmt.Sprintf("m%d", i))
	}
	w.Models = append(w.Models, cfg.ExtraModels...)
	fail := func(err error) (*LiveWorld, error) {
		w.Close()
		return nil, err
	}

	ca, err := attest.NewCA()
	if err != nil {
		return fail(err)
	}
	// Platform sleeps are disabled (Scale 0): modeled TEE latencies are not
	// the subject here. The cluster clock runs at Scale 1 so the activation
	// overhead is charged for real — it is what the gateway amortizes. A
	// modeled execution cost (ExecCost) needs the platform clock live.
	platClock := vclock.Real{Scale: 0}
	if cfg.ExecCost > 0 {
		platClock = vclock.Real{Scale: 1}
	}

	ksKey, err := ca.Provision("ks")
	if err != nil {
		return fail(err)
	}
	svc := keyservice.NewService()
	ksEnc, err := enclave.NewPlatform(costmodel.SGX2, platClock, ksKey).
		Launch(keyservice.ManifestFor(64), svc)
	if err != nil {
		return fail(err)
	}
	w.closers = append(w.closers, ksEnc.Destroy)
	srv, err := keyservice.NewServer(svc, ca.PublicKey())
	if err != nil {
		return fail(err)
	}
	srv.SetLogf(nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fail(err)
	}
	go func() { _ = srv.Serve(ln) }()
	w.closers = append(w.closers, func() { _ = srv.Close() })
	ksAddr := ln.Addr().String()

	store := storage.NewMemory(platClock, nil)
	var nodes []*serverless.Node
	for i := 0; i < cfg.Nodes; i++ {
		key, err := ca.Provision(fmt.Sprintf("node-%d", i))
		if err != nil {
			return fail(err)
		}
		nodes = append(nodes, &serverless.Node{
			Name:        fmt.Sprintf("node-%d", i),
			MemoryBytes: cfg.NodeMemory,
			Extra:       enclave.NewPlatform(costmodel.SGX2, platClock, key),
		})
	}
	ccfg := serverless.DefaultConfig()
	ccfg.Clock = vclock.Real{Scale: 1}
	ccfg.Faults = cfg.Faults
	ccfg.SandboxStart = cfg.SandboxStart
	if cfg.KeepWarm > 0 {
		ccfg.KeepWarm = cfg.KeepWarm
	}
	ccfg.InvokeOverhead = invokeOverhead
	w.Cluster = serverless.NewCluster(ccfg, nodes...)
	w.closers = append(w.closers, w.Cluster.Close)

	scfg, err := semirt.DefaultConfig("tvm", w.Model, cfg.Concurrency)
	if err != nil {
		return fail(err)
	}
	scfg.KeyCacheSize = cfg.KeyCacheSize
	if cfg.ExecCost > 0 {
		scfg.ModeledStages = &costmodel.StageCosts{ModelExec: cfg.ExecCost}
	}
	m, err := model.NewFunctional(w.Model)
	if err != nil {
		return fail(err)
	}
	w.shape = m.InputShape
	data, err := model.Marshal(m)
	if err != nil {
		return fail(err)
	}
	newClient := func(key secure.Key) *keyservice.Client {
		return keyservice.NewClient(keyservice.TCPDialer(ksAddr), ca.PublicKey(), ksEnc.Measurement(), key)
	}
	if err := w.provision(newClient, scfg.Manifest().Measure(), store, data, cfg.Users); err != nil {
		return fail(err)
	}

	err = w.Cluster.Deploy(&serverless.Action{
		Name:         w.Action,
		MemoryBudget: 256 << 20,
		Concurrency:  scfg.Concurrency,
		New: func(n *serverless.Node) (serverless.Instance, error) {
			rt, err := semirt.New(scfg, semirt.Deps{
				Platform:       n.Extra.(*enclave.Platform),
				Store:          store,
				KSDialer:       keyservice.TCPDialer(ksAddr),
				CAPublicKey:    ca.PublicKey(),
				ExpectEK:       ksEnc.Measurement(),
				Faults:         cfg.Faults,
				KSRetries:      cfg.KSRetries,
				KSRetryBackoff: cfg.KSRetryBackoff,
				KSBrownout:     cfg.KSBrownout,
			})
			if err != nil {
				return nil, err
			}
			if cfg.StartEnclave {
				// Launch the enclave as part of the sandbox start, so a
				// prewarmed sandbox serves its first request warm — the
				// OpenWhisk prewarm semantics (Runtime.Start's purpose).
				if err := rt.Start(); err != nil {
					rt.Stop()
					return nil, err
				}
			}
			w.rtMu.Lock()
			w.runtimes = append(w.runtimes, rt)
			w.rtMu.Unlock()
			return semirt.Instance{RT: rt}, nil
		},
	})
	if err != nil {
		return fail(err)
	}

	if cfg.Autoscale != nil {
		w.Autoscaler = autoscale.New(*cfg.Autoscale, w.Cluster)
		cfg.Gateway.Autoscaler = w.Autoscaler
		w.Autoscaler.Start()
		w.closers = append(w.closers, w.Autoscaler.Stop)
	}
	if cfg.ReaperInterval > 0 {
		w.closers = append(w.closers, w.Cluster.StartReaper(cfg.ReaperInterval))
	}
	if cfg.TraceSample > 0 {
		// One tracer shared by the gateway and every frontier shard, so a
		// stolen or spilled request's spans land in the same decomposition.
		w.Tracer = obs.NewTracer(obs.Config{TraceSample: cfg.TraceSample})
		cfg.Gateway.Tracer = w.Tracer
	}
	w.Gateway = gateway.New(cfg.Gateway, w.Cluster)
	w.closers = append(w.closers, w.Gateway.Close)
	if cfg.Shards > 1 {
		w.Frontier = frontier.New(frontier.Config{Config: cfg.Gateway, Shards: cfg.Shards}, w.Cluster)
		w.closers = append(w.closers, w.Frontier.Close)
	}
	w.Registry = obs.NewRegistry()
	if w.Frontier != nil {
		w.Frontier.RegisterMetrics(w.Registry, nil)
	} else {
		w.Gateway.RegisterMetrics(w.Registry, nil)
	}
	svc.RegisterMetrics(w.Registry, nil)
	w.Tracer.RegisterMetrics(w.Registry, nil)

	// Warm one sandbox end to end so both access paths start hot.
	if _, err := w.DoDirect(context.Background(), 0); err != nil {
		return fail(err)
	}
	return w, nil
}

// provision deposits every model blob, model key, grant and request key.
// Every model id is the same functional network under its own keys and blob
// — what matters to the serving stack is that they are distinct models: an
// enclave switching between them refetches keys, re-decrypts and reloads.
// Every user principal is granted on every model with its own request key,
// so a user flip is a genuinely different key pair.
//
// Each client is closed as soon as its principal is set up: a KeyService
// connection pins one of the enclave's TCSs until it closes, so holding one
// per user would wedge provisioning once the users outnumber the TCSs.
func (w *LiveWorld) provision(newClient func(secure.Key) *keyservice.Client, es attest.Measurement,
	store storage.Store, data []byte, users int) error {
	owner := newClient(secure.KeyFromSeed("bench-owner"))
	defer owner.Close()
	if err := owner.Register(); err != nil {
		return err
	}
	for _, id := range w.Models {
		km := secure.KeyFromSeed("bench-km-" + id)
		ct, err := semirt.EncryptModel(km, id, data)
		if err != nil {
			return err
		}
		if err := store.Put(semirt.ModelBlobName(id), ct); err != nil {
			return err
		}
		if err := owner.AddModelKey(id, km); err != nil {
			return err
		}
	}
	for u := 0; u < users; u++ {
		// User 0 keeps the historical "bench-user" seeds.
		seed, krSuffix := "bench-user", ""
		if u > 0 {
			seed, krSuffix = fmt.Sprintf("bench-user-%d", u), fmt.Sprintf("-u%d", u)
		}
		keys, id, err := w.provisionUser(newClient(secure.KeyFromSeed(seed)), owner, es, krSuffix)
		if err != nil {
			return err
		}
		w.userIDs = append(w.userIDs, id)
		w.userKeys = append(w.userKeys, keys)
	}
	return nil
}

// provisionUser registers user client uc, has the owner grant it on every
// model, and deposits its per-model request keys, then closes uc.
func (w *LiveWorld) provisionUser(uc, owner *keyservice.Client, es attest.Measurement,
	krSuffix string) (map[string]secure.Key, secure.ID, error) {
	defer uc.Close()
	if err := uc.Register(); err != nil {
		return nil, "", err
	}
	keys := map[string]secure.Key{}
	for _, id := range w.Models {
		if err := owner.GrantAccess(id, es, uc.ID()); err != nil {
			return nil, "", err
		}
		kr := secure.KeyFromSeed("bench-kr-" + id + krSuffix)
		if err := uc.AddReqKey(id, es, kr); err != nil {
			return nil, "", err
		}
		keys[id] = kr
	}
	return keys, uc.ID(), nil
}

// Request builds one encrypted request for the default model (seed varies
// the input tensor).
func (w *LiveWorld) Request(seed int) (semirt.Request, error) {
	return w.RequestFor(w.Model, seed)
}

// RequestFor builds one encrypted request for a deployed model id (as
// user 0).
func (w *LiveWorld) RequestFor(modelID string, seed int) (semirt.Request, error) {
	return w.RequestForUser(0, modelID, seed)
}

// RequestForUser builds one encrypted request for a deployed model id under
// user u's request key.
func (w *LiveWorld) RequestForUser(u int, modelID string, seed int) (semirt.Request, error) {
	if u < 0 || u >= len(w.userKeys) {
		return semirt.Request{}, fmt.Errorf("bench: user %d not deployed (%d users)", u, len(w.userKeys))
	}
	kr, ok := w.userKeys[u][modelID]
	if !ok {
		return semirt.Request{}, fmt.Errorf("bench: model %q not deployed", modelID)
	}
	in := tensor.New(w.shape...)
	for i := range in.Data() {
		in.Data()[i] = float32((i+seed)%13) * 0.06
	}
	payload, err := semirt.EncryptRequest(kr, modelID, inference.EncodeTensor(in))
	if err != nil {
		return semirt.Request{}, err
	}
	return semirt.Request{UserID: w.userIDs[u], ModelID: modelID, Payload: payload}, nil
}

// DoGatewayUser sends one request through the gateway as user u, carrying
// the user-affinity grouping hint so a GroupUsers gateway can form
// same-user runs.
func (w *LiveWorld) DoGatewayUser(ctx context.Context, u int, seed int) (semirt.Response, error) {
	req, err := w.RequestForUser(u, w.Model, seed)
	if err != nil {
		return semirt.Response{}, err
	}
	tk, err := w.Gateway.Submit(ctx, gateway.Request{
		Action: w.Action,
		Hints:  gateway.Hints{User: string(req.UserID)},
		Body:   req,
	})
	if err != nil {
		return semirt.Response{}, err
	}
	return tk.Wait(ctx)
}

// KeyFetches sums KeyService provisioning round trips across every SeMIRT
// runtime the world's cluster instantiated — the enclave-level counter the
// key cache exists to shrink.
func (w *LiveWorld) KeyFetches() uint64 {
	w.rtMu.Lock()
	defer w.rtMu.Unlock()
	var n uint64
	for _, rt := range w.runtimes {
		n += rt.Stats().KeyFetches
	}
	return n
}

// SessionStats sums the continuous-batching counters across every SeMIRT
// runtime the world's cluster instantiated: scheduling frames executed
// (enclave re-entries a continuous session pays per step) and members
// preempted at a step boundary.
func (w *LiveWorld) SessionStats() (steps, preempted uint64) {
	w.rtMu.Lock()
	defer w.rtMu.Unlock()
	for _, rt := range w.runtimes {
		st := rt.Stats()
		steps += st.SessionSteps
		preempted += st.Preempted
	}
	return steps, preempted
}

// DoDirect sends one request for the default model straight through
// Cluster.Invoke (the unbatched path).
func (w *LiveWorld) DoDirect(ctx context.Context, seed int) (semirt.Response, error) {
	req, err := w.Request(seed)
	if err != nil {
		return semirt.Response{}, err
	}
	body, err := json.Marshal(req)
	if err != nil {
		return semirt.Response{}, err
	}
	raw, err := w.Cluster.Invoke(ctx, w.Action, body)
	if err != nil {
		return semirt.Response{}, err
	}
	var resp semirt.Response
	if err := json.Unmarshal(raw, &resp); err != nil {
		return semirt.Response{}, err
	}
	return resp, nil
}

// DoGateway sends one request through the batching gateway.
func (w *LiveWorld) DoGateway(ctx context.Context, seed int) (semirt.Response, error) {
	return w.DoGatewayFor(ctx, w.Model, seed)
}

// DoGatewayFor is DoGateway for a specific model id.
func (w *LiveWorld) DoGatewayFor(ctx context.Context, modelID string, seed int) (semirt.Response, error) {
	req, err := w.RequestFor(modelID, seed)
	if err != nil {
		return semirt.Response{}, err
	}
	return w.Gateway.Do(ctx, w.Action, req)
}

// DoFrontierAs sends one request through the sharded frontier under a
// tenant: the frontier routes it by (action, model, tenant) to its home
// shard, spilling on overload. Requires LiveWorldConfig.Shards > 1.
func (w *LiveWorld) DoFrontierAs(ctx context.Context, tenant, modelID string, seed int) (semirt.Response, error) {
	req, err := w.RequestFor(modelID, seed)
	if err != nil {
		return semirt.Response{}, err
	}
	tk, err := w.Frontier.Submit(ctx, gateway.Request{
		Action: w.Action, Tenant: tenant, Body: req,
	})
	if err != nil {
		return semirt.Response{}, err
	}
	return tk.Wait(ctx)
}

// Decrypt opens a response payload for the default model.
func (w *LiveWorld) Decrypt(resp semirt.Response) ([]byte, error) {
	return semirt.DecryptResponse(w.userKeys[0][w.Model], w.Model, resp.Payload)
}

// Close tears the deployment down.
func (w *LiveWorld) Close() {
	for i := len(w.closers) - 1; i >= 0; i-- {
		w.closers[i]()
	}
	w.closers = nil
}

// ---------- Load generation ----------

// GatewayRunResult is one closed-loop run's measured outcome.
type GatewayRunResult struct {
	Mode     string
	Requests int
	Errors   int
	Seconds  float64
	RPS      float64
	MeanMs   float64
	P50Ms    float64
	P95Ms    float64
	P99Ms    float64
}

// ClosedLoop drives clients×perClient requests through do (closed loop:
// each client issues its next request as soon as the previous returns) and
// aggregates throughput and latency.
func ClosedLoop(mode string, clients, perClient int, do func(ctx context.Context, seed int) (semirt.Response, error)) GatewayRunResult {
	var lat metrics.Latency
	var mu sync.Mutex
	errs := 0
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				t0 := time.Now()
				_, err := do(context.Background(), c*perClient+i)
				d := time.Since(t0)
				if err != nil {
					mu.Lock()
					errs++
					mu.Unlock()
					continue
				}
				lat.Add(d)
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	n := clients * perClient
	s := lat.Snapshot()
	return GatewayRunResult{
		Mode:     mode,
		Requests: n,
		Errors:   errs,
		Seconds:  elapsed.Seconds(),
		RPS:      float64(n-errs) / elapsed.Seconds(),
		MeanMs:   float64(s.Mean) / 1e6,
		P50Ms:    float64(s.P50) / 1e6,
		P95Ms:    float64(s.P95) / 1e6,
		P99Ms:    float64(s.P99) / 1e6,
	}
}

// OpenLoopGateway replays a workload trace against the live world's gateway
// at the trace's own arrival times (loadgen -local), routing each event to
// its own model id. It returns the latency distribution, per-kind counts,
// and the failure count.
func OpenLoopGateway(w *LiveWorld, tr workload.Trace) (*metrics.Latency, map[string]int, int) {
	lat := &metrics.Latency{}
	perKind := map[string]int{}
	var mu sync.Mutex
	fails := 0
	var wg sync.WaitGroup
	start := time.Now()
	for i := range tr {
		ev := tr[i]
		time.Sleep(time.Until(start.Add(ev.At)))
		wg.Add(1)
		go func(ev workload.Event, seed int) {
			defer wg.Done()
			t0 := time.Now()
			var resp semirt.Response
			var err error
			if ev.ExecSteps > 1 {
				// A long event carries its step count into the enclave
				// request — the heavy tail loadgen's -exec-tail marks.
				var req semirt.Request
				if req, err = w.RequestFor(ev.ModelID, seed); err == nil {
					req.ExecSteps = ev.ExecSteps
					resp, err = w.Gateway.Do(context.Background(), w.Action, req)
				}
			} else {
				resp, err = w.DoGatewayFor(context.Background(), ev.ModelID, seed)
			}
			d := time.Since(t0)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				fails++
				return
			}
			lat.Add(d)
			perKind[resp.Kind.String()]++
		}(ev, i)
	}
	wg.Wait()
	return lat, perKind, fails
}
