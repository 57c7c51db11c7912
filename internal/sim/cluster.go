package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"time"

	"sesemi/internal/autoscale"
	"sesemi/internal/costmodel"
	"sesemi/internal/fnpacker"
	"sesemi/internal/metrics"
	"sesemi/internal/model"
	"sesemi/internal/obs"
	"sesemi/internal/semirt"
	"sesemi/internal/workload"
)

// System selects which serving stack the simulation models (§VI baselines).
type System int

const (
	// SeSeMI reuses enclave, keys, model and runtimes (hot path).
	SeSeMI System = iota
	// IsoReuse reuses the enclave and keys but reloads model and runtime
	// per request (S-FaaS / Clemmys style).
	IsoReuse
	// Native launches a fresh enclave for every invocation.
	Native
	// Untrusted runs without any TEE (Figure 18 baseline).
	Untrusted
)

func (s System) String() string {
	switch s {
	case SeSeMI:
		return "SeSeMI"
	case IsoReuse:
		return "Iso-reuse"
	case Native:
		return "Native"
	default:
		return "Untrusted"
	}
}

// StorageKind selects the model-loading latency profile.
type StorageKind int

const (
	// ClusterStorage is the in-cluster NFS share (Figure 17 load times).
	ClusterStorage StorageKind = iota
	// CloudStorage is same-region Azure Blob (§VI-A download times).
	CloudStorage
)

// ActionSpec describes one deployed function endpoint.
type ActionSpec struct {
	// Name is the endpoint name requests are routed to.
	Name string
	// Framework is "tvm" or "tflm".
	Framework string
	// Concurrency is slots (TCSs) per sandbox.
	Concurrency int
	// MemoryBudget is the container memory charged against node memory;
	// zero derives the smallest 128 MiB multiple covering the enclave.
	MemoryBudget int64
	// EnclaveBytes is the configured enclave size; zero derives it from
	// the Appendix D table for DefaultModel.
	EnclaveBytes int64
	// DefaultModel sizes the enclave when EnclaveBytes is zero.
	DefaultModel string
}

// Config parameterizes a simulation run.
type Config struct {
	// System is the serving stack under test.
	System System
	// HW is the hardware generation of all nodes.
	HW costmodel.HW
	// Nodes and CoresPerNode shape the cluster (paper: 8 nodes, 12 cores).
	Nodes        int
	CoresPerNode int
	// NodeMemory is the invoker memory per node.
	NodeMemory int64
	// KeepWarm is the idle-container timeout (3 min in Table V).
	KeepWarm time.Duration
	// SandboxStart is the container start latency.
	SandboxStart time.Duration
	// Storage selects the model-load latency profile.
	Storage StorageKind
	// Actions are the deployed endpoints.
	Actions []ActionSpec
	// Route maps a request to an endpoint; nil routes to the single action.
	Route fnpacker.Strategy
	// ModelCosts aliases workload model ids to cost-model ids (e.g. the
	// FnPacker experiments serve m0..m4, all of which are ResNet101
	// deployments: {"m0": "rsnet", ...}). Unlisted ids map to themselves.
	ModelCosts map[string]string
	// StorageBandwidth is the shared model-storage link capacity in
	// bytes/second (the cluster NFS share; §VI sets up one NFS server over
	// 10 Gbps Ethernet). Concurrent model loads share it. Zero means the
	// 10 Gbps default. This is what makes per-request model reloading
	// (Iso-reuse) collapse under the MMPP workload: 30 rps × 44 MB exceeds
	// the link.
	StorageBandwidth float64
	// OnComplete, when set, observes every completed request before its
	// endpoint queue is re-dispatched; used for closed-loop workloads that
	// inject follow-up requests via Inject.
	OnComplete func(RequestResult)
	// RequestTimeout drops requests that queue longer than this before
	// dispatch (OpenWhisk's action invocation timeout, 60 s by default).
	// Dropped requests are counted, not included in latency stats — this is
	// the "platform becomes unavailable" behaviour of §VI-C.
	RequestTimeout time.Duration
	// SampleEvery is the stats sampling interval (default 5 s).
	SampleEvery time.Duration
	// InvokeOverhead is the modeled per-activation platform overhead
	// (serverless.Config.InvokeOverhead), charged while the request holds
	// its sandbox slot. When batching is enabled the whole batch rides one
	// activation, so the overhead is charged once per batch — the
	// amortization the gateway measures live. Zero disables it.
	InvokeOverhead time.Duration
	// Batch, when MaxBatch > 1, models the serving gateway's batch formation
	// (internal/gateway): arrivals are held per (endpoint, model) until
	// MaxBatch have gathered or MaxWait elapsed, then released to the
	// endpoint queue together. Formation delay is part of E2E latency — and
	// InvokeOverhead is amortized across the batch — so simulated and
	// measured gateway behavior stay comparable.
	Batch BatchSpec
	// Shards mirrors the frontier's sharded gateway tier
	// (internal/frontier): requests hash by (endpoint, model, user) — the
	// frontier's (action, model, tenant) route key — onto Shards logical
	// gateway shards, and every stream-granular structure splits per shard:
	// batch formation, DRR holds, the MaxInFlight dispatch bound and
	// affinity homes all key on the shard-suffixed stream. A multi-tenant
	// stream therefore forms batches — and earns dispatch ceiling —
	// independently per shard, exactly as N frontier shards would split it.
	// ≤ 1 leaves the single-gateway behavior byte-for-byte unchanged.
	Shards int
	// KeyCacheSize mirrors semirt.Config.KeyCacheSize: the per-sandbox LRU
	// of cached ⟨model‖user⟩ key pairs. 0 means the live default (64);
	// 1 reproduces the historical single-pair cache, where every user flip
	// refetches keys over the KeyService session.
	KeyCacheSize int
	// DisableKeyCache mirrors semirt strong isolation: every request
	// refetches keys regardless of KeyCacheSize.
	DisableKeyCache bool
	// Affinity mirrors the gateway's locality-aware batch routing
	// (gateway.Config.Affinity): each (endpoint, model) stream homes on one
	// node — chosen to spread streams across nodes, then by free memory —
	// and its requests are served there: ready sandbox on the home first,
	// then a cold start on the home while it has room, then waiting for home
	// sandboxes already starting; only a completely unable home re-homes the
	// stream. Off it, the platform proxy picks sandboxes indiscriminately
	// (the paper's Figure 7 behaviour), so simulated and measured locality
	// curves stay comparable.
	Affinity bool
	// Autoscale mirrors the predictive autoscaler (internal/autoscale,
	// gateway.Config.Autoscaler) inside the discrete-event harness, running
	// the SAME policy functions (Holt forecast, Little's-law target,
	// adaptive keep-warm) on the simulator's virtual clock — so the ranking
	// (predictive beats reactive on bursty traces) is reproducible
	// deterministically.
	Autoscale AutoscaleSpec
	// Faults mirrors the live fault-injection plane (internal/faults) and
	// the gateway's retry/failover recovery inside the discrete-event
	// harness, so availability-under-faults curves are reproducible
	// deterministically (same seed, same trace → same Result).
	Faults FaultsSpec
	// Rollout mirrors the canary rollout plane (internal/rollout) — sticky
	// weighted revision split, SLO-gated ramp, drain-then-done rollback —
	// on the virtual clock (rollout.go).
	Rollout RolloutSpec
}

// AutoscaleSpec mirrors autoscale.Config for the simulator.
type AutoscaleSpec struct {
	// Enabled turns the predictive control loop on (off = the reactive
	// start-on-pressure baseline).
	Enabled bool
	// Window is the forecast sampling interval (default 1s).
	Window time.Duration
	// Alpha/Beta are the Holt smoothing coefficients (autoscale defaults).
	Alpha, Beta float64
	// Horizon is windows of forecast lead (default 2).
	Horizon float64
	// Headroom is warm spares above the Little's-law target (default 1).
	Headroom int
	// MaxWarm caps the per-action target (default 16).
	MaxWarm int
	// MinKeepWarm floors the adaptive keep-warm deadline (default 5s);
	// Config.KeepWarm is its ceiling.
	MinKeepWarm time.Duration
	// WarmHitTarget / IdleTarget gate scale-down (defaults 0.9 / 0.5).
	WarmHitTarget, IdleTarget float64
}

// BatchSpec mirrors the gateway's batching knobs inside the discrete-event
// harness.
type BatchSpec struct {
	// MaxBatch is the flush size; <= 1 disables batching.
	MaxBatch int
	// MaxWait is the formation deadline after the first held request
	// (default 2 ms, the gateway's default).
	MaxWait time.Duration
	// MaxInFlight mirrors gateway.Config.MaxInFlight: at most this many
	// batches of one (endpoint, model) stream are dispatched into sandboxes
	// at a time; the rest wait in the endpoint queue (other streams pass
	// them). Zero means unbounded. Only meaningful when MaxBatch > 1.
	MaxInFlight int
	// DRR mirrors the gateway's serving API v2 discipline: arrivals backlog
	// in per-tenant (workload UserID) sub-queues and every formed batch is
	// drained by deficit round robin with TenantWeights, so a flooding user
	// cannot starve the rest of its (endpoint, model) stream. Off, the
	// stream is one FIFO: batches form in pure arrival order and queue
	// behind each other (the v1 gateway), which is the starvation baseline.
	DRR bool
	// TenantWeights mirrors gateway.Config.TenantWeights (user id →
	// deficit-round-robin weight; unlisted users weigh 1). Only meaningful
	// with DRR.
	TenantWeights map[string]int
	// GroupUsers mirrors gateway.Config.GroupUsers: formed batches are
	// stably ordered into same-user runs, so the sandbox's key cache
	// switches at most once per distinct user per batch.
	GroupUsers bool
	// Continuous mirrors gateway.Config.Continuous: a formed batch executes
	// as a continuous session — a round-robin step loop over its members,
	// one execution step per active member per frame — so each member
	// completes at its own final step instead of at the batch's collective
	// end. Admission is modeled at formation (the event engine forms then
	// runs; the live path also admits mid-flight), and a member longer than
	// PreemptAfter models its preempt/resume cycles as deferred completion
	// plus costmodel.PreemptionOverhead rather than a literal re-queue — the
	// fairness consequence, short members never waiting out long ones, is
	// identical.
	Continuous bool
	// PreemptAfter mirrors gateway.Config.PreemptAfter: the per-session step
	// budget beyond which a member pays preempt/resume cycles (default 4).
	PreemptAfter int
	// StepOverhead is the per-frame scheduling cost of a continuous session
	// (the step-frame decode plus enclave re-entry the live path pays once
	// per frame) — Result.SchedSteps × StepOverhead is the run's scheduling
	// overhead.
	StepOverhead time.Duration
}

func (c *Config) defaults() error {
	if c.Nodes <= 0 {
		c.Nodes = 1
	}
	if c.CoresPerNode <= 0 {
		c.CoresPerNode = costmodel.Cores
	}
	if c.NodeMemory <= 0 {
		c.NodeMemory = 64 << 30
	}
	if c.KeepWarm <= 0 {
		c.KeepWarm = 3 * time.Minute
	}
	if c.SandboxStart <= 0 {
		c.SandboxStart = 500 * time.Millisecond
	}
	if c.SampleEvery <= 0 {
		c.SampleEvery = 5 * time.Second
	}
	if c.StorageBandwidth <= 0 {
		c.StorageBandwidth = 1.6e9 // 10 Gbps wire + NFS server cache assist
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 60 * time.Second
	}
	if c.Shards < 1 {
		c.Shards = 1
	}
	if c.Batch.MaxBatch > 1 && c.Batch.MaxWait <= 0 {
		c.Batch.MaxWait = 2 * time.Millisecond
	}
	if c.Batch.Continuous && c.Batch.PreemptAfter < 1 {
		c.Batch.PreemptAfter = 4
	}
	if c.Autoscale.Enabled {
		if c.Autoscale.Window <= 0 {
			c.Autoscale.Window = time.Second
		}
		if c.Autoscale.Horizon <= 0 {
			c.Autoscale.Horizon = 2
		}
		if c.Autoscale.Headroom <= 0 {
			c.Autoscale.Headroom = 1
		}
		if c.Autoscale.MaxWarm <= 0 {
			c.Autoscale.MaxWarm = 16
		}
		if c.Autoscale.MinKeepWarm <= 0 {
			c.Autoscale.MinKeepWarm = 5 * time.Second
		}
		if c.Autoscale.WarmHitTarget <= 0 || c.Autoscale.WarmHitTarget > 1 {
			c.Autoscale.WarmHitTarget = 0.9
		}
		if c.Autoscale.IdleTarget <= 0 || c.Autoscale.IdleTarget > 1 {
			c.Autoscale.IdleTarget = 0.5
		}
	}
	if len(c.Actions) == 0 {
		return fmt.Errorf("sim: no actions configured")
	}
	for i := range c.Actions {
		a := &c.Actions[i]
		if a.Concurrency < 1 {
			a.Concurrency = 1
		}
		if a.EnclaveBytes == 0 {
			if a.DefaultModel == "" {
				return fmt.Errorf("sim: action %q needs EnclaveBytes or DefaultModel", a.Name)
			}
			b, err := costmodel.EnclaveConfigBytes(a.Framework, a.DefaultModel, a.Concurrency)
			if err != nil {
				return err
			}
			a.EnclaveBytes = b
		}
		if a.MemoryBudget == 0 {
			a.MemoryBudget = costmodel.ContainerMemoryBudget(a.EnclaveBytes)
		}
	}
	return nil
}

// RequestResult records one served request.
type RequestResult struct {
	// Model and User identify the request.
	Model, User string
	// Endpoint is where it was routed.
	Endpoint string
	// Arrive, Start and Done are virtual times (Start = dispatch into a
	// sandbox slot).
	Arrive, Start, Done time.Duration
	// Kind is the invocation path taken.
	Kind semirt.InvocationKind
}

// Latency is the end-to-end request latency (queueing included).
func (r RequestResult) Latency() time.Duration { return r.Done - r.Arrive }

// Result aggregates a run.
type Result struct {
	// Rehomes counts affinity re-homing decisions (0 when Affinity is off).
	Rehomes int
	// Requests holds every completed request in completion order.
	Requests []RequestResult
	// PerModel aggregates latency per model id.
	PerModel map[string]*metrics.Latency
	// All aggregates latency across models.
	All *metrics.Latency
	// LatencySeries buckets request latency (seconds) by completion time.
	LatencySeries *metrics.TimeSeries
	// SandboxSeries and ServingSeries track container counts over time.
	SandboxSeries, ServingSeries *metrics.TimeSeries
	// MemorySeries tracks reserved container memory (bytes) over time.
	MemorySeries *metrics.TimeSeries
	// GBSeconds is the memory-cost integral of §VI-C.
	GBSeconds float64
	// Cold, Warm, Hot count invocation paths.
	Cold, Warm, Hot int
	// ColdStarts counts sandbox creations; Evictions counts LRU kills.
	ColdStarts, Evictions int
	// Prewarmed counts sandboxes the autoscale mirror started proactively
	// (included in ColdStarts, like the live cluster's counter).
	Prewarmed int
	// IdleSandboxSeconds accrues sandbox idle time — ready with nothing in
	// flight, from going idle until the next dispatch or destruction — the
	// enclave-memory squatting a scale-down policy shrinks (live:
	// serverless.ActionStats.IdleSeconds).
	IdleSandboxSeconds float64
	// Dropped counts requests that timed out in the queue.
	Dropped int
	// Batches counts gateway batch flushes (0 when batching is disabled).
	Batches int
	// KeyFetches counts key provisioning round trips over the KeyService
	// session — the volume the key cache amortizes (live: Stats.KeyFetches).
	KeyFetches int
	// SchedSteps counts continuous-session scheduling frames (0 when
	// Batch.Continuous is off) — SchedSteps × Batch.StepOverhead is the
	// run's scheduling overhead.
	SchedSteps int
	// Preemptions counts the preempt/resume cycles long members would
	// undergo at the live gateway (costmodel.PreemptionOverhead volume).
	Preemptions int
	// BatchSizes is the flushed batch-size distribution.
	BatchSizes *metrics.Histogram
	// Lost counts requests abandoned by a fault with the retry budget
	// exhausted (or recovery off) — the availability gap the chaos
	// experiment measures (live: gateway ErrRetriesExhausted outcomes).
	Lost int
	// Retries counts failover re-dispatches of faulted activations
	// (live: gateway Stats.Retries).
	Retries int
	// KSRejects counts key fetches refused by an injected key-service
	// outage (live: faults.Stats.KSRejects).
	KSRejects int
	// PerShard counts completed requests per logical shard (nil when
	// Shards ≤ 1) — the input to costmodel.ShardImbalance, mirroring the
	// frontier's per-shard Stats breakdown.
	PerShard []int
	// SandboxCrashes counts activations killed by injected sandbox death
	// (live: faults.Stats.SandboxCrashes).
	SandboxCrashes int
	// Promoted / RolledBack report the rollout mirror's terminal phase
	// (both false when Config.Rollout is off or the ramp never concluded).
	Promoted, RolledBack bool
	// TimeToRollback is the virtual time from ramp start (t=0) until the
	// rollback completed — weight zeroed AND every in-flight canary member
	// drained (zero unless RolledBack).
	TimeToRollback time.Duration
	// RequestsAffected counts the requests the canary revision absorbed
	// before the rollback completed (zero unless RolledBack).
	RequestsAffected int
	// Stages is the per-stage virtual-time decomposition of the run, indexed
	// by obs.Stage — the sim-side mirror of the live tracer's Decomposition.
	// Queue wait (arrival→dispatch) lands in queue, per-activation invoke
	// overhead in dispatch, enclave launches in cold_start, KeyService round
	// trips in key_fetch, and in-enclave load/init/exec/crypto in ecall.
	Stages [obs.NumStages]time.Duration
	// End is the virtual completion time of the run.
	End time.Duration
}

// StageBreakdown returns the non-zero rows of Stages keyed by wire name, in
// enum order — directly comparable, stage by stage, to the live tracer's
// Decomposition for sim-vs-live calibration.
func (r *Result) StageBreakdown() map[string]time.Duration {
	out := map[string]time.Duration{}
	for st, d := range r.Stages {
		if d > 0 {
			out[obs.Stage(st).String()] = d
		}
	}
	return out
}

// node is one invoker machine's simulated state.
type node struct {
	id         int
	cores      int
	memory     int64
	reserved   int64
	epcUsed    int64
	activeExec int
	pagers     int
	launching  int
	quoting    int
	// down marks a crashed node (FaultsSpec.CrashAt): placement skips it and
	// its in-flight activations fail over, mirroring the live breaker's view.
	down bool
}

type sandboxState int

const (
	sbStarting sandboxState = iota
	sbReady
	sbDead
)

// sandbox is one container with its SeMIRT enclave state.
type sandbox struct {
	spec  *ActionSpec
	node  *node
	state sandboxState

	inFlight  int
	idleSince time.Duration

	enclaveUp bool
	sessionUp bool
	// cachedPairs is the sandbox's key-pair LRU, most recently used first,
	// capped at the config's effective key-cache size — the discrete-event
	// twin of semirt's keyCache.
	cachedPairs []string
	loaded      string
	slots       []string // model each slot's runtime was built for
	freeSlots   []int    // indices of unoccupied slots
	born        time.Duration

	// target is the model the sandbox's in-flight requests are serving
	// (admits same-model joiners while preparation is in progress).
	target string

	// In-progress stage tracking lets later requests wait for a stage
	// another request already started (the swap-lock/join behaviour of the
	// live runtime) instead of paying it again or spawning a new sandbox.
	enclaveReadyAt time.Duration
	fetchingPair   string
	keysReadyAt    time.Duration
	loadingModel   string
	loadReadyAt    time.Duration
}

// hasPair reports whether the key pair is cached.
func (sb *sandbox) hasPair(pair string) bool {
	for _, p := range sb.cachedPairs {
		if p == pair {
			return true
		}
	}
	return false
}

// notePair records a use of the pair: move-to-front, inserting and evicting
// the least recently used beyond cap. cap <= 0 caches nothing.
func (sb *sandbox) notePair(pair string, cap int) {
	if cap <= 0 {
		return
	}
	for i, p := range sb.cachedPairs {
		if p == pair {
			copy(sb.cachedPairs[1:i+1], sb.cachedPairs[:i])
			sb.cachedPairs[0] = pair
			return
		}
	}
	sb.cachedPairs = append(sb.cachedPairs, "")
	copy(sb.cachedPairs[1:], sb.cachedPairs)
	sb.cachedPairs[0] = pair
	if len(sb.cachedPairs) > cap {
		sb.cachedPairs = sb.cachedPairs[:cap]
	}
}

// servingModel reports the model this sandbox is serving or preparing.
func (sb *sandbox) servingModel() string {
	if sb.loadingModel != "" {
		return sb.loadingModel
	}
	return sb.loaded
}

// takeSlot pops a free slot index, or -1 when the sandbox is full.
func (sb *sandbox) takeSlot() int {
	if len(sb.freeSlots) == 0 {
		return -1
	}
	i := sb.freeSlots[len(sb.freeSlots)-1]
	sb.freeSlots = sb.freeSlots[:len(sb.freeSlots)-1]
	return i
}

func (sb *sandbox) releaseSlot(i int) {
	sb.freeSlots = append(sb.freeSlots, i)
}

// request is an in-simulation request. A formed gateway batch is carried by
// its lead (oldest) request: members holds every batch member including the
// lead, and the whole batch rides ONE activation — one queue entry, one
// sandbox slot, one phase walk — mirroring the live HandleBatch, which
// serves the batch sequentially inside a single ECall.
type request struct {
	ev      workload.Event
	arrive  time.Duration
	ep      string
	started time.Duration
	slot    int
	members []*request // nil for an unbatched request
	// retries counts failed dispatch attempts (FaultsSpec.Retries budget);
	// the re-queued entry keeps its original arrive, like the live gateway's
	// fairness-neutral requeue.
	retries int
}

// batchMembers returns the requests this queue entry carries: its batch
// members, or just itself when unbatched.
func (r *request) batchMembers() []*request {
	if r.members != nil {
		return r.members
	}
	return []*request{r}
}

// costID resolves a workload model id to its cost-model id. Revisioned ids
// (base@rev) resolve through their base, so a canary revision shares the
// stable build's calibration unless aliased explicitly.
func (c *Config) costID(modelID string) string {
	if alias, ok := c.ModelCosts[modelID]; ok {
		return alias
	}
	if base := model.BaseID(modelID); base != modelID {
		if alias, ok := c.ModelCosts[base]; ok {
			return alias
		}
		return base
	}
	return modelID
}

// keyCap resolves the effective per-sandbox key-cache capacity, mirroring
// semirt.Config.EffectiveKeyCacheSize.
func (c *Config) keyCap() int {
	if c.DisableKeyCache {
		return 0
	}
	if c.KeyCacheSize == 0 {
		return semirt.DefaultKeyCacheSize
	}
	return c.KeyCacheSize
}

// orderBatch stably orders a formed batch into same-user runs when
// BatchSpec.GroupUsers is on — the discrete-event mirror of the gateway's
// dispatch-time grouping and HandleBatch's in-enclave tag ordering.
func (s *Simulation) orderBatch(batch []*request) []*request {
	if !s.cfg.Batch.GroupUsers || len(batch) < 2 {
		return batch
	}
	sort.SliceStable(batch, func(i, j int) bool { return batch[i].ev.UserID < batch[j].ev.UserID })
	return batch
}

// Simulation carries the mutable world.
type Simulation struct {
	cfg     Config
	eng     *Engine
	nodes   []*node
	actions map[string]*ActionSpec
	boxes   map[string][]*sandbox // per action
	queues  map[string][]*request
	forming map[string]*forming // gateway batches gathering, per ep+model
	holds   map[string]*drrHold // DRR backlogs, per ep+model (Batch.DRR)

	res     *Result
	gb      metrics.GBSeconds
	lastEnd time.Duration

	// activeLoads counts in-flight model transfers from shared storage.
	activeLoads int

	// Affinity state: sticky home node per (endpoint, model) stream and how
	// many streams are homed per node (for spread). inflight counts each
	// stream's dispatched-but-incomplete queue entries for the MaxInFlight
	// bound.
	homes     map[string]*node
	homeCount map[*node]int
	inflight  map[string]int

	// Autoscale mirror state (Config.Autoscale.Enabled): per-stream
	// forecasters and per-action control state, fed by arrive/complete and
	// stepped once per Autoscale.Window.
	asStreams map[string]*asStream
	asActs    map[string]*asActState

	// frng drives fault-injection draws (Config.Faults.Seed); the engine is
	// otherwise deterministic, so seeding it pins the whole run.
	frng *rand.Rand

	// roll is the rollout mirror's state (nil when Config.Rollout is off).
	roll *rolloutMirror
}

// asStream is one (endpoint, model) stream's forecasting state — the
// discrete-event twin of the live controller's stream record.
type asStream struct {
	ep, model  string
	count      int // arrivals in the current window
	holt       *autoscale.Holt
	svcSeconds float64 // smoothed dispatch→completion time per queue entry
	meanBatch  float64
}

// asActState is the per-action control state of the autoscale mirror.
type asActState struct {
	keepWarm            time.Duration // adaptive override (0: Config.KeepWarm)
	prevCold, prevCompl int           // last window's counter snapshots
	coldStarts, compl   int           // per-action lifetime counters
}

// New builds a simulation for the config.
func New(cfg Config) (*Simulation, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	s := &Simulation{
		cfg:       cfg,
		eng:       &Engine{},
		actions:   map[string]*ActionSpec{},
		boxes:     map[string][]*sandbox{},
		queues:    map[string][]*request{},
		forming:   map[string]*forming{},
		holds:     map[string]*drrHold{},
		homes:     map[string]*node{},
		homeCount: map[*node]int{},
		inflight:  map[string]int{},
		asStreams: map[string]*asStream{},
		asActs:    map[string]*asActState{},
		res: &Result{
			PerModel:      map[string]*metrics.Latency{},
			All:           &metrics.Latency{},
			BatchSizes:    metrics.NewHistogram(1),
			LatencySeries: metrics.NewTimeSeries(30 * time.Second),
			SandboxSeries: metrics.NewTimeSeries(cfg.SampleEvery),
			ServingSeries: metrics.NewTimeSeries(cfg.SampleEvery),
			MemorySeries:  metrics.NewTimeSeries(cfg.SampleEvery),
		},
	}
	if cfg.Shards > 1 {
		s.res.PerShard = make([]int, cfg.Shards)
	}
	for i := 0; i < cfg.Nodes; i++ {
		s.nodes = append(s.nodes, &node{id: i, cores: cfg.CoresPerNode, memory: cfg.NodeMemory})
	}
	if cfg.Faults.Enabled {
		s.frng = rand.New(rand.NewSource(cfg.Faults.Seed))
	}
	for i := range cfg.Actions {
		a := &cfg.Actions[i]
		if _, dup := s.actions[a.Name]; dup {
			return nil, fmt.Errorf("sim: duplicate action %q", a.Name)
		}
		s.actions[a.Name] = a
	}
	if err := s.initRollout(); err != nil {
		return nil, err
	}
	return s, nil
}

// Clock adapts the engine to vclock.Clock for the shared FnPacker policy.
type engineClock struct{ eng *Engine }

func (c engineClock) Now() time.Time { return time.Unix(0, 0).Add(c.eng.Now()) }
func (c engineClock) Sleep(time.Duration) {
	panic("sim: policies must not sleep inside the discrete-event engine")
}

// EngineClock exposes the simulation's virtual clock (for building a
// fnpacker.Scheduler that shares it).
func (s *Simulation) EngineClock() interface {
	Now() time.Time
	Sleep(time.Duration)
} {
	return engineClock{s.eng}
}

// SetRoute installs a routing strategy after construction (needed when the
// strategy shares the simulation's virtual clock). Call before Run.
func (s *Simulation) SetRoute(r fnpacker.Strategy) error {
	if len(s.res.Requests) > 0 {
		return fmt.Errorf("sim: SetRoute after Run")
	}
	s.cfg.Route = r
	return nil
}

// SetOnComplete installs the completion observer after construction. Call
// before Run.
func (s *Simulation) SetOnComplete(fn func(RequestResult)) {
	s.cfg.OnComplete = fn
}

// Run replays the trace and returns aggregated results.
func (s *Simulation) Run(trace workload.Trace) (*Result, error) {
	trace.Sort()
	for i := range trace {
		ev := trace[i]
		s.eng.At(ev.At, func() { s.arrive(ev) })
	}
	s.scheduleFaults()
	// Periodic maintenance: keep-warm reaping + stats sampling, until a bit
	// past the last arrival (long enough to drain, bounded to avoid
	// infinite reap loops).
	horizon := trace.Duration() + s.cfg.KeepWarm + 10*time.Minute
	s.scheduleRollout(horizon)
	var maintain func()
	maintain = func() {
		s.sample()
		s.reap()
		if s.eng.Now() < horizon {
			s.eng.After(s.cfg.SampleEvery, maintain)
		}
	}
	s.eng.After(s.cfg.SampleEvery, maintain)
	if s.cfg.Autoscale.Enabled {
		var tick func()
		tick = func() {
			s.autoscaleStep()
			if s.eng.Now() < horizon {
				s.eng.After(s.cfg.Autoscale.Window, tick)
			}
		}
		s.eng.After(s.cfg.Autoscale.Window, tick)
	}
	end := s.eng.Run()
	s.res.End = s.lastEnd
	s.res.GBSeconds = s.gb.Finish(end)
	return s.res, nil
}

func (s *Simulation) route(ev workload.Event) (string, error) {
	if s.cfg.Route != nil {
		return s.cfg.Route.Route(ev.ModelID)
	}
	if len(s.cfg.Actions) == 1 {
		return s.cfg.Actions[0].Name, nil
	}
	// Default: action named after the model (one-to-one deployment).
	name := "fn-" + ev.ModelID
	if _, ok := s.actions[name]; !ok {
		return "", fmt.Errorf("sim: no route for model %q", ev.ModelID)
	}
	return name, nil
}

// Inject schedules an additional arrival during the run (closed-loop
// workloads). The event fires at ev.At or now, whichever is later.
func (s *Simulation) Inject(ev workload.Event) {
	s.eng.At(ev.At, func() { s.arrive(ev) })
}

func (s *Simulation) arrive(ev workload.Event) {
	// The rollout mirror re-targets ramped-model arrivals to a revision
	// BEFORE routing and batching, exactly where the live splitter sits
	// (revision choice binds the encrypted request, not just the route).
	ev.ModelID = s.rolloutTarget(ev.ModelID, ev.UserID)
	ep, err := s.route(ev)
	if err != nil {
		// Routing failures surface as panics: traces and configs are
		// researcher-provided and must agree.
		panic(err)
	}
	req := &request{ev: ev, arrive: s.eng.Now(), ep: ep}
	if s.cfg.Autoscale.Enabled {
		s.asStream(ep, ev.ModelID).count++
	}
	if s.cfg.Batch.MaxBatch > 1 {
		if s.cfg.Batch.DRR {
			s.joinDRR(req)
		} else {
			s.joinBatch(req)
		}
		return
	}
	s.queues[ep] = append(s.queues[ep], req)
	s.dispatch(ep)
}

// ---------- DRR hold: the serving API v2 discipline, mirrored ----------

// drrTenant is one user's sub-queue inside a stream's hold.
type drrTenant struct {
	name    string
	weight  int
	items   []*request
	deficit int
	inRing  bool
}

// drrHold is one (endpoint, model) stream's backlog under Batch.DRR:
// per-tenant sub-queues drained by deficit round robin, the discrete-event
// twin of the gateway queue. Unlike the FIFO `forming` path — which
// pre-forms batches in arrival order and queues them behind each other —
// the hold keeps requests unformed until a dispatch slot frees, so batch
// membership is decided at dispatch time, like the live gateway.
type drrHold struct {
	tenants    map[string]*drrTenant
	ring       []*drrTenant
	next       int
	midVisit   bool
	size       int
	oldest     time.Duration // earliest held arrival (virtual time)
	timerArmed bool
}

func (s *Simulation) hold(key string) *drrHold {
	h := s.holds[key]
	if h == nil {
		h = &drrHold{tenants: map[string]*drrTenant{}}
		s.holds[key] = h
	}
	return h
}

func (h *drrHold) add(req *request, weight int) {
	tq := h.tenants[req.ev.UserID]
	if tq == nil {
		tq = &drrTenant{name: req.ev.UserID, weight: weight}
		h.tenants[req.ev.UserID] = tq
	}
	tq.items = append(tq.items, req)
	if !tq.inRing {
		tq.inRing = true
		h.ring = append(h.ring, tq)
	}
	if h.size == 0 || req.arrive < h.oldest {
		h.oldest = req.arrive
	}
	h.size++
}

// drain forms one batch of up to max requests by deficit round robin — the
// same quantum/visit discipline as gateway.drainLocked (without deadline
// shedding, which the sim does not model).
func (h *drrHold) drain(max int) []*request {
	batch := make([]*request, 0, max)
	for h.size > 0 && len(batch) < max && len(h.ring) > 0 {
		if h.next >= len(h.ring) {
			h.next = 0
		}
		tq := h.ring[h.next]
		if !h.midVisit {
			tq.deficit += tq.weight
		}
		h.midVisit = false
		for tq.deficit >= 1 && len(tq.items) > 0 && len(batch) < max {
			batch = append(batch, tq.items[0])
			tq.items = tq.items[1:]
			tq.deficit--
			h.size--
		}
		if len(tq.items) == 0 {
			tq.inRing = false
			tq.deficit = 0
			h.ring = append(h.ring[:h.next], h.ring[h.next+1:]...)
			delete(h.tenants, tq.name)
			continue
		}
		if len(batch) >= max {
			if tq.deficit >= 1 {
				h.midVisit = true
			} else {
				h.next++
			}
			break
		}
		h.next++
	}
	// Recompute the formation deadline anchor for what remains.
	first := true
	for _, tq := range h.tenants {
		for _, r := range tq.items {
			if first || r.arrive < h.oldest {
				h.oldest = r.arrive
				first = false
			}
		}
	}
	return batch
}

func (s *Simulation) tenantWeight(user string) int {
	if w := s.cfg.Batch.TenantWeights[user]; w >= 1 {
		return w
	}
	return 1
}

// drrBlocked reports whether the stream is at its MaxInFlight release bound.
func (s *Simulation) drrBlocked(key string) bool {
	return s.cfg.Batch.MaxInFlight > 0 && s.inflight[key] >= s.cfg.Batch.MaxInFlight
}

func (s *Simulation) joinDRR(req *request) {
	key := s.streamKey(req)
	h := s.hold(key)
	h.add(req, s.tenantWeight(req.ev.UserID))
	s.releaseDRR(key, h, false)
	s.armHoldTimer(key, h)
}

// releaseDRR forms and releases batches to the endpoint queue while the
// stream has a full batch (or force, on the formation deadline) and an
// in-flight slot free — the mirror of gateway.flushLocked.
func (s *Simulation) releaseDRR(key string, h *drrHold, force bool) {
	for h.size > 0 && !s.drrBlocked(key) {
		if h.size < s.cfg.Batch.MaxBatch && !force {
			return
		}
		force = false
		batch := s.orderBatch(h.drain(s.cfg.Batch.MaxBatch))
		if len(batch) == 0 {
			return
		}
		s.res.Batches++
		s.res.BatchSizes.Observe(float64(len(batch)))
		lead := batch[0]
		lead.members = batch
		if s.cfg.Batch.MaxInFlight > 0 {
			// Released batches count against the bound immediately (they are
			// committed to dispatch), so at most MaxInFlight of one stream's
			// batches ever sit in or beyond the endpoint queue.
			s.inflight[key]++
		}
		s.queues[lead.ep] = append(s.queues[lead.ep], lead)
		s.dispatch(lead.ep)
	}
}

// armHoldTimer schedules the formation-deadline release for the hold's
// oldest request. Not armed while the release bound is closed — a batch
// completion reopens it and re-arms (armTimerLocked's skip, mirrored).
func (s *Simulation) armHoldTimer(key string, h *drrHold) {
	if h.timerArmed || h.size == 0 || s.drrBlocked(key) {
		return
	}
	h.timerArmed = true
	wait := s.cfg.Batch.MaxWait - (s.eng.Now() - h.oldest)
	if wait < 0 {
		wait = 0
	}
	s.eng.After(wait, func() {
		h.timerArmed = false
		if h.size == 0 {
			return
		}
		if s.eng.Now()-h.oldest >= s.cfg.Batch.MaxWait {
			s.releaseDRR(key, h, true)
		}
		s.armHoldTimer(key, h)
	})
}

// forming is one gateway batch gathering arrivals.
type forming struct{ reqs []*request }

// joinBatch holds the request in its (endpoint, model) forming batch,
// flushing when the batch fills or when the first member's deadline expires
// — the discrete-event mirror of the gateway's MaxBatch/MaxWait batcher.
func (s *Simulation) joinBatch(req *request) {
	key := s.streamKey(req)
	f := s.forming[key]
	if f == nil {
		f = &forming{}
		s.forming[key] = f
	}
	f.reqs = append(f.reqs, req)
	if len(f.reqs) >= s.cfg.Batch.MaxBatch {
		s.flushBatch(key, f)
		return
	}
	if len(f.reqs) == 1 {
		s.eng.After(s.cfg.Batch.MaxWait, func() {
			// Only flush if this batch is still the one forming: a fill
			// flush may have replaced it in the meantime.
			if s.forming[key] == f {
				s.flushBatch(key, f)
			}
		})
	}
}

// flushBatch releases a formed batch to the endpoint queue as ONE queue
// entry (its lead request carrying the members). Members keep their original
// arrival times, so formation delay lands in E2E latency.
func (s *Simulation) flushBatch(key string, f *forming) {
	delete(s.forming, key)
	s.res.Batches++
	s.res.BatchSizes.Observe(float64(len(f.reqs)))
	reqs := s.orderBatch(f.reqs)
	lead := reqs[0]
	lead.members = reqs
	s.queues[lead.ep] = append(s.queues[lead.ep], lead)
	s.dispatch(lead.ep)
}

// streamKey identifies one (endpoint, model) stream — the granularity of
// batch formation, DRR holds, the MaxInFlight dispatch bound and affinity
// homing. Under sharding (Config.Shards > 1) the key carries the request's
// shard, so each of those structures splits per shard exactly as N frontier
// shards would split them.
func (s *Simulation) streamKey(req *request) string {
	k := req.ep + "\x1f" + req.ev.ModelID
	if s.cfg.Shards > 1 {
		k += "\x1fs" + strconv.Itoa(s.shardOf(req))
	}
	return k
}

// shardOf hashes the request onto a logical shard — FNV-1a over the
// separator-framed (endpoint, model, user) triple, the same route key the
// frontier hashes onto its ring (internal/frontier.routeKey). The simulator
// models shard ASSIGNMENT, not the ring's virtual-node geometry: a modulus
// over the key hash places streams with the ring's uniform-key distribution,
// which is what the mirrored experiments compare.
func (s *Simulation) shardOf(req *request) int {
	const (
		fnvOffset uint64 = 14695981039346656037
		fnvPrime  uint64 = 1099511628211
	)
	h := fnvOffset
	for _, part := range [3]string{req.ep, req.ev.ModelID, req.ev.UserID} {
		for i := 0; i < len(part); i++ {
			h ^= uint64(part[i])
			h *= fnvPrime
		}
		h ^= 0x1f
		h *= fnvPrime
	}
	return int(h % uint64(s.cfg.Shards))
}

// bounded reports whether the request's stream is at its MaxInFlight
// dispatch bound. Under DRR the bound is enforced at release time
// (releaseDRR) — an entry that reached the endpoint queue is already
// committed, so it is never passed over here.
func (s *Simulation) bounded(req *request) bool {
	return s.cfg.Batch.MaxBatch > 1 && !s.cfg.Batch.DRR && s.cfg.Batch.MaxInFlight > 0 &&
		s.inflight[s.streamKey(req)] >= s.cfg.Batch.MaxInFlight
}

// dispatch drains the endpoint queue into eligible sandboxes, starting new
// ones when allowed. Streams at their MaxInFlight bound are passed over —
// their entries wait without blocking other models' batches — while a stream
// blocked on cluster capacity blocks the queue head as before.
func (s *Simulation) dispatch(ep string) {
	spec := s.actions[ep]
	i := 0
	for i < len(s.queues[ep]) {
		req := s.queues[ep][i]
		if s.eng.Now()-req.arrive > s.cfg.RequestTimeout {
			s.queues[ep] = append(s.queues[ep][:i], s.queues[ep][i+1:]...)
			for _, m := range req.batchMembers() {
				s.res.Dropped++
				s.rolloutLost(m.ev.ModelID)
				if s.cfg.Route != nil {
					s.cfg.Route.Done(m.ep, m.ev.ModelID)
				}
			}
			// A dropped DRR batch never reaches complete(), so its release
			// slot must be returned here or the stream blocks forever. The
			// hold's next release runs as a fresh engine event — dispatch
			// must not re-enter itself mid-iteration.
			if s.cfg.Batch.DRR && s.cfg.Batch.MaxInFlight > 0 {
				key := s.streamKey(req)
				if s.inflight[key]--; s.inflight[key] <= 0 {
					delete(s.inflight, key)
				}
				if h := s.holds[key]; h != nil && h.size > 0 {
					s.eng.After(0, func() {
						if h.size > 0 && !s.drrBlocked(key) {
							s.releaseDRR(key, h, s.eng.Now()-h.oldest >= s.cfg.Batch.MaxWait)
							s.armHoldTimer(key, h)
						}
					})
				}
			}
			continue
		}
		if s.bounded(req) {
			i++
			continue
		}
		if s.cfg.Affinity {
			sb, wait := s.placeWithAffinity(spec, req)
			if sb != nil {
				s.takeAndServe(ep, i, sb, req)
				continue
			}
			if wait {
				// Home capacity is starting: this stream's entry waits (the
				// sandbox-ready callback re-dispatches), but other streams on
				// the endpoint must not be blocked behind it — the live
				// gateway dispatches each (action, model) queue independently.
				i++
				continue
			}
		} else if sb := s.pickSandbox(spec, req.ev.ModelID); sb != nil {
			s.takeAndServe(ep, i, sb, req)
			continue
		}
		if !s.maybeStartSandbox(spec) {
			return // saturated; requests wait in queue
		}
	}
}

// takeAndServe removes queue entry i and dispatches it into sb.
func (s *Simulation) takeAndServe(ep string, i int, sb *sandbox, req *request) {
	s.queues[ep] = append(s.queues[ep][:i], s.queues[ep][i+1:]...)
	if s.cfg.Batch.MaxBatch > 1 && s.cfg.Batch.MaxInFlight > 0 && !s.cfg.Batch.DRR {
		s.inflight[s.streamKey(req)]++ // DRR streams counted at release instead
	}
	s.serve(sb, req)
}

// placeWithAffinity mirrors the live hinted-placement ladder: ready slot on
// the stream's home node, then cold starts on the home while it has room and
// unabsorbed demand, then wait for home sandboxes already starting. A home
// that can do none of those re-homes the stream once; after that the
// indiscriminate global path takes over (off-home spill, like the live
// cluster when the hinted node is saturated). Returns (nil, true) when the
// caller should wait for capacity the home is already starting.
func (s *Simulation) placeWithAffinity(spec *ActionSpec, req *request) (*sandbox, bool) {
	key := s.streamKey(req)
	home := s.homeFor(key)
	for attempt := 0; attempt < 2; attempt++ {
		if sb := s.pickSandboxOn(spec, req.ev.ModelID, home); sb != nil {
			return sb, false
		}
		// Start capacity on the home while it has room and the stream's
		// queued entries outnumber the slots already starting there.
		demand := 0
		for _, r := range s.queues[req.ep] {
			if s.streamKey(r) == key {
				demand++
			}
		}
		for s.startingOn(home, spec)*spec.Concurrency < demand && s.startSandboxOn(home, spec) {
		}
		if s.startingOn(home, spec) > 0 {
			return nil, true
		}
		if attempt == 0 && s.hostedOn(home, spec) == 0 && s.someOtherNodeUsable(home, spec) {
			// The home hosts nothing of this action and cannot start, while
			// some other node could: the stream's warm state is gone
			// (evicted) or never existed. Re-home once and retry the ladder.
			// When every other node is equally unusable the home is kept —
			// re-electing among dead nodes would just ping-pong homes and
			// inflate Rehomes on every dispatch, which the live router's
			// RehomeAfter gating never does.
			home = s.rehome(key, home)
			continue
		}
		break
	}
	// Home saturated but alive: spill to any eligible sandbox (the
	// indiscriminate pick), or let the caller's global start/evict path run.
	return s.pickSandbox(spec, req.ev.ModelID), false
}

// homeFor returns the stream's sticky home, electing one on first use:
// fewest streams homed on the node, then most free memory, then node order —
// the gateway router's spread rule.
func (s *Simulation) homeFor(key string) *node {
	if n := s.homes[key]; n != nil {
		return n
	}
	return s.electHome(key, nil)
}

// electHome picks and records a home, skipping avoid (unless it is the only
// node).
func (s *Simulation) electHome(key string, avoid *node) *node {
	var best *node
	for _, n := range s.nodes {
		if n == avoid || n.down {
			continue
		}
		if best == nil || s.homeCount[n] < s.homeCount[best] ||
			(s.homeCount[n] == s.homeCount[best] && n.memory-n.reserved > best.memory-best.reserved) {
			best = n
		}
	}
	if best == nil {
		best = avoid // single-node cluster: nowhere else to go
	}
	if best == nil {
		best = s.nodes[0] // every node down: park the home, retries re-elect
	}
	s.homes[key] = best
	s.homeCount[best]++
	return best
}

// rehome moves the stream off a dead home to the next-best node. The dead
// home is excluded from the election outright: decrementing its count makes
// it the fewest-homed node, and the fewest-homed rule outranks the
// free-memory tie-break, so without the exclusion the stream would re-elect
// the very node it is abandoning (the live router's rehomeLocked excludes
// the current home the same way).
func (s *Simulation) rehome(key string, old *node) *node {
	s.homeCount[old]--
	delete(s.homes, key)
	s.res.Rehomes++
	return s.electHome(key, old)
}

// someOtherNodeUsable reports whether any node besides home could serve the
// action — it hosts live sandboxes of it, or has room to start one.
func (s *Simulation) someOtherNodeUsable(home *node, spec *ActionSpec) bool {
	for _, n := range s.nodes {
		if n == home || n.down {
			continue
		}
		if n.reserved+spec.MemoryBudget <= n.memory || s.hostedOn(n, spec) > 0 {
			return true
		}
	}
	return false
}

// hostedOn counts live (starting or ready) sandboxes of the action on n.
func (s *Simulation) hostedOn(n *node, spec *ActionSpec) int {
	hosted := 0
	for _, sb := range s.boxes[spec.Name] {
		if sb.node == n && sb.state != sbDead {
			hosted++
		}
	}
	return hosted
}

// startingOn counts the action's starting sandboxes on n.
func (s *Simulation) startingOn(n *node, spec *ActionSpec) int {
	starting := 0
	for _, sb := range s.boxes[spec.Name] {
		if sb.node == n && sb.state == sbStarting {
			starting++
		}
	}
	return starting
}

// startSandboxOn starts one sandbox of the action on n if its memory allows;
// it never evicts (the home ladder treats eviction as a global-path measure).
func (s *Simulation) startSandboxOn(n *node, spec *ActionSpec) bool {
	if n.down || n.reserved+spec.MemoryBudget > n.memory {
		return false
	}
	n.reserved += spec.MemoryBudget
	sb := &sandbox{spec: spec, node: n, state: sbStarting, born: s.eng.Now(),
		slots: make([]string, spec.Concurrency)}
	for i := 0; i < spec.Concurrency; i++ {
		sb.freeSlots = append(sb.freeSlots, i)
	}
	s.boxes[spec.Name] = append(s.boxes[spec.Name], sb)
	s.res.ColdStarts++
	if s.cfg.Autoscale.Enabled {
		s.asAct(spec.Name).coldStarts++
	}
	s.eng.After(s.cfg.SandboxStart, func() {
		if sb.state != sbStarting {
			return
		}
		sb.state = sbReady
		sb.idleSince = s.eng.Now()
		s.dispatch(spec.Name)
	})
	return true
}

// pickSandbox returns a ready sandbox with a free slot that can serve the
// request. The platform proxy is model-agnostic ("indiscriminately chooses
// idle sandboxes", Figure 7): it takes the FIRST eligible sandbox in
// creation order, which makes multi-model endpoints thrash exactly as the
// paper's All-in-one baseline does. Eligibility models SeMIRT's swap lock:
// a sandbox serving (or preparing) a different model only accepts the
// request once idle.
func (s *Simulation) pickSandbox(spec *ActionSpec, modelID string) *sandbox {
	return s.pickSandboxOn(spec, modelID, nil)
}

// pickSandboxOn is pickSandbox restricted to one node when only != nil.
func (s *Simulation) pickSandboxOn(spec *ActionSpec, modelID string, only *node) *sandbox {
	for _, sb := range s.boxes[spec.Name] {
		if only != nil && sb.node != only {
			continue
		}
		if sb.state != sbReady || len(sb.freeSlots) == 0 {
			continue
		}
		if sb.inFlight == 0 {
			return sb
		}
		// Busy sandbox: only same-model requests can share it (others would
		// block on the swap lock inside the enclave).
		if s.cfg.System == SeSeMI && (sb.servingModel() == modelID || sb.target == modelID) {
			return sb
		}
		if s.cfg.System != SeSeMI {
			return sb
		}
	}
	return nil
}

// maybeStartSandbox starts a new container when queue pressure warrants and
// memory allows; returns false when nothing was started.
func (s *Simulation) maybeStartSandbox(spec *ActionSpec) bool {
	// Avoid a start storm: containers already starting will absorb queue.
	starting := 0
	for _, sb := range s.boxes[spec.Name] {
		if sb.state == sbStarting {
			starting++
		}
	}
	if starting*spec.Concurrency >= len(s.queues[spec.Name]) {
		return false
	}
	n := s.pickNode(spec)
	if n == nil {
		return false
	}
	return s.startSandboxOn(n, spec)
}

func (s *Simulation) pickNode(spec *ActionSpec) *node {
	hosting := map[*node]bool{}
	for _, sb := range s.boxes[spec.Name] {
		if sb.state != sbDead {
			hosting[sb.node] = true
		}
	}
	for _, n := range s.nodes {
		if hosting[n] && !n.down && n.reserved+spec.MemoryBudget <= n.memory {
			return n
		}
	}
	for _, n := range s.nodes {
		if !n.down && n.reserved+spec.MemoryBudget <= n.memory {
			return n
		}
	}
	for _, n := range s.nodes {
		if !n.down && s.evictFor(n, spec.MemoryBudget) {
			return n
		}
	}
	return nil
}

func (s *Simulation) evictFor(n *node, need int64) bool {
	var idle []*sandbox
	var reclaimable int64
	for _, sbs := range s.boxes {
		for _, sb := range sbs {
			if sb.node == n && sb.state == sbReady && sb.inFlight == 0 {
				idle = append(idle, sb)
				reclaimable += sb.spec.MemoryBudget
			}
		}
	}
	if n.reserved-reclaimable+need > n.memory {
		return false
	}
	// LRU by idleSince.
	for n.reserved+need > n.memory && len(idle) > 0 {
		oldest := 0
		for i, sb := range idle {
			if sb.idleSince < idle[oldest].idleSince {
				oldest = i
			}
		}
		s.destroy(idle[oldest])
		s.res.Evictions++
		idle = append(idle[:oldest], idle[oldest+1:]...)
	}
	return n.reserved+need <= n.memory
}

func (s *Simulation) destroy(sb *sandbox) {
	if sb.state == sbDead {
		return
	}
	if sb.state == sbReady && sb.inFlight == 0 {
		s.res.IdleSandboxSeconds += (s.eng.Now() - sb.idleSince).Seconds()
	}
	if sb.enclaveUp {
		sb.node.epcUsed -= sb.spec.EnclaveBytes
		sb.enclaveUp = false
	}
	sb.node.reserved -= sb.spec.MemoryBudget
	sb.state = sbDead
	list := s.boxes[sb.spec.Name]
	for i, x := range list {
		if x == sb {
			s.boxes[sb.spec.Name] = append(list[:i], list[i+1:]...)
			break
		}
	}
}

func (s *Simulation) reap() {
	now := s.eng.Now()
	for name, sbs := range s.boxes {
		// The autoscale mirror's adaptive per-action deadline, when set —
		// the twin of serverless.Cluster.SetKeepWarm feeding ReapIdle.
		keepWarm := s.cfg.KeepWarm
		if ac := s.asActs[name]; ac != nil && ac.keepWarm > 0 {
			keepWarm = ac.keepWarm
		}
		for _, sb := range append([]*sandbox(nil), sbs...) {
			if sb.state == sbReady && sb.inFlight == 0 && now-sb.idleSince >= keepWarm {
				s.destroy(sb)
			}
		}
	}
}

func (s *Simulation) sample() {
	now := s.eng.Now()
	total, serving := 0, 0
	var mem int64
	for _, sbs := range s.boxes {
		for _, sb := range sbs {
			if sb.state == sbDead {
				continue
			}
			total++
			if sb.inFlight > 0 {
				serving++
			}
			mem += sb.spec.MemoryBudget
		}
	}
	s.res.SandboxSeries.Observe(now, float64(total))
	s.res.ServingSeries.Observe(now, float64(serving))
	s.res.MemorySeries.Observe(now, float64(mem))
	s.gb.Sample(now, mem)
}
