// Package gateway is the concurrent serving front-end over the serverless
// platform: the layer between "millions of user requests" and
// serverless.Cluster's one-activation-at-a-time Invoke.
//
// Architecture (README "Serving gateway" / "Multi-tenant serving API"):
//
//		clients → per-(action, model) queues of per-tenant sub-queues
//		        → deficit-round-robin batcher → warm pool → SeMIRT
//
//	  - Admission control: each queue is bounded (MaxQueue) and each tenant's
//	    sub-queue is bounded (TenantQuota); a full queue rejects immediately
//	    with ErrOverloaded (or ErrTenantOverloaded when only the tenant's
//	    quota is exhausted) instead of blocking, so overload surfaces as
//	    backpressure, not as unbounded goroutine pile-up.
//	  - Weighted fair queueing: inside a queue, requests wait in per-tenant
//	    sub-queues drained by deficit round robin with configurable tenant
//	    weights (TenantWeights), so one hot tenant cannot starve the rest —
//	    every backlogged tenant receives its weight's share of each formed
//	    batch, to within one quantum.
//	  - Deadlines: a request whose envelope deadline has passed — or, at
//	    dispatch time, cannot be met given the queue's smoothed batch service
//	    time — is failed fast with ErrDeadline instead of burning a batch
//	    slot.
//	  - Batching: requests for the same (action, model) ship as ONE
//	    activation (semirt.EncodeBatch) — one enclave entry serves the whole
//	    batch, the paper's amortization applied to the request path.
//	    Formation is work-conserving: a queue with no batch in flight
//	    dispatches what is queued at once, and a completing dispatch hands
//	    its freed slot whatever has gathered (up to MaxBatch). While a batch
//	    is in flight, arrivals wait for a full batch, that completion, or
//	    MaxWait — so batches grow because the backend is busy, and light
//	    load never waits for company.
//	  - Continuous batching (Config.Continuous): a dispatch opens a pinned
//	    enclave session instead of a fire-once activation; queued requests
//	    join the running batch between execution steps (mid-batch admission)
//	    and members over their step budget are preempted at step boundaries
//	    and re-queued with their original arrival time — burning no fresh
//	    tenant deficit — so short requests stop queueing behind long ones.
//	  - Dispatch bound: at most MaxInFlight batches per queue are in flight,
//	    so a slow backend fills the queue (and trips ErrOverloaded) rather
//	    than spawning unbounded dispatches.
//	  - Prewarming: queue depth drives serverless.Cluster.Prewarm, growing the
//	    warm sandbox pool ahead of demand.
//	  - Affinity routing (Config.Affinity): each queue keeps a sticky home
//	    node and dispatches its batches there (serverless.Cluster.InvokeOn),
//	    so consecutive batches of one model reuse the same warm enclaves; a
//	    saturated home is abandoned by power-of-two-choices re-homing.
//
// Every accepted request is answered exactly once: it either rides a batch
// (its buffered result channel receives the fan-out) or its caller cancels
// while still queued, in which case it is removed under the queue lock —
// never both, never neither.
package gateway

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sesemi/internal/metrics"
	"sesemi/internal/obs"
	"sesemi/internal/semirt"
	"sesemi/internal/serverless"
)

// Invoker dispatches one serialized activation. *serverless.Cluster
// satisfies it; tests substitute recorders.
type Invoker interface {
	Invoke(ctx context.Context, action string, payload []byte) ([]byte, error)
}

// Prewarmer grows an action's warm sandbox pool. *serverless.Cluster
// satisfies it.
type Prewarmer interface {
	Prewarm(action string, want int) (int, error)
}

// PlacedPrewarmer optionally extends Prewarmer with a placement hint, so
// queue-depth-driven prewarming can land warm capacity on the node the
// affinity router will send the queue's batches to. *serverless.Cluster
// satisfies it.
type PlacedPrewarmer interface {
	// PrewarmOn is Prewarm preferring the hinted node ("" = no preference).
	PrewarmOn(action, node string, want int) (int, error)
}

// Autoscaler is the pluggable predictive scaling surface
// (internal/autoscale.Controller implements it): the gateway feeds it every
// admission and every dispatched batch's outcome, and the controller drives
// the cluster's warm pool and keep-warm deadlines from forecasts built on
// that feed. When Config.Autoscaler is set, the depth-triggered prewarm
// (PrewarmDepth) is bypassed — the controller owns warm capacity; when nil,
// depth mode remains the zero-config fallback.
type Autoscaler interface {
	// NoteAdmit reports one admitted request on the (action, model) queue —
	// the admission-event feed the arrival-rate forecast is built from.
	NoteAdmit(action, model string)
	// NoteBatch reports one dispatched batch: its size, its
	// dispatch→fan-out service time, and the node that served it ("" when
	// routing is off) — the service-time and home-node telemetry behind the
	// Little's-law capacity target.
	NoteBatch(action, model string, size int, svc time.Duration, servedOn string)
}

// InvokeSession is one pinned backend session for continuous batching: every
// Step reaches the same sandbox (and enclave), so the gateway can admit and
// preempt members between execution steps. *serverless.Session satisfies it.
type InvokeSession interface {
	// Step delivers one opaque step frame to the pinned sandbox.
	Step(payload []byte) ([]byte, error)
	// Node reports the node serving the session ("" when unknown).
	Node() string
	// Close releases the pinned slot (idempotent).
	Close()
}

// SessionOpener opens pinned backend sessions (Config.Continuous).
// *serverless.Cluster's concrete OpenSession is adapted to it automatically;
// tests substitute fakes.
type SessionOpener interface {
	// OpenSession claims a sandbox slot for the action, preferring the
	// hinted node ("" = no preference), and pins a session to it.
	OpenSession(ctx context.Context, action, node string) (InvokeSession, error)
}

// Router is the locality surface of the backend: hinted dispatch plus the
// per-node scheduling state the affinity router ranks candidate homes by.
// *serverless.Cluster satisfies it.
type Router interface {
	// InvokeOn dispatches one activation with a placement hint and reports
	// the node that actually served it.
	InvokeOn(ctx context.Context, action, node string, payload []byte) ([]byte, string, error)
	// NodeStats returns per-node warm capacity and memory state for the
	// action.
	NodeStats(action string) []serverless.NodeStat
}

// Errors returned by the gateway.
var (
	// ErrOverloaded reports that the request's queue (or the gateway-wide
	// pending bound) is full. Callers should shed or retry with backoff; the
	// gateway never blocks admission.
	ErrOverloaded = errors.New("gateway: overloaded")
	// ErrTenantOverloaded reports that the tenant's own sub-queue quota is
	// full while the queue as a whole still has room — the tenant is asked
	// to back off, everyone else keeps being admitted.
	ErrTenantOverloaded = errors.New("gateway: tenant overloaded")
	// ErrDeadline reports that the request's envelope deadline passed (or
	// provably cannot be met) before dispatch; the request was shed without
	// burning a batch slot.
	ErrDeadline = errors.New("gateway: deadline unmet")
	// ErrCanceled reports that the request was withdrawn by Ticket.Cancel
	// while still queued.
	ErrCanceled = errors.New("gateway: canceled")
	// ErrClosed reports that the gateway has shut down.
	ErrClosed = errors.New("gateway: closed")
	// ErrRetriesExhausted reports that a request's dispatch failed and every
	// permitted retry (Config.MaxRetries) failed too; the wrapped message
	// carries the final attempt's error.
	ErrRetriesExhausted = errors.New("gateway: retries exhausted")
	// ErrBackendPanic reports that the backend panicked inside a dispatched
	// activation (or step frame). The panic is recovered in the dispatch
	// goroutine — it fails the batch, never the gateway — and is retryable.
	ErrBackendPanic = errors.New("gateway: backend panic")
)

// Config tunes the gateway.
type Config struct {
	// MaxBatch is the largest batch shipped in one activation (default 8).
	MaxBatch int
	// MaxWait caps batch formation on a busy queue (default 2ms). An idle
	// queue never waits: it dispatches at once, and a completing dispatch
	// ships whatever has gathered. Only while a batch is in flight does a
	// partial batch wait, until it fills, a dispatch completes, or its oldest
	// request has waited MaxWait. It is a formation cap, not a latency SLO —
	// when all MaxInFlight dispatch slots are occupied, queued requests wait
	// for a slot regardless of MaxWait (that's the backpressure design).
	MaxWait time.Duration
	// MaxQueue bounds each (action, model) queue; admission beyond it fails
	// with ErrOverloaded (default 1024).
	MaxQueue int
	// MaxPending bounds requests admitted but not yet answered across ALL
	// queues (default 8*MaxQueue). Per-queue bounds alone cannot provide
	// backpressure when callers spread load over many model ids; this is
	// the aggregate limit that keeps the gateway's memory bounded.
	MaxPending int
	// MaxInFlight bounds concurrent batch dispatches per queue (default 4).
	MaxInFlight int
	// TenantQuota bounds each tenant's sub-queue within one (action, model)
	// queue; admission beyond it fails with ErrTenantOverloaded. The default
	// is MaxQueue — no per-tenant admission control, the global bound trips
	// first (v1 behaviour, where one caller may fill the queue). Multi-tenant
	// deployments set it well below MaxQueue so a flooding tenant exhausts
	// its own quota while everyone else keeps being admitted.
	TenantQuota int
	// TenantWeights sets per-tenant deficit-round-robin weights: each round
	// a backlogged tenant may place `weight` requests into forming batches.
	// Unlisted tenants (and the v1 Do path's DefaultTenant) weigh 1; values
	// below 1 are treated as 1. Weights are relative — a tenant with weight
	// 3 among weight-1 tenants gets 3x the batch share while contended.
	TenantWeights map[string]int
	// PrewarmDepth, when positive, requests one warm sandbox per PrewarmDepth
	// queued requests (capped at PrewarmMax). Zero disables prewarming.
	// Ignored while Autoscaler is set.
	PrewarmDepth int
	// Autoscaler, when non-nil, receives the admission and batch feeds and
	// owns warm capacity (proactive, forecast-driven) instead of the
	// depth-triggered prewarm. The gateway only feeds it; the caller wires
	// it to the cluster and runs its control loop.
	Autoscaler Autoscaler
	// PrewarmMax caps the prewarm target per action (default 8).
	PrewarmMax int
	// Affinity enables locality-aware batch routing: each (action, model)
	// queue gets a sticky preferred ("home") node, so consecutive batches of
	// one model land on the same warm enclaves instead of re-provisioning
	// model, keys and runtimes wherever the cluster happens to have a slot.
	// Homes are chosen by warm-sandbox count and free memory, spread across
	// nodes (one hot model per node when possible), and re-chosen by
	// power-of-two-choices when the home saturates. Requires the Invoker to
	// implement Router; otherwise it is ignored.
	Affinity bool
	// GroupUsers enables user-affinity batch grouping: batches form as
	// same-user runs (grouped by Hints.User, falling back to the Tenant)
	// instead of arrival interleavings, so the enclave's key cache sees at
	// most one switch per distinct principal per batch. Grouping is
	// advisory — it reorders dispatch within a batch and lets a same-group
	// request jump a bounded distance ahead inside its own tenant's
	// sub-queue, but never changes cross-tenant shares or batch sizes.
	GroupUsers bool
	// RehomeAfter is the number of consecutive off-home dispatches (the
	// cluster served the batch elsewhere because the home was saturated)
	// after which a queue picks a new home (default 3).
	RehomeAfter int
	// Continuous enables continuous batching: each dispatch opens a pinned
	// enclave session (SessionOpener) and drives a step loop instead of a
	// fire-once activation. Queued requests join the running session between
	// execution steps while the queue is backlogged, and members that have
	// run PreemptAfter steps while others wait are preempted with
	// semirt.ErrPreempted and re-queued with their original enqueue time, so
	// re-entry keeps FIFO/DRR fairness and burns no fresh tenant deficit.
	// Requires the Invoker to open sessions (SessionOpener or
	// *serverless.Cluster); otherwise it is ignored.
	Continuous bool
	// PreemptAfter is the per-session step budget under Continuous: a member
	// that has executed this many steps in one session is preempted at the
	// next step boundary while the queue is backlogged (default 4; members
	// always get at least one step, and a member on its final step finishes).
	PreemptAfter int
	// MaxRetries is how many times a request whose dispatch failed with a
	// retryable error (backend fault, node down, backend panic — anything but
	// a deadline, cancel, or shutdown) is re-queued and re-dispatched before
	// failing with ErrRetriesExhausted. Re-queueing is fairness-neutral: the
	// request keeps its original enqueue time and burns no fresh DRR deficit
	// (the tenant already paid for the admission), exactly like a preempted
	// continuous-batching member. Because a retried batch re-enters placement
	// from scratch, retry doubles as failover — the breaker has typically
	// opened on the failed node by the next attempt, so the retry lands
	// elsewhere. 0 (the default) disables retries: dispatch errors fan out to
	// the batch as before.
	MaxRetries int
	// RetryBackoff is the base delay before a retry is re-queued, growing
	// exponentially per attempt with up to 50% jitter (default 1ms). The
	// dispatch slot is held during the backoff, so a flapping backend is
	// paced instead of hammered.
	RetryBackoff time.Duration
	// Tracer, when non-nil, enables request-lifecycle tracing: Submit mints
	// one trace per request and the dispatch paths record the stage spans
	// (admit, queue, form, dispatch, fanout — plus stitched backend children)
	// that decompose its end-to-end latency. Nil disables tracing; every
	// trace call site then costs one pointer test. Frontier shards embedding
	// this config share the tracer, so a request stolen across shards is
	// finished against the same ring it was started on.
	Tracer *obs.Tracer
	// MinService floors the service-time estimate behind deadline-flush
	// margins (deadlineWait, the deadline watchdog). A cold queue has
	// svcEWMA == 0; unfloored, the margin degenerates to ~1ms and the
	// watchdog fires too late for the first-ever dispatch to meet its
	// deadline (default 5ms). Shedding still uses the raw svcEWMA — the
	// floor decides when to flush, never whether to drop.
	MinService time.Duration
}

func (c *Config) defaults() {
	if c.MaxBatch < 1 {
		c.MaxBatch = 8
	}
	if c.MaxWait <= 0 {
		c.MaxWait = 2 * time.Millisecond
	}
	if c.MaxQueue < 1 {
		c.MaxQueue = 1024
	}
	if c.MaxInFlight < 1 {
		c.MaxInFlight = 4
	}
	if c.MaxPending < 1 {
		c.MaxPending = 8 * c.MaxQueue
	}
	if c.TenantQuota < 1 {
		c.TenantQuota = c.MaxQueue
	}
	if c.PrewarmMax < 1 {
		c.PrewarmMax = 8
	}
	if c.RehomeAfter < 1 {
		c.RehomeAfter = 3
	}
	if c.PreemptAfter < 1 {
		c.PreemptAfter = 4
	}
	if c.MinService <= 0 {
		c.MinService = 5 * time.Millisecond
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = time.Millisecond
	}
}

// result is the fan-out of one batched request back to its caller.
type result struct {
	resp semirt.Response
	err  error
}

// pending is one queued request.
type pending struct {
	req      semirt.Request
	tenant   string
	group    string // user-affinity grouping key (GroupUsers)
	prio     int
	deadline time.Time   // zero: none
	done     chan result // buffered 1: the dispatcher never blocks on fan-out
	enq      time.Time
	// resumed marks a member re-queued after preemption or a retry: it
	// re-enters at its original-arrival position (insertResumed) and its next
	// drain burns no fresh tenant deficit — the tenant already paid for this
	// admission.
	resumed bool
	// retries counts dispatch attempts that failed retryably for this request
	// (bounded by Config.MaxRetries).
	retries int
	// tr is the request's lifecycle trace (nil when tracing is off). Owned by
	// whichever goroutine owns p; every outcome path finishes it BEFORE the
	// result send — the send is the last permitted touch of p (pool.go), and
	// a finished trace is recycled by the tracer.
	tr *obs.Trace
	// trEnq is the absolute instant the request (re-)entered the queue — the
	// start of its next queue span. Reset on retry and preemption re-queues so
	// each wait is traced once.
	trEnq time.Time
	// gen is the envelope's recycle generation (see pool.go): bumped at every
	// releasePending, captured by the Ticket at mint, checked by Cancel before
	// the pointer-matching removal. Atomic because the settle that bumps it
	// does not hold g.mu.
	gen atomic.Uint64
}

// tenantQ is one tenant's sub-queue inside a (action, model) queue: the
// deficit-round-robin flow. items are ordered by (priority desc, arrival).
type tenantQ struct {
	name    string
	weight  int
	items   []*pending
	deficit int  // DRR deficit, in requests (cost 1 each)
	inRing  bool // currently in the queue's active ring
}

// insert places p by priority (stable FIFO within a priority level). The
// overwhelmingly common case — p's priority not above the tail's — is a
// plain append.
func (tq *tenantQ) insert(p *pending) {
	if len(tq.items) == 0 || tq.items[len(tq.items)-1].prio >= p.prio {
		tq.items = append(tq.items, p)
		return
	}
	i := len(tq.items)
	for i > 0 && tq.items[i-1].prio < p.prio {
		i--
	}
	tq.items = append(tq.items, nil)
	copy(tq.items[i+1:], tq.items[i:])
	tq.items[i] = p
}

// insertResumed places a preempted member back by (priority desc, original
// arrival): it re-enters exactly where FIFO order would have kept it had it
// never been dispatched, ahead of later arrivals but behind earlier ones.
func (tq *tenantQ) insertResumed(p *pending) {
	i := len(tq.items)
	for i > 0 && (tq.items[i-1].prio < p.prio ||
		(tq.items[i-1].prio == p.prio && p.enq.Before(tq.items[i-1].enq))) {
		i--
	}
	tq.items = append(tq.items, nil)
	copy(tq.items[i+1:], tq.items[i:])
	tq.items[i] = p
}

// pop removes and returns the sub-queue head. O(1): the head slot is nil-ed
// (so the popped request is not pinned by the backing array) and the slice
// re-anchored; the array itself is reclaimed when the sub-queue drains.
func (tq *tenantQ) pop() *pending {
	p := tq.items[0]
	tq.items[0] = nil
	tq.items = tq.items[1:]
	return p
}

// groupScanWindow bounds how far popGroup scans for a same-group item, so
// user-affinity grouping stays O(window) per pop regardless of queue depth
// (and a group-mate can jump at most this far ahead of earlier arrivals).
const groupScanWindow = 256

// popGroup removes and returns the earliest queued item whose group matches,
// scanning at most groupScanWindow items; when no group-mate is near, the
// head is popped (starting a new run). Within a group, priority/arrival
// order is preserved — items are only ever taken in sub-queue order.
func (tq *tenantQ) popGroup(group string) *pending {
	n := len(tq.items)
	if n > groupScanWindow {
		n = groupScanWindow
	}
	for i := 0; i < n; i++ {
		if tq.items[i].group == group {
			p := tq.items[i]
			copy(tq.items[i:], tq.items[i+1:])
			tq.items[len(tq.items)-1] = nil
			tq.items = tq.items[:len(tq.items)-1]
			return p
		}
	}
	return tq.pop()
}

// queue is one (action, model) batching queue: per-tenant sub-queues
// drained by deficit round robin.
type queue struct {
	action, model string
	key           string // g.queues key, for reaping

	tenants map[string]*tenantQ
	ring    []*tenantQ // backlogged tenants in round-robin order
	next    int        // ring index draining resumes at
	// midVisit marks that the ring's current tenant was interrupted by a
	// full batch with deficit remaining: the next drain resumes it without
	// granting a fresh quantum (one quantum per round-robin visit).
	midVisit bool
	size     int       // queued requests across all tenants
	oldest   time.Time // earliest enqueue among queued items (approximate
	// after priority reordering: never later than the true oldest, so the
	// MaxWait timer can only flush early, never late)
	// minDeadline is the earliest envelope deadline among queued items
	// (zero: none). Stale after a cancel — the timer then flushes early
	// once and the flush-path rescan corrects it.
	minDeadline time.Time

	timerArmed  bool
	inFlight    int // batches dispatched, not yet fanned out
	opening     int // continuous sessions spawned, not yet through first drain
	prewarmWant int // this queue's current warm-sandbox demand

	// svcEWMA is the smoothed dispatch→fan-out batch service time, the
	// estimate behind deadline-aware shedding (0 until the first batch).
	svcEWMA time.Duration

	// Affinity state: home is the sticky preferred node ("" until routed);
	// offHome counts consecutive dispatches the cluster served elsewhere.
	home    string
	offHome int
}

func newQueue(action, model, key string) *queue {
	return &queue{action: action, model: model, key: key, tenants: map[string]*tenantQ{}}
}

// tenant returns (creating if needed) the tenant's sub-queue.
func (q *queue) tenant(name string, cfg *Config) *tenantQ {
	tq := q.tenants[name]
	if tq == nil {
		w := cfg.TenantWeights[name]
		if w < 1 {
			w = 1
		}
		tq = &tenantQ{name: name, weight: w}
		q.tenants[name] = tq
	}
	return tq
}

// enqueueLocked adds p to its tenant sub-queue and the active ring. A
// resumed member (re-queued after preemption) keeps its original enqueue
// time and position, so q.oldest and the formation timer see its true age.
func (q *queue) enqueueLocked(tq *tenantQ, p *pending) {
	if p.resumed {
		tq.insertResumed(p)
	} else {
		tq.insert(p)
	}
	if !tq.inRing {
		tq.inRing = true
		q.ring = append(q.ring, tq)
	}
	if q.size == 0 || p.enq.Before(q.oldest) {
		q.oldest = p.enq
	}
	if !p.deadline.IsZero() && (q.minDeadline.IsZero() || p.deadline.Before(q.minDeadline)) {
		q.minDeadline = p.deadline
	}
	q.size++
}

// deadlineWait returns how long the queue may keep waiting before the
// earliest-deadline item must flush to still meet its deadline given the
// caller's service-time margin, 0 when that flush is due now, and -1 when no
// queued item carries a deadline.
func (q *queue) deadlineWait(margin time.Duration) time.Duration {
	if q.minDeadline.IsZero() {
		return -1
	}
	w := time.Until(q.minDeadline) - margin
	if w < 0 {
		return 0
	}
	return w
}

// dropFromRing removes ring[i], keeping next pointed at the element that
// now occupies the vacated position (the following tenant). An interrupted
// visit (midVisit) survives unless its own tenant is the one dropped — a
// bystander's removal must not re-grant the current tenant a fresh quantum.
func (q *queue) dropFromRing(i int) {
	q.ring[i].inRing = false
	q.ring[i].deficit = 0
	q.ring = append(q.ring[:i], q.ring[i+1:]...)
	if q.next > i {
		q.next--
	} else if q.next == i {
		q.midVisit = false
	}
}

// removeLocked withdraws p from its tenant sub-queue, reporting whether it
// was still queued. Empty sub-queues leave the ring and empty tenants the
// map, so canceled-out tenants do not pin queue state.
func (q *queue) removeLocked(p *pending) bool {
	tq := q.tenants[p.tenant]
	if tq == nil {
		return false
	}
	for i, x := range tq.items {
		if x == p {
			tq.items = append(tq.items[:i], tq.items[i+1:]...)
			q.size--
			if len(tq.items) == 0 {
				for j, r := range q.ring {
					if r == tq {
						q.dropFromRing(j)
						break
					}
				}
				delete(q.tenants, tq.name)
			}
			return true
		}
	}
	return false
}

// recomputeOldestLocked rescans for the earliest queued enqueue time and
// envelope deadline; called after draining (O(queued), bounded by MaxQueue,
// only on flush paths).
func (q *queue) recomputeOldestLocked() {
	first := true
	q.minDeadline = time.Time{}
	for _, tq := range q.tenants {
		for _, p := range tq.items {
			if first || p.enq.Before(q.oldest) {
				q.oldest = p.enq
				first = false
			}
			if !p.deadline.IsZero() && (q.minDeadline.IsZero() || p.deadline.Before(q.minDeadline)) {
				q.minDeadline = p.deadline
			}
		}
	}
}

// actionWarm tracks prewarm state for one action, aggregated across its
// model queues (they share the action's sandbox pool).
type actionWarm struct {
	want       int // running sum of the action's per-queue prewarmWant
	target     int // sandboxes most recently requested from the Prewarmer
	prewarming bool
}

// Metrics are the gateway's exported distributions. All four are bucketed
// histograms (not sample lists): the gateway sits on the serving hot path,
// so per-request accounting must stay O(buckets) forever.
type Metrics struct {
	// BatchSizes is the dispatched batch-size distribution.
	BatchSizes *metrics.Histogram
	// QueueDepth samples queue depth at every enqueue.
	QueueDepth *metrics.Histogram
	// QueueWait is time from enqueue to dispatch (batch formation delay),
	// in milliseconds.
	QueueWait *metrics.Histogram
	// E2E is time from enqueue to response fan-out, in milliseconds.
	E2E *metrics.Histogram
}

// Stats is a snapshot of the gateway counters.
type Stats struct {
	// Accepted counts admitted requests; Rejected counts ErrOverloaded.
	Accepted, Rejected uint64
	// TenantRejected counts ErrTenantOverloaded admissions (a tenant's own
	// quota tripped while the queue still had room).
	TenantRejected uint64
	// Shed counts requests failed fast with ErrDeadline (at admission with
	// an already-passed deadline, or at dispatch when the deadline provably
	// could not be met).
	Shed uint64
	// Canceled counts requests withdrawn by Ticket.Cancel (or Do's ctx)
	// while still queued.
	Canceled uint64
	// Batches counts dispatched activations; Served counts fanned-out
	// responses (errors included).
	Batches, Served uint64
	// Preemptions counts continuous-session members evicted at a step
	// boundary and re-queued (each is answered later, from a later session).
	Preemptions uint64
	// Retries counts requests re-queued after a retryable dispatch failure
	// (each is re-dispatched fairness-neutrally; see Config.MaxRetries).
	Retries uint64
	// BackendPanics counts panics recovered in the dispatch path (each failed
	// its batch with ErrBackendPanic and, with retries enabled, was retried).
	BackendPanics uint64
	// StolenOut counts requests this gateway gave up to a stealing peer
	// (StealQueue); StolenIn counts requests adopted from one (AcceptStolen).
	// A stolen request's admission stays on the source and its outcome lands
	// on the destination, so cross-shard sums still balance.
	StolenOut, StolenIn uint64
	// Prewarmed counts sandboxes started by prewarming.
	Prewarmed uint64
	// Rehomes counts affinity re-homing decisions (a queue abandoning a
	// saturated preferred node for a new one).
	Rehomes uint64
	// Queues is the number of live (action, model) queues; drained queues
	// are reaped, so this tracks active traffic, not ids ever seen.
	Queues int
	// Pending counts requests admitted but not yet answered.
	Pending int
}

// TenantCounts is one tenant's accounting snapshot.
type TenantCounts struct {
	// Accepted counts admitted requests; Served counts answered ones
	// (errors included).
	Accepted, Served uint64
	// Rejected counts admissions refused for this tenant (its quota OR the
	// global bounds); Shed counts its deadline-shed requests; Canceled its
	// requests withdrawn while queued. accepted = served + canceled +
	// in-flight at any instant.
	Rejected, Shed, Canceled uint64
}

// tenantCounts is the internal accumulator behind TenantCounts.
type tenantCounts struct {
	accepted, served, rejected, shed, canceled uint64
}

// maxTenantStats bounds the per-tenant accounting map so caller-supplied
// tenant names cannot grow gateway state without bound.
const maxTenantStats = 8192

// Gateway fronts an Invoker with batching queues.
type Gateway struct {
	cfg  Config
	inv  Invoker
	pw   Prewarmer
	rt   Router        // non-nil when affinity routing is active
	sess SessionOpener // non-nil when continuous batching is active

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu     sync.Mutex
	queues map[string]*queue
	warm   map[string]*actionWarm
	homes  map[string]int // action\x1fnode -> models homed there
	// stickyHomes remembers a queue's home across queue reaping: the warm
	// enclave state a home describes outlives the (bursty) queue, so a
	// re-created queue must return to it instead of reshuffling the cluster.
	// Bounded by maxStickyHomes; a random entry is dropped (and its homes
	// count released) past that.
	stickyHomes map[string]string // queue key -> node
	pending     int               // requests admitted but not yet answered, all queues
	tenantStats map[string]*tenantCounts
	closed      bool

	m Metrics

	// pool recycles request envelopes (pool.go). Per-gateway on purpose: all
	// writes to a pooled envelope's fields then happen under this gateway's
	// mu, which is what makes stale-ticket reads race-free.
	pool sync.Pool

	accepted, rejected, tenantRejected, shed, canceled atomic.Uint64
	batches, served, prewarmed, rehomes, preemptions   atomic.Uint64
	retries, panics                                    atomic.Uint64
	stolenIn, stolenOut                                atomic.Uint64
	sessionSeq                                         atomic.Uint64
}

// clusterSessions adapts *serverless.Cluster's concrete OpenSession to the
// gateway's SessionOpener surface (Go interfaces need exact signatures, and
// the cluster returns its concrete *serverless.Session).
type clusterSessions struct {
	cl interface {
		OpenSession(ctx context.Context, action, node string) (*serverless.Session, error)
	}
}

func (c clusterSessions) OpenSession(ctx context.Context, action, node string) (InvokeSession, error) {
	s, err := c.cl.OpenSession(ctx, action, node)
	if err != nil {
		return nil, err
	}
	return s, nil
}

// sessionOpenerFor resolves the backend's session surface: the generic
// SessionOpener (tests, alternative backends) or the cluster's concrete
// OpenSession adapted to it; nil when the backend cannot open sessions.
func sessionOpenerFor(inv Invoker) SessionOpener {
	if so, ok := inv.(SessionOpener); ok {
		return so
	}
	if cl, ok := inv.(interface {
		OpenSession(ctx context.Context, action, node string) (*serverless.Session, error)
	}); ok {
		return clusterSessions{cl}
	}
	return nil
}

// New creates a gateway over inv. If inv also implements Prewarmer (as
// *serverless.Cluster does) and cfg.PrewarmDepth is positive, queue depth
// drives warm capacity.
func New(cfg Config, inv Invoker) *Gateway {
	cfg.defaults()
	g := &Gateway{
		cfg:         cfg,
		inv:         inv,
		queues:      map[string]*queue{},
		warm:        map[string]*actionWarm{},
		homes:       map[string]int{},
		stickyHomes: map[string]string{},
		tenantStats: map[string]*tenantCounts{},
		m: Metrics{
			BatchSizes: metrics.NewHistogram(1),
			QueueDepth: metrics.NewHistogram(1),
			QueueWait:  metrics.NewHistogram(0.25), // ms
			E2E:        metrics.NewHistogram(0.25), // ms
		},
	}
	// An installed Autoscaler owns warm capacity: depth-triggered prewarm
	// stays off so the two policies cannot fight over the same pool.
	if pw, ok := inv.(Prewarmer); ok && cfg.PrewarmDepth > 0 && cfg.Autoscaler == nil {
		g.pw = pw
	}
	if rt, ok := inv.(Router); ok && cfg.Affinity {
		g.rt = rt
	}
	if cfg.Continuous {
		g.sess = sessionOpenerFor(inv)
	}
	g.ctx, g.cancel = context.WithCancel(context.Background())
	return g
}

// Metrics returns the live metric accumulators.
func (g *Gateway) Metrics() *Metrics { return &g.m }

// Stats returns a counter snapshot.
func (g *Gateway) Stats() Stats {
	g.mu.Lock()
	queues, pending := len(g.queues), g.pending
	g.mu.Unlock()
	return Stats{
		Accepted:       g.accepted.Load(),
		Rejected:       g.rejected.Load(),
		TenantRejected: g.tenantRejected.Load(),
		Shed:           g.shed.Load(),
		Canceled:       g.canceled.Load(),
		Batches:        g.batches.Load(),
		Preemptions:    g.preemptions.Load(),
		Served:         g.served.Load(),
		Retries:        g.retries.Load(),
		BackendPanics:  g.panics.Load(),
		StolenOut:      g.stolenOut.Load(),
		StolenIn:       g.stolenIn.Load(),
		Prewarmed:      g.prewarmed.Load(),
		Rehomes:        g.rehomes.Load(),
		Queues:         queues,
		Pending:        pending,
	}
}

// TenantSnapshot returns per-tenant accounting. The map is bounded at maxTenantStats tenants; past that an
// entry with nothing in flight is dropped (an arbitrary one if none is).
func (g *Gateway) TenantSnapshot() map[string]TenantCounts {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make(map[string]TenantCounts, len(g.tenantStats))
	for name, tc := range g.tenantStats {
		out[name] = TenantCounts{Accepted: tc.accepted, Served: tc.served,
			Rejected: tc.rejected, Shed: tc.shed, Canceled: tc.canceled}
	}
	return out
}

// tenantAddLocked applies fn to the tenant's accumulator under g.mu. Past
// maxTenantStats an entry with nothing in flight (accepted fully answered
// or withdrawn) is evicted, falling back to an arbitrary one when every
// tenant is mid-flight.
func (g *Gateway) tenantAddLocked(tenant string, fn func(*tenantCounts)) {
	tc := g.tenantStats[tenant]
	if tc == nil {
		if len(g.tenantStats) >= maxTenantStats {
			victim := ""
			for k, v := range g.tenantStats {
				if victim == "" {
					victim = k
				}
				if v.accepted == v.served+v.canceled {
					victim = k
					break
				}
			}
			delete(g.tenantStats, victim)
		}
		tc = &tenantCounts{}
		g.tenantStats[tenant] = tc
	}
	fn(tc)
}

// tenantAdd is tenantAddLocked for callers not holding g.mu.
func (g *Gateway) tenantAdd(tenant string, fn func(*tenantCounts)) {
	g.mu.Lock()
	g.tenantAddLocked(tenant, fn)
	g.mu.Unlock()
}

func queueKey(action, model string) string { return action + "\x1f" + model }

// splitQueueKey is the inverse of queueKey.
func splitQueueKey(key string) (action, model string, ok bool) {
	return strings.Cut(key, "\x1f")
}

// flushLocked forms and dispatches batches while in-flight capacity remains
// and the queue either has a full batch, has nothing in flight (an idle
// queue never waits for company), or force is set. force applies to the
// first batch formed: a deadline flush, or a completed dispatch handing its
// freed slot to whatever is queued, ships one partial batch, and anything
// beyond it waits for a fill, the next completion or MaxWait. Batches thus
// grow only while the backend is busy. Batch membership is chosen by
// deficit round robin across the queue's tenant sub-queues (drainLocked), so
// under contention every backlogged tenant owns its weighted share of each
// activation.
func (g *Gateway) flushLocked(q *queue, force bool) {
	if g.sess != nil {
		// Continuous batching: the dispatch drains its members only AFTER its
		// session opens (dispatchSession), so a backlog never strands outside
		// the queue while the open waits for sandbox capacity — the sessions
		// already serving the queue keep admitting it mid-batch in the
		// meantime. Spawn one session per MaxBatch of unclaimed backlog;
		// opening counts spawns that have not yet taken their first drain.
		for q.inFlight < g.cfg.MaxInFlight {
			unclaimed := q.size - q.opening*g.cfg.MaxBatch
			if unclaimed < g.cfg.MaxBatch && !(force && unclaimed > 0) {
				return
			}
			force = false
			q.inFlight++
			q.opening++
			home := ""
			if g.rt != nil {
				if q.home == "" {
					if h, ok := g.stickyHomes[q.key]; ok {
						q.home = h
					}
				}
				home = q.home
			}
			g.wg.Add(1)
			go g.dispatchSession(q, home)
		}
		return
	}
	for q.inFlight < g.cfg.MaxInFlight && q.size > 0 {
		if q.size < g.cfg.MaxBatch && !force && q.inFlight > 0 {
			return
		}
		force = false
		batch := g.drainLocked(q, g.cfg.MaxBatch)
		if len(batch) == 0 {
			continue // everything drained was deadline-shed; re-evaluate
		}
		if g.cfg.GroupUsers && len(batch) > 1 {
			// Make group runs contiguous across tenant-visit boundaries too,
			// so the enclave's key switches are monotone in the batch. Stable:
			// same-group requests keep their drain (priority/arrival) order.
			sort.SliceStable(batch, func(i, j int) bool { return batch[i].group < batch[j].group })
		}
		q.recomputeOldestLocked()
		q.inFlight++
		g.batches.Add(1)
		g.m.BatchSizes.Observe(float64(len(batch)))
		home := ""
		if g.rt != nil {
			// Adopt a remembered home cheaply here; a queue with no home yet
			// elects one in the dispatch goroutine, where the cluster scan
			// (Router.NodeStats takes every node lock) runs outside g.mu.
			if q.home == "" {
				if h, ok := g.stickyHomes[q.key]; ok {
					q.home = h
				}
			}
			home = q.home
		}
		g.wg.Add(1)
		go g.dispatch(q, batch, home)
	}
}

// drainLocked forms one batch of up to max requests by deficit round robin:
// each visit grants a backlogged tenant its weight in quantum; it dispatches
// while deficit remains, then the round moves on. A tenant interrupted by a
// full batch (deficit left over) resumes first next flush without a fresh
// quantum. Requests that cannot meet their deadline are shed here — they
// consume neither deficit nor a batch slot. Under GroupUsers a tenant's
// quantum drains same-group runs (popGroup), so the batch's membership —
// not just its order — favors few distinct principals.
func (g *Gateway) drainLocked(q *queue, max int) []*pending {
	now := time.Now()
	batch := make([]*pending, 0, max)
	group, inRun := "", false
	for q.size > 0 && len(batch) < max && len(q.ring) > 0 {
		if q.next >= len(q.ring) {
			q.next = 0
		}
		tq := q.ring[q.next]
		if !q.midVisit {
			tq.deficit += tq.weight
		}
		q.midVisit = false
		// A group run never crosses a tenant boundary: popGroup scanning
		// tenant B's sub-queue for tenant A's user key would reorder B's queue
		// for a key it cannot contain (groups embed the tenant).
		inRun = false
		for tq.deficit >= 1 && len(tq.items) > 0 && len(batch) < max {
			var p *pending
			if g.cfg.GroupUsers && inRun {
				p = tq.popGroup(group)
			} else {
				p = tq.pop()
			}
			q.size--
			if g.shedLocked(p, now, q.svcEWMA) {
				continue
			}
			if p.resumed {
				// Re-admission after preemption: the tenant already paid
				// deficit when this request was first drained.
				p.resumed = false
			} else {
				tq.deficit--
			}
			batch = append(batch, p)
			group, inRun = p.group, true
		}
		if len(tq.items) == 0 {
			q.dropFromRing(q.next)
			delete(q.tenants, tq.name)
			continue
		}
		if len(batch) >= max {
			if tq.deficit >= 1 {
				q.midVisit = true
			} else {
				q.next++
			}
			break
		}
		q.next++
	}
	return batch
}

// shedLocked fails p fast with ErrDeadline when its deadline has passed or
// the queue's smoothed batch service time says dispatch cannot meet it,
// reporting whether p was shed. The outcome is delivered here (the buffered
// channel never blocks) — answered exactly once, like any dispatch.
func (g *Gateway) shedLocked(p *pending, now time.Time, estimate time.Duration) bool {
	if p.deadline.IsZero() || now.Add(estimate).Before(p.deadline) {
		return false
	}
	if p.tr != nil {
		p.tr.Observe(obs.StageQueue, p.trEnq, now)
		p.tr.Anomaly("shed")
		g.finishTrace(p)
	}
	// Account first: the send is the last touch (a settled waiter may recycle
	// p), and a Stats() read after Wait must already count this outcome.
	g.pending--
	g.shed.Add(1)
	g.served.Add(1)
	g.tenantAddLocked(p.tenant, func(tc *tenantCounts) { tc.shed++; tc.served++ })
	p.done <- result{err: ErrDeadline}
	return true
}

// armTimerLocked schedules a deadline flush for the queue's oldest item. One
// timer is in flight per queue at a time; it re-arms itself while items
// remain.
func (g *Gateway) armTimerLocked(q *queue) {
	if q.timerArmed || q.size == 0 || g.closed {
		return
	}
	// While every dispatch slot is taken a deadline flush cannot make
	// progress; arming would spin a zero-wait timer against a stale oldest
	// item. Dispatch completion re-arms once a slot frees.
	if q.inFlight >= g.cfg.MaxInFlight {
		return
	}
	q.timerArmed = true
	wait := g.cfg.MaxWait - time.Since(q.oldest)
	// An envelope deadline tighter than the formation window flushes early:
	// waiting the full MaxWait would be the very thing that makes the
	// deadline unmeetable on an otherwise idle queue.
	if dw := q.deadlineWait(g.deadlineMarginLocked(q)); dw >= 0 && dw < wait {
		wait = dw
	}
	if wait < 0 {
		wait = 0
	}
	// Deliberately not wg-tracked: a timer that fires after Close sees
	// closed and returns; making Close wait for it would stall shutdown by
	// up to MaxWait for no benefit.
	time.AfterFunc(wait, func() {
		g.mu.Lock()
		defer g.mu.Unlock()
		q.timerArmed = false
		if g.closed {
			return
		}
		// Stale fire: the item this timer was armed for already shipped in a
		// full batch, and nothing queued is due (formation window or
		// envelope deadline) — re-arm for the new oldest instead of
		// force-flushing an undersized batch early.
		if q.size > 0 && time.Since(q.oldest) < g.cfg.MaxWait && q.deadlineWait(g.deadlineMarginLocked(q)) != 0 {
			g.armTimerLocked(q)
			return
		}
		// Ship whatever has gathered; anything the in-flight bound leaves
		// behind re-arms against the (new) oldest item.
		g.flushLocked(q, true)
		g.armTimerLocked(q)
		g.reapLocked(q)
	})
}

// deadlineMarginLocked is the safety margin deadline flushes reserve for the
// dispatch itself: the smoothed batch service time — floored by
// Config.MinService — plus 25% and a millisecond of timer latency. The floor
// covers the cold-queue case: svcEWMA is 0 before the first fan-out, and an
// unfloored margin (~1ms) armed the watchdog so late that the first-ever
// dispatch — the slowest one, cold start included — missed its deadline.
func (g *Gateway) deadlineMarginLocked(q *queue) time.Duration {
	est := q.svcEWMA
	if est < g.cfg.MinService {
		est = g.cfg.MinService
	}
	return est + est/4 + time.Millisecond
}

// armDeadlineWatchdogLocked schedules a force flush for a request whose
// envelope deadline is tighter than the MaxWait formation window — the
// regular formation timer may already be armed for later than this deadline
// can wait, and an armed timer is never re-timed. Spurious fires are safe:
// the handler re-checks due-ness under the lock and does nothing when the
// item already shipped, shed, or canceled.
func (g *Gateway) armDeadlineWatchdogLocked(q *queue, p *pending) {
	wait := time.Until(p.deadline) - g.deadlineMarginLocked(q)
	if wait >= g.cfg.MaxWait {
		return // the regular formation timer flushes in time
	}
	if wait < 0 {
		wait = 0
	}
	// Not wg-tracked, like the formation timer: a post-Close fire returns.
	time.AfterFunc(wait, func() {
		g.mu.Lock()
		defer g.mu.Unlock()
		if g.closed || q.size == 0 || q.deadlineWait(g.deadlineMarginLocked(q)) != 0 {
			return
		}
		g.flushLocked(q, true)
		g.armTimerLocked(q)
		g.reapLocked(q)
	})
}

// retryable reports whether a dispatch error may be retried: backend faults
// (node down, instance failure, recovered panic) are; outcomes the caller
// chose or that cannot change are not — deadline, cancel, shutdown, and
// deterministic request failures (semirt.ErrBadRequest: malformed envelope
// or undecryptable payload, which would replay identically every attempt).
func (g *Gateway) retryable(err error) bool {
	if g.cfg.MaxRetries <= 0 || err == nil {
		return false
	}
	switch {
	case errors.Is(err, ErrDeadline), errors.Is(err, ErrCanceled),
		errors.Is(err, ErrClosed), errors.Is(err, serverless.ErrClosed),
		errors.Is(err, semirt.ErrBadRequest),
		errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return false
	}
	return true
}

// splitRetryable partitions a failed batch into members with retry budget
// left (their retries counter advanced) and members to fail now.
func (g *Gateway) splitRetryable(batch []*pending, err error) (retry, failed []*pending) {
	if !g.retryable(err) {
		return nil, batch
	}
	for _, p := range batch {
		if p.retries < g.cfg.MaxRetries {
			p.retries++
			retry = append(retry, p)
		} else {
			failed = append(failed, p)
		}
	}
	return retry, failed
}

// failFinal converts a dispatch error into the caller-visible one: a request
// that burned its whole retry budget fails with ErrRetriesExhausted wrapping
// the final attempt's error, so callers can branch on the sentinel and logs
// keep the cause.
func (g *Gateway) failFinal(p *pending, err error) error {
	if p.retries > 0 && g.retryable(err) {
		return fmt.Errorf("%w (%d attempts): %v", ErrRetriesExhausted, p.retries+1, err)
	}
	return err
}

// retryBackoff blocks the dispatch slot for the attempt's backoff:
// exponential in the attempt number with up to 50% jitter, so a flapping
// backend is paced and concurrent retries decorrelate. attempt is 1-based.
func (g *Gateway) retryBackoff(attempt int) {
	if attempt > 6 {
		attempt = 6 // cap the exponent: 64x base
	}
	d := g.cfg.RetryBackoff << (attempt - 1)
	d += time.Duration(rand.Int63n(int64(d)/2 + 1))
	time.Sleep(d)
}

// retryLocked re-queues one member of a failed dispatch for another attempt.
// Identical fairness contract to requeueLocked (preemption): original enqueue
// time, original-arrival position, no fresh DRR deficit — a retry must not
// improve or worsen the tenant's share. After Close the member fails with
// ErrClosed like any queued request. from is the instant the failed attempt
// ended — the retry span covers the backoff between failure and re-queue,
// and marks the trace anomalous so it survives head sampling.
func (g *Gateway) retryLocked(q *queue, p *pending, from time.Time) {
	g.retries.Add(1)
	if g.closed {
		g.pending--
		g.failClosedLocked(p)
		return
	}
	if p.tr != nil {
		now := time.Now()
		p.tr.Anomaly("retry")
		p.tr.Observe(obs.StageRetry, from, now)
		p.trEnq = now
	}
	p.resumed = true
	q.enqueueLocked(q.tenant(p.tenant, &g.cfg), p)
}

// invokeBatch runs the backend call for one batch with panics recovered: a
// panicking instance fails its batch with ErrBackendPanic (retryable) instead
// of killing the dispatch goroutine and stranding the queue.
func (g *Gateway) invokeBatch(ctx context.Context, action, home, fallbackServedOn string, payload []byte) (raw []byte, servedOn string, err error) {
	servedOn = fallbackServedOn
	defer func() {
		if r := recover(); r != nil {
			g.panics.Add(1)
			raw, err = nil, fmt.Errorf("%w: %v", ErrBackendPanic, r)
		}
	}()
	if g.rt != nil {
		return g.rt.InvokeOn(ctx, action, home, payload)
	}
	raw, err = g.inv.Invoke(ctx, action, payload)
	return raw, servedOn, err
}

// dispatch ships one batch as a single activation and fans the per-request
// results back out. Runs outside the gateway lock. home is the affinity hint
// chosen at flush time ("" when routing is off).
func (g *Gateway) dispatch(q *queue, batch []*pending, home string) {
	defer g.wg.Done()
	start := time.Now()
	traced := false
	reqs := make([]semirt.Request, len(batch))
	for i, p := range batch {
		reqs[i] = p.req
		g.m.QueueWait.Observe(float64(start.Sub(p.enq)) / float64(time.Millisecond))
		if p.tr != nil {
			// The queue span ends where the dispatch begins: the top-level
			// stages tile the request's lifetime with shared boundaries, so
			// their sum reconstructs the end-to-end latency.
			p.tr.Observe(obs.StageQueue, p.trEnq, start)
			if p.tr.Sampled() {
				// Ask the backend to measure its activation stages only for
				// traces that will be retained: unsampled traffic keeps the
				// untraced wire path, byte for byte.
				reqs[i].Trace = true
				traced = true
			}
		}
	}
	if g.rt != nil && home == "" {
		// First dispatch of a fresh queue: elect a home. The cluster scan
		// runs unlocked; the adoption re-checks under g.mu (a concurrent
		// dispatcher may have elected one first). The choice is advisory —
		// the cluster revalidates placement on every acquire.
		stats := g.rt.NodeStats(q.action)
		g.mu.Lock()
		if q.home == "" {
			g.chooseHomeLocked(q, stats)
		}
		home = q.home
		g.mu.Unlock()
	}
	var results []semirt.BatchResult
	var stages []obs.StageDur
	servedOn := home
	var retry []*pending
	var sink *obs.Sink
	ictx := g.ctx
	if traced {
		// Placement-layer spans (cold starts) recorded during the invoke
		// arrive here, to be grafted into every retained member trace.
		sink = &obs.Sink{}
		ictx = obs.NewContext(g.ctx, sink)
	}
	invokeStart := time.Now()
	invokeEnd := invokeStart
	payload, err := semirt.EncodeBatch(reqs)
	if err == nil {
		var raw []byte
		raw, servedOn, err = g.invokeBatch(ictx, q.action, home, servedOn, payload)
		if err == nil {
			results, stages, err = semirt.DecodeBatchResponseStages(raw, len(batch))
		}
		invokeEnd = time.Now()
		if err != nil {
			// A backend fault (not an encode error — that one is
			// deterministic): members with budget left go back to the queue,
			// the rest fall through to the error fan-out below.
			retry, batch = g.splitRetryable(batch, err)
		}
	}
	// Seal the member traces before the sends: form and dispatch bracket the
	// activation, the wire-reported (cold_start, key_fetch, ecall) and
	// placement-recorded children stitch into the dispatch window, and fanout
	// closes the partition. A finished trace is recycled by the tracer, so it
	// must be sealed while the dispatcher still owns the envelope.
	fanStart := time.Now()
	for _, p := range batch {
		if p.tr == nil {
			continue
		}
		p.tr.Observe(obs.StageForm, start, invokeStart)
		p.tr.Observe(obs.StageDispatch, invokeStart, invokeEnd)
		if p.tr.Sampled() {
			for _, sd := range stages {
				p.tr.Attach(sd.Stage, invokeEnd, sd.Dur)
			}
			sink.Each(func(st obs.Stage, s, e time.Time) { p.tr.Observe(st, s, e) })
		}
		if !p.deadline.IsZero() && fanStart.After(p.deadline) {
			p.tr.Anomaly("slo")
		}
		p.tr.Observe(obs.StageFanout, invokeEnd, fanStart)
		g.finishTrace(p)
	}
	for _, p := range retry {
		// A retried member's trace stays open across attempts; record this
		// attempt's spans now (retryLocked adds the retry span and anomaly).
		if p.tr != nil {
			p.tr.Observe(obs.StageForm, start, invokeStart)
			p.tr.Observe(obs.StageDispatch, invokeStart, invokeEnd)
		}
	}
	// Sends on the buffered done channels never block, so the fan-out runs
	// under g.mu, where answerLocked accounts each outcome before its send.
	svc := time.Since(start)
	g.mu.Lock()
	for i, p := range batch {
		r := result{err: g.failFinal(p, err)}
		if err == nil {
			r = result{resp: results[i].Response, err: results[i].Err}
		}
		g.answerLocked(p, r, fanStart)
	}
	if len(retry) > 0 {
		// Pace the re-dispatch while still holding the dispatch slot, so a
		// flapping backend sees backoff, not a tight retry loop.
		g.mu.Unlock()
		g.retryBackoff(retry[0].retries)
		g.mu.Lock()
	}
	q.inFlight--
	for _, p := range retry {
		// Fairness-neutral re-queue (original enqueue time, no fresh
		// deficit); the tail's flush re-dispatches — by then the breaker has
		// usually opened on the failed node, so the retry fails over.
		g.retryLocked(q, p, invokeEnd)
	}
	// Exponentially smoothed batch service time: the deadline shedder's
	// estimate of how long a request dispatched now will take to answer.
	if q.svcEWMA == 0 {
		q.svcEWMA = svc
	} else {
		q.svcEWMA += (svc - q.svcEWMA) / 4
	}
	needRehome := false
	if g.rt != nil && home != "" {
		needRehome = g.noteServedLocked(q, home, servedOn)
	}
	// The freed slot takes whatever is queued, up to MaxBatch: requests that
	// gathered behind this batch ship now instead of waiting out MaxWait.
	g.flushLocked(q, true)
	g.armTimerLocked(q)
	g.reapLocked(q)
	g.mu.Unlock()
	if g.cfg.Autoscaler != nil && len(batch) > 0 {
		// Outside g.mu: the controller takes its own lock, and its feed must
		// never extend the gateway's critical section.
		g.cfg.Autoscaler.NoteBatch(q.action, q.model, len(batch), svc, servedOn)
	}
	if needRehome {
		// The cluster scan behind re-homing runs outside g.mu (it takes
		// every node lock); the application re-checks that the queue still
		// sits on the saturated home.
		stats := g.rt.NodeStats(q.action)
		g.mu.Lock()
		if q.home == home {
			g.rehomeLocked(q, stats)
		}
		g.mu.Unlock()
	}
}

// noteServedLocked updates the queue's affinity state after a dispatch: a
// batch served away from home means the home was saturated; RehomeAfter of
// those in a row report that a re-home is due (performed by the caller
// outside the lock).
func (g *Gateway) noteServedLocked(q *queue, home, servedOn string) bool {
	if q.home != home {
		return false // re-homed while this batch was in flight
	}
	if servedOn == home {
		q.offHome = 0
		return false
	}
	q.offHome++
	return q.offHome >= g.cfg.RehomeAfter
}

// maxStickyHomes bounds the remembered-home map so caller-supplied model ids
// cannot grow gateway state without bound.
const maxStickyHomes = 8192

// chooseHomeLocked elects a home for a queue that has none, from a node
// snapshot fetched OUTSIDE g.mu (the scan takes every node lock). The choice
// spreads hot models across the cluster: nodes with fewer models already
// homed on them win, then warm ready capacity for the action, then free
// memory — so a fresh model claims an un-homed node with room, and
// consecutive batches keep landing on the warm state they build.
func (g *Gateway) chooseHomeLocked(q *queue, stats []serverless.NodeStat) {
	if len(stats) == 0 {
		return
	}
	best := stats[0]
	for _, st := range stats[1:] {
		if g.homeLess(q.action, st, best) {
			best = st
		}
	}
	g.adoptHomeLocked(q, best.Node)
}

// homeLess reports whether candidate a is a strictly better home than b.
func (g *Gateway) homeLess(action string, a, b serverless.NodeStat) bool {
	ha, hb := g.homes[homeKey(action, a.Node)], g.homes[homeKey(action, b.Node)]
	if ha != hb {
		return ha < hb
	}
	if a.ReadySlots != b.ReadySlots {
		return a.ReadySlots > b.ReadySlots
	}
	fa, fb := a.Capacity-a.Reserved, b.Capacity-b.Reserved
	return fa > fb
}

// rehomeLocked picks a new home by power of two choices: two random
// candidates (the saturated current home excluded), keep the better one.
// Randomization stops every starved queue from stampeding onto the one
// globally best node in the same instant. stats is fetched outside g.mu by
// the caller.
func (g *Gateway) rehomeLocked(q *queue, stats []serverless.NodeStat) {
	cands := stats[:0:0]
	for _, st := range stats {
		if st.Node != q.home {
			cands = append(cands, st)
		}
	}
	if len(cands) == 0 {
		q.offHome = 0
		return
	}
	pick := cands[rand.Intn(len(cands))]
	if len(cands) > 1 {
		other := cands[rand.Intn(len(cands)-1)]
		if other.Node == pick.Node {
			other = cands[len(cands)-1]
		}
		if g.homeLess(q.action, other, pick) {
			pick = other
		}
	}
	g.releaseHomeLocked(q.action, q.home)
	q.home = ""
	g.adoptHomeLocked(q, pick.Node)
	g.rehomes.Add(1)
}

// adoptHomeLocked homes q on node, counting it and remembering it across
// queue reaping. Past maxStickyHomes an arbitrary remembered home is dropped
// (its count with it) — the map stays bounded and the victim simply
// re-chooses on its next traffic.
func (g *Gateway) adoptHomeLocked(q *queue, node string) {
	q.home = node
	q.offHome = 0
	if node == "" {
		return
	}
	g.homes[homeKey(q.action, node)]++
	if _, existed := g.stickyHomes[q.key]; !existed && len(g.stickyHomes) >= maxStickyHomes {
		g.evictStickyHomeLocked()
	}
	g.stickyHomes[q.key] = node
}

// evictStickyHomeLocked drops one remembered home to keep the map bounded,
// preferring an entry whose queue is not live. If every entry belongs to a
// live queue (pathological: maxStickyHomes concurrent hot models), the victim
// queue's own home is cleared with the count, so the spread counts can never
// be double-released when that queue later re-homes or reaps.
func (g *Gateway) evictStickyHomeLocked() {
	victim := ""
	for k := range g.stickyHomes {
		if victim == "" {
			victim = k
		}
		if g.queues[k] == nil {
			victim = k
			break
		}
	}
	if victim == "" {
		return
	}
	action, _, _ := splitQueueKey(victim)
	g.releaseHomeLocked(action, g.stickyHomes[victim])
	delete(g.stickyHomes, victim)
	if lq := g.queues[victim]; lq != nil {
		lq.home = ""
		lq.offHome = 0
	}
}

func (g *Gateway) releaseHomeLocked(action, node string) {
	if node == "" {
		return
	}
	k := homeKey(action, node)
	g.homes[k]--
	if g.homes[k] <= 0 {
		delete(g.homes, k)
	}
}

func homeKey(action, node string) string { return action + "\x1f" + node }

// reapLocked deletes a fully drained queue so caller-supplied model ids
// cannot grow g.queues without bound. The queue's prewarm demand leaves the
// action aggregate with it. Queues with an armed timer are left for the
// timer to reap on its next fire.
func (g *Gateway) reapLocked(q *queue) {
	if q.size > 0 || q.inFlight > 0 || q.timerArmed {
		return
	}
	if g.queues[q.key] != q {
		return // already reaped (an orphaned timer's queue)
	}
	if aw := g.warm[q.action]; aw != nil {
		aw.want -= q.prewarmWant
		// Last queue of the action gone: drop the warm entry too, so
		// caller-supplied action names cannot grow g.warm without bound.
		// (An in-flight Prewarm goroutine keeps its own pointer; clearing
		// the orphan's flag is harmless.)
		if aw.want <= 0 && !aw.prewarming {
			delete(g.warm, q.action)
		}
	}
	q.prewarmWant = 0
	// The queue's home deliberately survives in stickyHomes (and keeps its
	// homes count): the warm enclaves it routes to are still on that node,
	// and the queue's next incarnation must return to them.
	delete(g.queues, q.key)
}

// maybePrewarmLocked grows the action's warm pool when queue depth crosses
// the next PrewarmDepth multiple. Demand is computed per queue but summed
// across the action's model queues before hitting the Prewarmer — the
// queues share one sandbox pool, so per-queue wants must add, not
// overwrite. At most one Prewarm call per action is in flight. The target
// decays as depth falls, so after an idle period (when the cluster's
// keep-warm reaper has shrunk the pool) the next burst triggers prewarming
// again; Prewarm itself is idempotent against capacity that still exists.
// A queue's stale want decays only at its own next enqueue, so the
// aggregate can briefly over-count across queues — bounded by PrewarmMax.
func (g *Gateway) maybePrewarmLocked(q *queue) {
	if g.pw == nil {
		return
	}
	aw := g.warm[q.action]
	if aw == nil {
		aw = &actionWarm{}
		g.warm[q.action] = aw
	}
	depth := q.size + q.inFlight*g.cfg.MaxBatch
	newWant := (depth + g.cfg.PrewarmDepth - 1) / g.cfg.PrewarmDepth
	// Maintain the per-action sum incrementally: the hot path must not scan
	// every queue under the global lock.
	aw.want += newWant - q.prewarmWant
	q.prewarmWant = newWant
	want := aw.want
	if want > g.cfg.PrewarmMax {
		want = g.cfg.PrewarmMax
	}
	if want < aw.target {
		aw.target = want
	}
	if want <= aw.target || aw.prewarming {
		return
	}
	aw.prewarming = true
	aw.target = want
	action := q.action
	// Affinity-aware prewarming: land the warm capacity on the triggering
	// queue's home node (the sticky home survives queue reaping), so the
	// sandboxes this call starts are the ones the affinity router's next
	// batches actually reach, instead of first-fit capacity on a node the
	// router never dispatches to.
	home := q.home
	if home == "" {
		home = g.stickyHomes[q.key]
	}
	// Deliberately not wg-tracked: Prewarm can take SandboxStart per sandbox
	// and has no cancellation path, so tracking it would stall Close for
	// seconds growing capacity that Close immediately discards. A late
	// Prewarm against a closed cluster is a cheap no-op, and the aw update
	// below takes g.mu, which outlives Close.
	go func() {
		var started int
		if pp, ok := g.pw.(PlacedPrewarmer); ok && home != "" {
			started, _ = pp.PrewarmOn(action, home, want)
		} else {
			started, _ = g.pw.Prewarm(action, want)
		}
		if started > 0 {
			g.prewarmed.Add(uint64(started))
		}
		g.mu.Lock()
		aw.prewarming = false
		// The action's queues may all have been reaped while Prewarm was in
		// flight (reapLocked defers to this flag): finish their cleanup so
		// idle actions don't pin warm entries.
		if g.warm[action] == aw && aw.want <= 0 {
			delete(g.warm, action)
		}
		g.mu.Unlock()
	}()
}

// answerLocked delivers a dispatched request's outcome, accounting it first:
// a Stats() or TenantSnapshot() read after Wait returns must already count
// it, and the send is the last touch of p (its waiter may settle and recycle
// the envelope, pool.go). now closes the request's end-to-end latency.
func (g *Gateway) answerLocked(p *pending, r result, now time.Time) {
	g.pending--
	g.served.Add(1)
	g.tenantAddLocked(p.tenant, func(tc *tenantCounts) { tc.served++ })
	g.m.E2E.Observe(float64(now.Sub(p.enq)) / float64(time.Millisecond))
	p.done <- r
}

// failClosedLocked answers p with ErrClosed. The outcome is accounted before
// the send, which is the last touch of p (a settled waiter may recycle it);
// the caller releases p's pending slot if this gateway holds one.
func (g *Gateway) failClosedLocked(p *pending) {
	g.finishTrace(p)
	g.served.Add(1)
	g.tenantAddLocked(p.tenant, func(tc *tenantCounts) { tc.served++ })
	p.done <- result{err: ErrClosed}
}

// Close rejects queued requests with ErrClosed, cancels in-flight
// activations, and waits for dispatchers to drain. Subsequent Do calls fail
// with ErrClosed.
func (g *Gateway) Close() {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return
	}
	g.closed = true
	for _, q := range g.queues {
		for _, tq := range q.tenants {
			for _, p := range tq.items {
				g.pending--
				g.failClosedLocked(p)
			}
			tq.items = nil
		}
		q.tenants = map[string]*tenantQ{}
		q.ring = nil
		q.size = 0
	}
	g.mu.Unlock()
	g.cancel()
	g.wg.Wait()
}
