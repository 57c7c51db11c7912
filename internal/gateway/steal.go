package gateway

// Cross-gateway work stealing: the mechanism behind the frontier's
// saturation handling (internal/frontier). A backlogged gateway shard gives
// up a whole (action, model) queue drain — StealQueue — and an idle shard
// adopts it — AcceptStolen. The transfer is two-phase and never holds both
// gateways' locks at once (pop under the source's mu, enqueue under the
// destination's), so any steal topology is deadlock-free, including
// concurrent steals in both directions.
//
// Fairness neutrality is the contract that makes stealing invisible to
// tenants: a stolen request keeps its ORIGINAL enqueue time (so queue-wait
// and E2E metrics, deadline shedding, and the formation timer all see its
// true age) and re-enters the destination flagged resumed — insertResumed
// places it at its original-arrival position within its priority band, and
// its drain burns no fresh DRR deficit (the tenant paid for the admission on
// the source shard). A steal moves where a request runs, never when it is
// entitled to.
//
// Accounting splits across the pair: the source counted the admission
// (Accepted, tenant accepted), the destination counts the outcome (Served,
// tenant served) — per-shard Stats are each internally consistent, and the
// frontier's cross-shard merge sums to exactly one admission and one outcome
// per request.
//
// One deliberate wrinkle: a Ticket minted on the source still points at the
// source's queue, so Cancel after a steal reports false (the pointer-matching
// removal no longer finds the request) and the request completes on the
// destination. That is the same contract as "Cancel after dispatch" — by the
// time a steal has happened, the request is effectively in flight.

// Stolen is an in-transit queue drain between two gateways: the requests of
// one (action, model) queue popped from a saturated shard and not yet
// accepted by another. Opaque to callers; a Stolen must be handed to exactly
// one AcceptStolen (the requests inside are unanswered until then).
type Stolen struct {
	action, model string
	items         []*pending
}

// Count returns the number of requests in transit.
func (s *Stolen) Count() int {
	if s == nil {
		return 0
	}
	return len(s.items)
}

// Action and Model identify the queue the drain came from.
func (s *Stolen) Action() string { return s.action }
func (s *Stolen) Model() string  { return s.model }

// Backlog returns the total queued (admitted, not yet dispatched) requests
// across every (action, model) queue — the steal loop's imbalance signal.
// Takes g.mu; intended for steal-cadence polling, not the admit path.
func (g *Gateway) Backlog() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	total := 0
	for _, q := range g.queues {
		total += q.size
	}
	return total
}

// StealQueue pops up to max requests from the gateway's most backlogged
// (action, model) queue and returns them as an in-transit drain, nil when
// nothing is queued (or the gateway is closed — a closing shard's requests
// are failed by Close, not exported). Tenants are drained in ring order,
// each to exhaustion; the caller sizes max (typically the whole backlog it
// intends to absorb). The popped requests stop counting against this
// gateway's pending bound immediately — they are the destination's load now.
func (g *Gateway) StealQueue(max int) *Stolen {
	if max <= 0 {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return nil
	}
	var q *queue
	for _, cand := range g.queues {
		if cand.size > 0 && (q == nil || cand.size > q.size) {
			q = cand
		}
	}
	if q == nil {
		return nil
	}
	s := &Stolen{action: q.action, model: q.model}
	for len(s.items) < max && len(q.ring) > 0 {
		tq := q.ring[0]
		for len(tq.items) > 0 && len(s.items) < max {
			s.items = append(s.items, tq.pop())
			q.size--
			g.pending--
		}
		if len(tq.items) > 0 {
			break // budget exhausted mid-tenant
		}
		q.dropFromRing(0)
		delete(q.tenants, tq.name)
	}
	q.recomputeOldestLocked()
	g.reapLocked(q)
	g.stolenOut.Add(uint64(len(s.items)))
	return s
}

// AcceptStolen adopts an in-transit drain: every request re-enters the
// destination's matching (action, model) queue fairness-neutrally (original
// enqueue time, resumed — no fresh DRR deficit) and is dispatched under this
// gateway's own batching, affinity and retry policy. Reports the number of
// requests adopted. On a closed gateway the drain's requests are failed with
// ErrClosed instead — answered exactly once either way, so a steal can never
// strand a request between shards.
//
// Admission bounds (MaxQueue, MaxPending, TenantQuota) are deliberately not
// re-checked: the requests were already admitted once on the source, and
// bouncing them here would risk answer-less limbo. Sizing steals to the
// destination's spare capacity is the steal loop's job.
func (g *Gateway) AcceptStolen(s *Stolen) int {
	if s == nil || len(s.items) == 0 {
		return 0
	}
	items := s.items
	s.items = nil // the drain is spent; a second Accept is a no-op
	n := len(items)
	g.mu.Lock()
	if g.closed {
		for _, p := range items {
			// No pending slot to release: StealQueue released it on the source.
			g.failClosedLocked(p)
		}
		g.mu.Unlock()
		return n
	}
	key := queueKey(s.action, s.model)
	q := g.queues[key]
	if q == nil {
		q = newQueue(s.action, s.model, key)
		g.queues[key] = q
	}
	for _, p := range items {
		p.resumed = true
		q.enqueueLocked(q.tenant(p.tenant, &g.cfg), p)
		g.pending++
		if !p.deadline.IsZero() {
			g.armDeadlineWatchdogLocked(q, p)
		}
	}
	g.stolenIn.Add(uint64(n))
	g.m.QueueDepth.Observe(float64(q.size))
	// The stolen requests carry their source-side age, so the formation timer
	// computed from q.oldest flushes an already-overdue drain immediately —
	// stealing adds no fresh formation wait on top of what was already paid.
	g.flushLocked(q, false)
	g.armTimerLocked(q)
	g.maybePrewarmLocked(q)
	g.reapLocked(q)
	g.mu.Unlock()
	return n
}
