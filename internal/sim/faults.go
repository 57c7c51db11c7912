package sim

import (
	"time"
)

// Fault mirror: the discrete-event twin of the live fault-injection plane
// (internal/faults) and its recovery machinery (serverless breaker skip,
// gateway retry/failover). The engine is deterministic and the injection
// draws come from a seeded source, so the same (trace, FaultsSpec) replays
// to the identical Result — availability-under-faults curves are exact, not
// sampled. Simplifications vs the live path, by design: a crashed node's
// continuous-session members re-execute from step 0 on retry (the live
// gateway carries StepsDone), and breaker hysteresis collapses to the down
// flag (placement skips a down node outright instead of probing half-open).
type FaultsSpec struct {
	// Enabled turns the fault mirror on; everything below is ignored off.
	Enabled bool
	// Seed pins the injection draws (sandbox-crash coin flips).
	Seed int64
	// CrashNode / CrashAt kill one node at a virtual time: its sandboxes are
	// destroyed, its in-flight activations fail over, and placement skips it
	// (live: faults.Injector.CrashNode + the cluster breaker).
	CrashNode int
	CrashAt   time.Duration
	// RestoreAt brings the crashed node back (0 = never).
	RestoreAt time.Duration
	// SandboxCrashProb kills an activation mid-ECall with this probability
	// per dispatch (live: faults.Injector.SetSandboxCrashProb); the sandbox
	// dies with it.
	SandboxCrashProb float64
	// KSOutageAt / KSOutageUntil refuse key fetches inside the window
	// (live: faults.Injector.KeyServiceOutage).
	KSOutageAt, KSOutageUntil time.Duration
	// Retries is the per-request failover budget (live:
	// gateway.Config.MaxRetries). 0 = recovery off: faulted requests are
	// lost, the availability baseline recovery is judged against.
	Retries int
	// RetryBackoff is the base failover delay, doubling per attempt with the
	// exponent capped like the live gateway's (default 1ms).
	RetryBackoff time.Duration
}

// scheduleFaults arms the spec's node-crash timeline on the engine.
func (s *Simulation) scheduleFaults() {
	f := s.cfg.Faults
	if !f.Enabled {
		return
	}
	if f.CrashAt > 0 && f.CrashNode >= 0 && f.CrashNode < len(s.nodes) {
		n := s.nodes[f.CrashNode]
		s.eng.At(f.CrashAt, func() { s.crashNode(n) })
		if f.RestoreAt > f.CrashAt {
			s.eng.At(f.RestoreAt, func() { s.restoreNode(n) })
		}
	}
}

// crashNode kills a node: every sandbox on it dies, placement skips it, and
// its in-flight activations discover the death at their next phase
// continuation and fail over (advance's dead-sandbox guard).
func (s *Simulation) crashNode(n *node) {
	n.down = true
	for name := range s.boxes {
		for _, sb := range append([]*sandbox(nil), s.boxes[name]...) {
			if sb.node == n {
				s.destroy(sb)
			}
		}
	}
	// Queued entries re-place immediately: affinity streams homed on the
	// dead node walk the re-home ladder, the global path picks live nodes.
	for ep := range s.queues {
		s.dispatch(ep)
	}
}

// restoreNode brings a crashed node back as an empty invoker (its enclave
// state died with it — sandboxes cold-start fresh, like the live restore).
func (s *Simulation) restoreNode(n *node) {
	n.down = false
	for ep := range s.queues {
		s.dispatch(ep)
	}
}

// ksDown reports whether the injected key-service outage covers virtual
// time now.
func (s *Simulation) ksDown(now time.Duration) bool {
	f := s.cfg.Faults
	return f.Enabled && f.KSOutageUntil > f.KSOutageAt &&
		now >= f.KSOutageAt && now < f.KSOutageUntil
}

// crashDraw flips the seeded sandbox-crash coin for one dispatch.
func (s *Simulation) crashDraw() bool {
	f := s.cfg.Faults
	return f.Enabled && f.SandboxCrashProb > 0 && s.frng.Float64() < f.SandboxCrashProb
}

// retryDelay is the failover backoff before attempt (1-based): base doubled
// per prior attempt, exponent capped — the live gateway's retryBackoff shape
// without its jitter (determinism over realism here).
func (s *Simulation) retryDelay(attempt int) time.Duration {
	base := s.cfg.Faults.RetryBackoff
	if base <= 0 {
		base = time.Millisecond
	}
	exp := attempt - 1
	if exp > 6 {
		exp = 6
	}
	return base << uint(exp)
}

// failActivation handles a faulted queue entry (single request or formed
// batch): re-dispatch it within the retry budget — back to the head of its
// endpoint queue with the original arrive intact, the live gateway's
// fairness-neutral requeue — or count every member lost.
func (s *Simulation) failActivation(sb *sandbox, req *request) {
	now := s.eng.Now()
	if sb.state != sbDead {
		// The sandbox survived the fault (key-service outage): its slot
		// frees normally. A dead sandbox's bookkeeping died with it.
		s.releaseBatchSlot(sb, req, now)
	}
	f := s.cfg.Faults
	willRetry := f.Retries > 0 && req.retries < f.Retries
	key := s.streamKey(req)
	if s.cfg.Batch.MaxBatch > 1 && s.cfg.Batch.MaxInFlight > 0 &&
		(!s.cfg.Batch.DRR || !willRetry) {
		// The failed attempt's dispatch slot frees; a retried DRR entry
		// keeps its release slot across the backoff instead (the live
		// gateway holds its dispatch slot through retryBackoff the same
		// way), so the stream cannot over-release while failing over.
		if s.inflight[key]--; s.inflight[key] <= 0 {
			delete(s.inflight, key)
		}
	}
	if willRetry {
		req.retries++
		s.res.Retries++
		s.eng.After(s.retryDelay(req.retries), func() {
			s.queues[req.ep] = append([]*request{req}, s.queues[req.ep]...)
			s.dispatch(req.ep)
		})
		return
	}
	for _, m := range req.batchMembers() {
		s.res.Lost++
		s.rolloutLost(m.ev.ModelID)
		if s.cfg.Route != nil {
			s.cfg.Route.Done(m.ep, m.ev.ModelID)
		}
	}
	if s.cfg.Batch.DRR && s.cfg.Batch.MaxInFlight > 0 {
		// Lost DRR batches return their release slot like dropped ones, or
		// the stream blocks forever (dispatch's drop path, same shape).
		if h := s.holds[key]; h != nil && h.size > 0 {
			s.eng.After(0, func() {
				if h.size > 0 && !s.drrBlocked(key) {
					s.releaseDRR(key, h, s.eng.Now()-h.oldest >= s.cfg.Batch.MaxWait)
					s.armHoldTimer(key, h)
				}
			})
		}
	}
	s.dispatch(req.ep)
}

// failMember handles one continuous-session member stranded by its sandbox
// dying mid-session: re-queue it as its own entry (original arrive intact)
// within the retry budget, or count it lost. The live gateway re-queues
// stranded members individually the same way.
func (s *Simulation) failMember(m *request) {
	f := s.cfg.Faults
	if f.Retries > 0 && m.retries < f.Retries {
		re := &request{ev: m.ev, arrive: m.arrive, ep: m.ep, retries: m.retries + 1}
		s.res.Retries++
		s.eng.After(s.retryDelay(re.retries), func() {
			s.queues[re.ep] = append([]*request{re}, s.queues[re.ep]...)
			s.dispatch(re.ep)
		})
		return
	}
	s.res.Lost++
	s.rolloutLost(m.ev.ModelID)
	if s.cfg.Route != nil {
		s.cfg.Route.Done(m.ep, m.ev.ModelID)
	}
}
