// Package faults is the deterministic fault-injection plane for the serving
// stack. An Injector is wired into serverless.Cluster (Config.Faults) and
// semirt (Deps.Faults) behind a no-op default: a nil *Injector answers every
// check with the zero value, so production paths carry one nil check and no
// locking. Faults are injected by loadgen -chaos and tests through the
// control methods; check methods are what the serving layers consult on their
// hot paths.
//
// The taxonomy (mirrored by sim.Config.Faults):
//
//   - node crash        — CrashNode/RestoreNode: every invoke routed to the
//     node fails with serverless.ErrNodeDown and its sandboxes are torn down,
//     until the node is restored;
//   - slow node         — SlowNode: a latency spike charged on the cluster
//     clock before each invoke on the node (a degraded-but-alive machine,
//     the gray failure a circuit breaker must catch that a crash detector
//     cannot);
//   - sandbox crash     — SetSandboxCrashProb: each ECall independently
//     crashes with probability p, drawn from the seeded stream;
//   - key-service outage — KeyServiceOutage/SetKeyServiceDown: provisioning
//     round trips fail for a window (or until cleared), exercising the
//     runtime's retry + brownout machinery.
//
// Determinism: the sandbox-crash draws come from a rand.Rand seeded at New,
// and window expiry is evaluated against the injected vclock.Clock — under a
// Manual clock an entire chaos schedule replays identically.
package faults

import (
	"math/rand"
	"sync"
	"time"

	"sesemi/internal/vclock"
)

// Injector is a seeded fault plane. The zero value is unusable; build one
// with New. A nil *Injector is the no-op default: every check method on a nil
// receiver returns the zero answer.
type Injector struct {
	mu    sync.Mutex
	rng   *rand.Rand
	clock vclock.Clock

	down  map[string]bool
	slow  map[string]time.Duration
	crash float64 // per-ECall sandbox crash probability

	ksDown       bool      // sticky key-service outage
	ksOutageEnds time.Time // windowed key-service outage

	stats Stats
}

// Stats counts the faults the injector actually delivered — the denominator
// a chaos run's "requests lost" is judged against.
type Stats struct {
	// NodeDownHits counts invokes failed because their node was crashed.
	NodeDownHits uint64
	// SlowHits counts invokes that were charged a latency spike.
	SlowHits uint64
	// SandboxCrashes counts ECalls the probability draw crashed.
	SandboxCrashes uint64
	// KSRejects counts key-service round trips failed by an outage.
	KSRejects uint64
}

// New builds an injector whose probability draws replay deterministically for
// a seed. clock nil means the system clock; tests inject vclock.Manual so
// outage windows expire on virtual time.
func New(seed int64, clock vclock.Clock) *Injector {
	if clock == nil {
		clock = vclock.System
	}
	return &Injector{
		rng:   rand.New(rand.NewSource(seed)),
		clock: clock,
		down:  map[string]bool{},
		slow:  map[string]time.Duration{},
	}
}

// Clock returns the clock fault windows are measured on (nil-safe: the
// system clock). Recovery waits — retry backoff, brownout expiry — must run
// on THIS clock, not a modeled TEE clock that may be muted: a wait can only
// ride out an outage if both advance together.
func (i *Injector) Clock() vclock.Clock {
	if i == nil {
		return vclock.System
	}
	return i.clock
}

// ---------- Check methods (nil-safe, called on serving hot paths) ----------

// NodeDown reports whether the node is currently crashed. It counts a hit,
// so call it once per invoke attempt.
func (i *Injector) NodeDown(name string) bool {
	if i == nil {
		return false
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	if !i.down[name] {
		return false
	}
	i.stats.NodeDownHits++
	return true
}

// NodeCrashed reports whether the node is crashed without counting a hit —
// the placement-side check (skip the node) as opposed to the invoke-side one.
func (i *Injector) NodeCrashed(name string) bool {
	if i == nil {
		return false
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.down[name]
}

// NodeDelay returns the extra latency to charge before an invoke on the node
// (0 for a healthy node).
func (i *Injector) NodeDelay(name string) time.Duration {
	if i == nil {
		return 0
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	d := i.slow[name]
	if d > 0 {
		i.stats.SlowHits++
	}
	return d
}

// SandboxCrash draws from the seeded stream and reports whether this ECall
// crashes.
func (i *Injector) SandboxCrash() bool {
	if i == nil {
		return false
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	if i.crash <= 0 || i.rng.Float64() >= i.crash {
		return false
	}
	i.stats.SandboxCrashes++
	return true
}

// KeyServiceDown reports whether key provisioning is currently failing —
// either a sticky outage (SetKeyServiceDown) or an unexpired window
// (KeyServiceOutage).
func (i *Injector) KeyServiceDown() bool {
	if i == nil {
		return false
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	if i.ksDown || i.clock.Now().Before(i.ksOutageEnds) {
		i.stats.KSRejects++
		return true
	}
	return false
}

// ---------- Control methods (the chaos schedule) ----------

// CrashNode marks the node crashed: invokes routed there fail with
// serverless.ErrNodeDown until RestoreNode.
func (i *Injector) CrashNode(name string) {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.down[name] = true
}

// RestoreNode brings a crashed node back.
func (i *Injector) RestoreNode(name string) {
	i.mu.Lock()
	defer i.mu.Unlock()
	delete(i.down, name)
}

// SlowNode charges extra per-invoke latency on the node; extra <= 0 clears
// the spike.
func (i *Injector) SlowNode(name string, extra time.Duration) {
	i.mu.Lock()
	defer i.mu.Unlock()
	if extra <= 0 {
		delete(i.slow, name)
		return
	}
	i.slow[name] = extra
}

// SetSandboxCrashProb sets the per-ECall crash probability (clamped to
// [0, 1]; 0 disables).
func (i *Injector) SetSandboxCrashProb(p float64) {
	i.mu.Lock()
	defer i.mu.Unlock()
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	i.crash = p
}

// KeyServiceOutage fails key provisioning for a window starting now (on the
// injector's clock). A second call extends or shortens the window.
func (i *Injector) KeyServiceOutage(d time.Duration) {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.ksOutageEnds = i.clock.Now().Add(d)
}

// SetKeyServiceDown toggles a sticky outage (independent of any window).
func (i *Injector) SetKeyServiceDown(down bool) {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.ksDown = down
}

// Stats returns a snapshot of delivered-fault counters. Nil-safe.
func (i *Injector) Stats() Stats {
	if i == nil {
		return Stats{}
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.stats
}
