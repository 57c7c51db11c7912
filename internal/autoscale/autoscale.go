// Package autoscale is the predictive warm-pool controller: the control
// loop that closes ROADMAP's "drive Prewarm/reaping from arrival-rate
// forecasts" item.
//
// The gateway's historical behaviour is reactive at both ends: prewarming
// triggers from instantaneous queue depth (capacity starts only after
// requests have already queued), and the only scale-down is the cluster's
// fixed keep-warm expiry (idle sandboxes squat enclave memory for the full
// deadline between bursts). This package replaces both with one
// per-(action, model) controller:
//
//   - Forecast: admissions are counted per fixed window; a Holt smoother
//     (EWMA level + trend) over the windowed rates anticipates ramps
//     instead of chasing them (Holt, Forecast).
//   - Size: the forecast becomes a warm-pool target by Little's law —
//     rate·serviceTime/batch slots concurrently busy, divided into
//     sandboxes, plus headroom (TargetSandboxes). Service time and batch
//     size are the gateway's own smoothed dispatch telemetry, fed through
//     NoteBatch.
//   - Up: the target drives serverless.Cluster.PrewarmOn toward the
//     stream's home node (the one its batches are served on), so the
//     capacity lands where the affinity router will dispatch.
//   - Down: per-action warm-hit rate and idle fraction
//     (serverless.Cluster.ActionStats) adapt the action's keep-warm
//     deadline (AdaptKeepWarm → SetKeepWarm): a pool that is both
//     effective and oversized reaps sooner, one that missed grows its
//     deadline back — multiplicative in both directions.
//
// The controller is deterministic under test: Step runs one control
// interval synchronously; Start merely runs Step on the configured clock's
// interval. The same policy functions (Holt, TargetSandboxes,
// AdaptKeepWarm) are reused verbatim by the discrete-event mirror
// (sim.Config.Autoscale), so simulated and live ramp behaviour stay
// comparable.
package autoscale

import (
	"sync"
	"sync/atomic"
	"time"

	"sesemi/internal/serverless"
	"sesemi/internal/vclock"
)

// Pool is the serverless surface the controller drives.
// *serverless.Cluster implements it.
type Pool interface {
	// PrewarmOn ensures up to want sandboxes of the action exist, preferring
	// the hinted node ("" = no preference), and reports how many it started.
	PrewarmOn(action, node string, want int) (int, error)
	// SetKeepWarm overrides the action's keep-warm deadline (<= 0 restores
	// the cluster default).
	SetKeepWarm(action string, d time.Duration) error
	// ActionStats returns the action's warm-pool telemetry.
	ActionStats(action string) (serverless.ActionStats, error)
}

// Config tunes the controller.
type Config struct {
	// Window is the forecast sampling interval: admissions are counted per
	// window and one control step runs per window (default 1s).
	Window time.Duration
	// Alpha and Beta are the Holt smoothing coefficients for level and
	// trend (defaults 0.5 and 0.3).
	Alpha, Beta float64
	// Horizon is how many windows ahead the forecast projects (default 2 —
	// roughly one sandbox start of lead time at the default window).
	Horizon float64
	// Headroom is the warm spares kept above the Little's-law target while
	// any traffic is forecast (default 1).
	Headroom int
	// MaxWarm caps the per-action warm-pool target (default 16).
	MaxWarm int
	// SlotsPerSandbox is the per-sandbox concurrency the capacity model
	// divides by (the deployed action's Concurrency; default 1 —
	// conservative: over-provisions rather than under).
	SlotsPerSandbox int
	// MinKeepWarm / MaxKeepWarm bound the adaptive keep-warm deadline
	// (defaults 5s and 3min — the paper's fixed deadline is the ceiling).
	MinKeepWarm, MaxKeepWarm time.Duration
	// WarmHitTarget is the per-window warm-hit rate at or above which
	// shrinking the deadline is considered safe (default 0.9).
	WarmHitTarget float64
	// IdleTarget is the per-window idle fraction (idle sandbox-seconds over
	// live sandbox-seconds) at or above which the pool counts as oversized
	// (default 0.5).
	IdleTarget float64
	// Clock injects time; nil means the system clock. Start ticks on it, so
	// a vclock.Manual drives the control loop deterministically.
	Clock vclock.Clock
}

func (c *Config) defaults() {
	if c.Window <= 0 {
		c.Window = time.Second
	}
	if c.Horizon <= 0 {
		c.Horizon = 2
	}
	if c.Headroom < 0 {
		c.Headroom = 0
	} else if c.Headroom == 0 {
		c.Headroom = 1
	}
	if c.MaxWarm <= 0 {
		c.MaxWarm = 16
	}
	if c.SlotsPerSandbox < 1 {
		c.SlotsPerSandbox = 1
	}
	if c.MinKeepWarm <= 0 {
		c.MinKeepWarm = 5 * time.Second
	}
	if c.MaxKeepWarm <= 0 {
		c.MaxKeepWarm = 3 * time.Minute
	}
	if c.MinKeepWarm > c.MaxKeepWarm {
		c.MinKeepWarm = c.MaxKeepWarm
	}
	if c.WarmHitTarget <= 0 || c.WarmHitTarget > 1 {
		c.WarmHitTarget = 0.9
	}
	if c.IdleTarget <= 0 || c.IdleTarget > 1 {
		c.IdleTarget = 0.5
	}
	if c.Clock == nil {
		c.Clock = vclock.System
	}
}

// streamTTLWindows is how many admission-free windows a stream's forecaster
// survives before its state is dropped (caller-supplied model ids must not
// grow controller state without bound).
const streamTTLWindows = 60

// stream is one (action, model) arrival stream's forecasting state.
type stream struct {
	action, model string
	count         int // admissions in the current window
	holt          *Holt
	svcSeconds    float64 // smoothed batch service time (gateway telemetry)
	meanBatch     float64 // smoothed dispatched batch size
	home          string  // node the stream's batches are served on
	forecast      float64 // last forecast, scored against the next window
	hasForecast   bool
	idleWindows   int
}

// actionCtl aggregates controller state per action (streams of one action
// share its sandbox pool and keep-warm deadline).
type actionCtl struct {
	keepWarm                     time.Duration // current override (0: none yet)
	lastWarmHits, lastColdStarts uint64
	lastIdleSeconds              float64
	havePrev                     bool
	prewarming                   bool // one PrewarmOn in flight per action
}

// Stats is a controller snapshot.
type Stats struct {
	// Steps counts control intervals run; Streams is the live forecaster
	// count.
	Steps   uint64
	Streams int
	// Prewarmed counts sandboxes started by proactive prewarm.
	Prewarmed uint64
	// ForecastMAE is the mean absolute one-step forecast error (req/s) and
	// MeanRate the mean observed rate, over all scored windows — their
	// ratio is the relative forecast error.
	ForecastMAE, MeanRate float64
}

// Controller is the predictive autoscaler. Feed it admissions (NoteAdmit)
// and dispatch outcomes (NoteBatch) — the gateway does both when wired via
// gateway.Config.Autoscaler — and run Step once per window (Start does, on
// the configured clock).
type Controller struct {
	cfg  Config
	pool Pool

	mu      sync.Mutex
	streams map[string]*stream
	acts    map[string]*actionCtl
	steps   uint64
	absErr  float64 // sum |actual-forecast| over scored windows
	rateSum float64 // sum of actual rates over scored windows
	scored  int

	prewarmed atomic.Uint64

	stopOnce sync.Once
	stop     chan struct{}
	wg       sync.WaitGroup
	started  bool
}

// New creates a controller over the pool.
func New(cfg Config, pool Pool) *Controller {
	cfg.defaults()
	return &Controller{
		cfg:     cfg,
		pool:    pool,
		streams: map[string]*stream{},
		acts:    map[string]*actionCtl{},
		stop:    make(chan struct{}),
	}
}

func streamKey(action, model string) string { return action + "\x1f" + model }

// NoteAdmit reports one admitted request on an (action, model) stream — the
// gateway's admission-event feed.
func (c *Controller) NoteAdmit(action, model string) {
	c.mu.Lock()
	s := c.streams[streamKey(action, model)]
	if s == nil {
		s = &stream{action: action, model: model, holt: NewHolt(c.cfg.Alpha, c.cfg.Beta)}
		c.streams[streamKey(action, model)] = s
	}
	s.count++
	c.mu.Unlock()
}

// NoteBatch reports one dispatched batch's outcome: its size, its
// dispatch→fan-out service time, and the node that served it (the stream's
// home, where proactive prewarm should land; "" when unknown).
func (c *Controller) NoteBatch(action, model string, size int, svc time.Duration, servedOn string) {
	if size < 1 {
		return
	}
	c.mu.Lock()
	s := c.streams[streamKey(action, model)]
	if s == nil {
		s = &stream{action: action, model: model, holt: NewHolt(c.cfg.Alpha, c.cfg.Beta)}
		c.streams[streamKey(action, model)] = s
	}
	if s.svcSeconds == 0 {
		s.svcSeconds = svc.Seconds()
	} else {
		s.svcSeconds += (svc.Seconds() - s.svcSeconds) / 4
	}
	if s.meanBatch == 0 {
		s.meanBatch = float64(size)
	} else {
		s.meanBatch += (float64(size) - s.meanBatch) / 4
	}
	if servedOn != "" {
		s.home = servedOn
	}
	c.mu.Unlock()
}

// prewarmOrder is one Step's scale-up decision for an action, executed
// outside the controller lock (PrewarmOn blocks for up to a sandbox start).
type prewarmOrder struct {
	action, home string
	want         int
	ac           *actionCtl
}

// Step runs one control interval: score and roll every stream's forecast,
// convert to per-action warm-pool targets, adapt keep-warm deadlines from
// the pool's telemetry, and issue prewarms. Start calls it once per Window;
// tests and the bench harness may call it directly.
func (c *Controller) Step() {
	winSec := c.cfg.Window.Seconds()
	c.mu.Lock()
	c.steps++
	// Per-action aggregation: streams of one action share its sandbox pool.
	want := map[string]int{}
	homes := map[string]string{}
	homeTarget := map[string]int{}
	for key, s := range c.streams {
		rate := float64(s.count) / winSec
		if s.hasForecast {
			d := rate - s.forecast
			if d < 0 {
				d = -d
			}
			c.absErr += d
			c.rateSum += rate
			c.scored++
		}
		s.holt.Observe(rate)
		f := s.holt.Forecast(c.cfg.Horizon)
		s.forecast = f
		s.hasForecast = true
		if s.count == 0 {
			s.idleWindows++
		} else {
			s.idleWindows = 0
		}
		s.count = 0
		if s.idleWindows >= streamTTLWindows && f < 0.01 {
			delete(c.streams, key)
			continue
		}
		target := TargetSandboxes(f, s.svcSeconds, s.meanBatch,
			c.cfg.SlotsPerSandbox, c.cfg.Headroom, c.cfg.MaxWarm)
		want[s.action] += target
		if target > homeTarget[s.action] {
			homeTarget[s.action] = target
			homes[s.action] = s.home
		}
	}
	// MaxWarm caps the ACTION's pool: its streams share one sandbox pool, so
	// their summed targets sit under the same cap, not one cap each.
	for action, w := range want {
		if w > c.cfg.MaxWarm {
			want[action] = c.cfg.MaxWarm
		}
	}
	// Keep per-action control state only for actions with live streams.
	live := map[string]bool{}
	for _, s := range c.streams {
		live[s.action] = true
	}
	var resets []string
	for action, ac := range c.acts {
		if !live[action] {
			if !ac.prewarming {
				delete(c.acts, action)
				if ac.keepWarm > 0 {
					resets = append(resets, action)
				}
			}
		}
	}
	c.mu.Unlock()

	for _, action := range resets {
		_ = c.pool.SetKeepWarm(action, 0)
	}
	var orders []prewarmOrder
	for action, w := range want {
		// The cluster scan runs OUTSIDE c.mu: ActionStats takes every node
		// lock, and the gateway's admission feed (NoteAdmit needs c.mu on
		// every accepted request) must never block behind it.
		st, err := c.pool.ActionStats(action)
		if err != nil {
			continue // not deployed (yet): nothing to drive
		}
		var kw time.Duration
		kwChanged := false
		c.mu.Lock()
		ac := c.acts[action]
		if ac == nil {
			ac = &actionCtl{}
			c.acts[action] = ac
		}
		// Scale-down: per-window warm-hit rate and idle fraction adapt the
		// keep-warm deadline. A window with no claims at all counts as fully
		// warm (no miss was observed), so a pool idling between bursts
		// shrinks its deadline instead of squatting the full default.
		if ac.havePrev {
			dWarm := float64(st.WarmHits - ac.lastWarmHits)
			dCold := float64(st.ColdStarts - ac.lastColdStarts)
			warmHit := 1.0
			if dWarm+dCold > 0 {
				warmHit = dWarm / (dWarm + dCold)
			}
			// A pool at or below the forecast target is never oversized: its
			// idleness is the headroom the controller itself provisioned, and
			// shrinking the deadline would reap capacity the next prewarm
			// immediately rebuilds (churn). Only excess beyond the target
			// counts toward the idle signal.
			idleFrac := 0.0
			if st.Live > w {
				idleFrac = (st.IdleSeconds - ac.lastIdleSeconds) / (float64(st.Live) * winSec)
				if idleFrac < 0 {
					idleFrac = 0
				} else if idleFrac > 1 {
					idleFrac = 1
				}
			}
			next := AdaptKeepWarm(ac.keepWarm, c.cfg.MinKeepWarm, c.cfg.MaxKeepWarm,
				warmHit, idleFrac, c.cfg.WarmHitTarget, c.cfg.IdleTarget)
			if next != ac.keepWarm {
				ac.keepWarm = next
				kw, kwChanged = next, true
			}
		}
		ac.lastWarmHits, ac.lastColdStarts = st.WarmHits, st.ColdStarts
		ac.lastIdleSeconds = st.IdleSeconds
		ac.havePrev = true
		// Scale-up: one PrewarmOn per action in flight at a time (it blocks
		// for up to a sandbox start); skipped when the pool already meets
		// the target.
		if w > st.Live && !ac.prewarming {
			ac.prewarming = true
			orders = append(orders, prewarmOrder{action: action, home: homes[action], want: w, ac: ac})
		}
		c.mu.Unlock()
		if kwChanged {
			_ = c.pool.SetKeepWarm(action, kw)
		}
	}
	for _, o := range orders {
		o := o
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			started, _ := c.pool.PrewarmOn(o.action, o.home, o.want)
			if started > 0 {
				c.prewarmed.Add(uint64(started))
			}
			c.mu.Lock()
			o.ac.prewarming = false
			c.mu.Unlock()
		}()
	}
}

// Start runs Step once per Window on the controller's clock until Stop.
// Idempotent; Stop is required to release the loop.
func (c *Controller) Start() {
	c.mu.Lock()
	if c.started {
		c.mu.Unlock()
		return
	}
	c.started = true
	c.mu.Unlock()
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		for {
			select {
			case <-vclock.After(c.cfg.Clock, c.cfg.Window):
				c.Step()
			case <-c.stop:
				return
			}
		}
	}()
}

// Stop halts the control loop and waits for in-flight prewarms to settle.
func (c *Controller) Stop() {
	c.stopOnce.Do(func() { close(c.stop) })
	c.wg.Wait()
}

// Stats returns a snapshot.
func (c *Controller) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Stats{
		Steps:     c.steps,
		Streams:   len(c.streams),
		Prewarmed: c.prewarmed.Load(),
	}
	if c.scored > 0 {
		st.ForecastMAE = c.absErr / float64(c.scored)
		st.MeanRate = c.rateSum / float64(c.scored)
	}
	return st
}
