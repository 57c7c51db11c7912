package sim

import (
	"testing"
	"time"

	"sesemi/internal/workload"
)

// autoscaleWorld is the shared deployment both controllers run on: one
// moderately heavy (DSNet-class) two-slot action, so ramps genuinely outgrow
// the warm pool without saturating the node's cores, and a keep-warm short
// enough that troughs reap it — every ramp then exposes the
// reactive/predictive difference.
func autoscaleWorld(predictive bool) Config {
	cfg := Config{
		System:       SeSeMI,
		HW:           0, // SGX2
		Nodes:        1,
		NodeMemory:   16 << 30,
		KeepWarm:     20 * time.Second,
		SandboxStart: 500 * time.Millisecond,
		Actions: []ActionSpec{{
			Name: "fn", Framework: "tvm", Concurrency: 2, DefaultModel: "dsnet",
		}},
		Batch:          BatchSpec{MaxBatch: 4, MaxWait: 5 * time.Millisecond, MaxInFlight: 16},
		InvokeOverhead: 2 * time.Millisecond,
	}
	if predictive {
		cfg.Autoscale = AutoscaleSpec{
			Enabled:     true,
			Window:      time.Second,
			Horizon:     3, // ~one cold-start chain of lead at 1 s windows
			Headroom:    1,
			MaxWarm:     16,
			MinKeepWarm: 5 * time.Second,
		}
	}
	return cfg
}

// burstyTrace is the ramping workload: a diurnal sinusoid swinging
// 0.5↔8 rps every 80 s — gradual ramps a trend follower can anticipate,
// troughs long enough that the keep-warm reaper shrinks the pool between
// them.
func burstyTrace() workload.Trace {
	return workload.Diurnal(7, 8, 0.5, 80*time.Second, 320*time.Second, "dsnet", "u")
}

// TestPredictiveBeatsReactiveOnBurstyTrace: on a bursty trace the forecast-driven
// controller pays materially fewer cold-path requests and lower tail
// latency than the reactive start-on-pressure baseline, because warm
// (enclave-built) capacity lands before each ramp's queue forms.
func TestPredictiveBeatsReactiveOnBurstyTrace(t *testing.T) {
	tr := burstyTrace()
	reactive := runTrace(t, autoscaleWorld(false), tr)
	predictive := runTrace(t, autoscaleWorld(true), tr)

	if predictive.Prewarmed == 0 {
		t.Fatal("predictive run never prewarmed")
	}
	if reactive.Prewarmed != 0 {
		t.Fatalf("reactive run prewarmed %d sandboxes", reactive.Prewarmed)
	}
	if len(predictive.Requests) != len(tr) || len(reactive.Requests) != len(tr) {
		t.Fatalf("dropped requests: reactive %d predictive %d of %d",
			len(reactive.Requests), len(predictive.Requests), len(tr))
	}
	if predictive.Cold >= reactive.Cold {
		t.Fatalf("cold-path requests: predictive %d, reactive %d — no improvement",
			predictive.Cold, reactive.Cold)
	}
	p99p := predictive.All.Percentile(99)
	p99r := reactive.All.Percentile(99)
	if p99p >= p99r {
		t.Fatalf("ramp p99: predictive %v, reactive %v — no improvement", p99p, p99r)
	}
	t.Logf("bursty: reactive cold=%d p99=%v idle=%.0fs | predictive cold=%d p99=%v idle=%.0fs (prewarmed %d)",
		reactive.Cold, p99r, reactive.IdleSandboxSeconds,
		predictive.Cold, p99p, predictive.IdleSandboxSeconds, predictive.Prewarmed)
}

// TestPredictiveScaleDownShrinksIdleTime: after a burst dies, the adaptive
// keep-warm reaps the pool within ~MinKeepWarm plus a few adaptation
// windows, where the fixed deadline squats the full KeepWarm — fewer idle
// sandbox-seconds despite the predictive run's larger peak pool.
func TestPredictiveScaleDownShrinksIdleTime(t *testing.T) {
	tr := workload.Poisson(3, 8, 30*time.Second, "dsnet", "u")
	// The paper-style fixed deadline (60 s) on both sides: the reactive pool
	// squats it in full after the burst; the adaptive one reaps early.
	rcfg, pcfg := autoscaleWorld(false), autoscaleWorld(true)
	rcfg.KeepWarm, pcfg.KeepWarm = 60*time.Second, 60*time.Second
	reactive := runTrace(t, rcfg, tr)
	predictive := runTrace(t, pcfg, tr)
	if predictive.IdleSandboxSeconds >= reactive.IdleSandboxSeconds {
		t.Fatalf("idle sandbox-seconds: predictive %.1f, reactive %.1f — scale-down had no effect",
			predictive.IdleSandboxSeconds, reactive.IdleSandboxSeconds)
	}
	t.Logf("burst-then-idle: idle sandbox-seconds reactive %.1f, predictive %.1f",
		reactive.IdleSandboxSeconds, predictive.IdleSandboxSeconds)
}

// TestPredictiveSteadyTraceNoRegression: on a steady trace the controller
// must not cost throughput or tail latency — the no-regression half of the
// acceptance criteria, mirrored.
func TestPredictiveSteadyTraceNoRegression(t *testing.T) {
	tr := workload.Poisson(11, 4, 120*time.Second, "dsnet", "u")
	reactive := runTrace(t, autoscaleWorld(false), tr)
	predictive := runTrace(t, autoscaleWorld(true), tr)
	if len(predictive.Requests) != len(tr) {
		t.Fatalf("predictive dropped %d requests", len(tr)-len(predictive.Requests))
	}
	// Completion horizons within 5% of each other = throughput parity on an
	// open-loop trace where both complete everything.
	re, pe := reactive.End.Seconds(), predictive.End.Seconds()
	if pe > re*1.05 {
		t.Fatalf("steady completion horizon: predictive %.1fs vs reactive %.1fs (>5%% slower)", pe, re)
	}
	p99p, p99r := predictive.All.Percentile(99), reactive.All.Percentile(99)
	if p99p > p99r+p99r/2 {
		t.Fatalf("steady p99 regressed: predictive %v vs reactive %v", p99p, p99r)
	}
}

// TestAutoscaleDisabledIsInert: the zero-value spec must leave the
// simulation byte-for-byte reactive (no streams, no prewarms, no overrides).
func TestAutoscaleDisabledIsInert(t *testing.T) {
	tr := workload.Poisson(5, 10, 30*time.Second, "dsnet", "u")
	s, err := New(autoscaleWorld(false))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Prewarmed != 0 || len(s.asStreams) != 0 || len(s.asActs) != 0 {
		t.Fatalf("disabled autoscale left state: prewarmed=%d streams=%d acts=%d",
			res.Prewarmed, len(s.asStreams), len(s.asActs))
	}
}
