package costmodel

import (
	"math"
	"testing"
	"time"
)

func sec(d time.Duration) float64 { return d.Seconds() }

func TestStagesUnknownCombo(t *testing.T) {
	if _, err := Stages(SGX2, "onnx", "mbnet"); err == nil {
		t.Fatal("accepted unknown framework")
	}
	if _, err := Stages(Native, "tvm", "vgg"); err == nil {
		t.Fatal("accepted unknown model")
	}
}

// TestFigure9HotWarmColdShapes verifies the paper's headline speedups: for
// TVM-MBNET a hot invocation is ≈21x faster than cold and warm ≈11x
// (§VI-A).
func TestFigure9HotWarmColdShapes(t *testing.T) {
	s, err := Stages(SGX2, "tvm", "mbnet")
	if err != nil {
		t.Fatal(err)
	}
	hotSpeedup := sec(s.ColdPath()) / sec(s.HotPath())
	warmSpeedup := sec(s.ColdPath()) / sec(s.WarmPath())
	if hotSpeedup < 15 || hotSpeedup > 30 {
		t.Errorf("TVM-MBNET cold/hot = %.1fx, paper ≈ 21x", hotSpeedup)
	}
	if warmSpeedup < 7 || warmSpeedup > 16 {
		t.Errorf("TVM-MBNET cold/warm = %.1fx, paper ≈ 11x", warmSpeedup)
	}
}

// TestFigure9AbsoluteValues checks modeled totals against Figure 9's printed
// values (±20 %).
func TestFigure9AbsoluteValues(t *testing.T) {
	cases := []struct {
		fw, m           string
		hot, warm, cold float64 // seconds from Figure 9
	}{
		{"tflm", "mbnet", 0.75, 0.81, 1.97},
		{"tvm", "mbnet", 0.07, 0.14, 1.48},
		{"tflm", "rsnet", 14.28, 14.50, 16.29},
		{"tvm", "rsnet", 0.94, 1.24, 3.39},
		{"tflm", "dsnet", 3.35, 3.45, 4.85},
		{"tvm", "dsnet", 0.38, 0.49, 2.03},
	}
	// ±30 %: Figures 9 and 17 are independent measurements in the paper and
	// disagree by up to ~25 % themselves (e.g. TVM-MBNET warm: 0.14 s in
	// Fig 9 vs 0.105 s summing Fig 17 stages). The model is built on Fig 17.
	near := func(got, want float64) bool {
		return got > want*0.7 && got < want*1.3
	}
	for _, c := range cases {
		s, err := Stages(SGX2, c.fw, c.m)
		if err != nil {
			t.Fatal(err)
		}
		if !near(sec(s.HotPath()), c.hot) {
			t.Errorf("%s-%s hot %.3fs, paper %.2fs", c.fw, c.m, sec(s.HotPath()), c.hot)
		}
		if !near(sec(s.WarmPath()), c.warm) {
			t.Errorf("%s-%s warm %.3fs, paper %.2fs", c.fw, c.m, sec(s.WarmPath()), c.warm)
		}
		if !near(sec(s.ColdPath()), c.cold) {
			t.Errorf("%s-%s cold %.3fs, paper %.2fs", c.fw, c.m, sec(s.ColdPath()), c.cold)
		}
	}
}

// TestFigure8EnclaveAndKeyFetchDominate: enclave init + key fetch exceed
// 60 % of cold latency for TVM models.
func TestFigure8EnclaveAndKeyFetchDominate(t *testing.T) {
	for _, m := range []string{"mbnet", "rsnet", "dsnet"} {
		s, err := Stages(SGX2, "tvm", m)
		if err != nil {
			t.Fatal(err)
		}
		frac := sec(s.EnclaveInit+s.KeyFetchCold) / sec(s.ColdPath())
		if frac < 0.6 {
			t.Errorf("tvm-%s init+keyfetch = %.0f%% of cold, paper >60%%", m, 100*frac)
		}
	}
}

// TestTable2IsolationOverhead checks the strong-isolation hot path against
// Table II (±25 %).
func TestTable2IsolationOverhead(t *testing.T) {
	cases := []struct {
		m             string
		without, with float64 // ms
	}{
		{"mbnet", 65.79, 268.36},
		{"rsnet", 982.96, 1265.00},
		{"dsnet", 388.81, 587.79},
	}
	for _, c := range cases {
		s, err := Stages(SGX2, "tvm", c.m)
		if err != nil {
			t.Fatal(err)
		}
		gotW := s.HotPath().Seconds() * 1000
		gotI := s.IsolatedHotPath().Seconds() * 1000
		if gotW < c.without*0.75 || gotW > c.without*1.25 {
			t.Errorf("tvm-%s hot %.0fms, Table II %.0fms", c.m, gotW, c.without)
		}
		if gotI < c.with*0.75 || gotI > c.with*1.25 {
			t.Errorf("tvm-%s isolated hot %.0fms, Table II %.0fms", c.m, gotI, c.with)
		}
	}
}

// TestFigure15EnclaveInitScaling reproduces Appendix C: 16 concurrent
// 256 MiB launches average ≈4.06 s on SGX2, and latency grows with both
// size and concurrency.
func TestFigure15EnclaveInitScaling(t *testing.T) {
	got := EnclaveInit(SGX2, 256<<20, 16).Seconds()
	if got < 3 || got < 4.06*0.7 || got > 4.06*1.4 {
		t.Errorf("SGX2 256MiB x16 = %.2fs, paper 4.06s", got)
	}
	if EnclaveInit(SGX2, 256<<20, 1) >= EnclaveInit(SGX2, 256<<20, 8) {
		t.Error("enclave init not increasing in concurrency")
	}
	if EnclaveInit(SGX2, 128<<20, 4) >= EnclaveInit(SGX2, 256<<20, 4) {
		t.Error("enclave init not increasing in size")
	}
	if EnclaveInit(SGX1, 256<<20, 16) <= EnclaveInit(SGX2, 256<<20, 16) {
		t.Error("SGX1 should be slower than SGX2")
	}
	if EnclaveInit(Native, 1<<30, 8) != 0 {
		t.Error("Native has no enclave init cost")
	}
}

// TestFigure16AttestationScaling: ECDSA <0.1 s alone and ≈1 s at 16; EPID
// slower than ECDSA everywhere.
func TestFigure16AttestationScaling(t *testing.T) {
	if a := ECDSAAttestation(1); a > 100*time.Millisecond {
		t.Errorf("ECDSA x1 = %v, paper <0.1s", a)
	}
	if a := ECDSAAttestation(16).Seconds(); a < 0.7 || a > 1.4 {
		t.Errorf("ECDSA x16 = %.2fs, paper ≈1s", a)
	}
	if a := EPIDAttestation(1).Seconds(); a < 0.3 || a > 0.8 {
		t.Errorf("EPID x1 = %.2fs, paper ≈0.5s", a)
	}
	if a := EPIDAttestation(16).Seconds(); a < 3 || a > 5 {
		t.Errorf("EPID x16 = %.2fs, paper ≈4s", a)
	}
	for n := 1; n <= 16; n *= 2 {
		if EPIDAttestation(n) <= ECDSAAttestation(n) {
			t.Errorf("EPID faster than ECDSA at n=%d", n)
		}
	}
	if Attestation(Native, 4) != 0 {
		t.Error("Native attestation cost must be 0")
	}
}

func TestCloudDownload(t *testing.T) {
	for m, want := range map[string]time.Duration{
		"mbnet": 180 * time.Millisecond,
		"dsnet": 360 * time.Millisecond,
		"rsnet": 2100 * time.Millisecond,
	} {
		got, err := CloudDownload(m)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("CloudDownload(%s) = %v, want %v", m, got, want)
		}
	}
	if _, err := CloudDownload("bert"); err == nil {
		t.Error("accepted unknown model")
	}
}

// TestFigure10MemorySaving: saving grows with concurrency, TFLM saves more
// than TVM, and TFLM-RSNET at 8 threads is the highest saving (paper:
// 86.2 %; the model reproduces the ordering and >70 % magnitude).
func TestFigure10MemorySaving(t *testing.T) {
	for _, m := range []string{"mbnet", "rsnet", "dsnet"} {
		prev := 0.0
		for _, n := range []int{2, 4, 8} {
			sv, err := MemorySavingRatio("tflm", m, n)
			if err != nil {
				t.Fatal(err)
			}
			if sv <= prev {
				t.Errorf("tflm-%s saving not increasing at n=%d: %.3f <= %.3f", m, n, sv, prev)
			}
			prev = sv
			tv, err := MemorySavingRatio("tvm", m, n)
			if err != nil {
				t.Fatal(err)
			}
			if tv >= sv {
				t.Errorf("%s: TVM saving %.3f >= TFLM saving %.3f at n=%d", m, tv, sv, n)
			}
		}
	}
	best, err := MemorySavingRatio("tflm", "rsnet", 8)
	if err != nil {
		t.Fatal(err)
	}
	if best < 0.7 {
		t.Errorf("TFLM-RSNET@8 saving %.3f, paper 0.862", best)
	}
}

func TestContainerMemoryBudget(t *testing.T) {
	cases := []struct{ req, want int64 }{
		{0, 128 << 20},
		{1, 128 << 20},
		{128 << 20, 128 << 20},
		{(128 << 20) + 1, 256 << 20},
		{300 << 20, 384 << 20},
	}
	for _, c := range cases {
		if got := ContainerMemoryBudget(c.req); got != c.want {
			t.Errorf("budget(%d) = %d, want %d", c.req, got, c.want)
		}
	}
}

// TestFigure11Knees: latency is near-flat below the core count and grows
// sharply past it (processor sharing).
func TestFigure11Knees(t *testing.T) {
	base := time.Second
	within := ExecUnderLoad(base, 12, Cores)
	beyond := ExecUnderLoad(base, 24, Cores)
	if got := beyond.Seconds() / within.Seconds(); got < 1.8 || got > 2.2 {
		t.Errorf("24 vs 12 concurrent = %.2fx, want ≈2x (processor sharing)", got)
	}
}

// TestFigure11bPagingModel: paging kicks in only when resident enclaves
// exceed the EPC, scales with concurrent pagers, and penalizes TVM (large
// private buffers) more than TFLM (shared model + small arenas), matching
// §VI-B's account of Figure 11b.
func TestFigure11bPagingModel(t *testing.T) {
	epc := SGX1.EPCBytes()
	if d := PagingDelay(30<<20, 4, epc/2, epc); d != 0 {
		t.Errorf("paging charged while EPC fits: %v", d)
	}
	one := PagingDelay(30<<20, 1, 2*epc, epc)
	four := PagingDelay(30<<20, 4, 2*epc, epc)
	if one <= 0 || four != 4*one {
		t.Errorf("paging does not share bandwidth: %v vs %v", one, four)
	}
	tvmWS, err := ExecWorkingSet("tvm", "mbnet", 1)
	if err != nil {
		t.Fatal(err)
	}
	tflm1, err := ExecWorkingSet("tflm", "mbnet", 1)
	if err != nil {
		t.Fatal(err)
	}
	tflm4, err := ExecWorkingSet("tflm", "mbnet", 4)
	if err != nil {
		t.Fatal(err)
	}
	if tvmWS <= tflm1 {
		t.Errorf("TVM working set %d <= TFLM %d", tvmWS, tflm1)
	}
	if tflm4 >= tflm1 {
		t.Errorf("TFLM-4 working set %d >= TFLM-1 %d (model pages must be shared)", tflm4, tflm1)
	}
	tvm4, err := ExecWorkingSet("tvm", "mbnet", 4)
	if err != nil {
		t.Fatal(err)
	}
	if tvm4 != tvmWS {
		t.Errorf("TVM-4 working set %d != TVM-1 %d (private buffers)", tvm4, tvmWS)
	}
	if _, err := ExecWorkingSet("onnx", "mbnet", 1); err == nil {
		t.Error("unknown framework accepted")
	}
}

func TestEnclaveConfigBytes(t *testing.T) {
	got, err := EnclaveConfigBytes("tvm", "rsnet", 1)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0x23000000 {
		t.Errorf("tvm/rsnet config %#x, want 0x23000000 (Appendix D)", got)
	}
	four, err := EnclaveConfigBytes("tvm", "rsnet", 4)
	if err != nil {
		t.Fatal(err)
	}
	if four <= got {
		t.Error("config does not grow with concurrency")
	}
	if _, err := EnclaveConfigBytes("tvm", "nope", 1); err == nil {
		t.Error("accepted unknown model")
	}
}

func TestCombosOrder(t *testing.T) {
	combos := Combos()
	if len(combos) != 6 {
		t.Fatalf("Combos() = %d entries, want 6", len(combos))
	}
	if combos[0].Framework != "tflm" || combos[0].Model != "mbnet" {
		t.Fatalf("first combo %+v, want tflm/mbnet", combos[0])
	}
}

func TestHWStringsAndEPC(t *testing.T) {
	if SGX1.EPCBytes() != 128<<20 {
		t.Error("SGX1 EPC must be 128 MiB")
	}
	if SGX2.EPCBytes() != 64<<30 {
		t.Error("SGX2 EPC must be 64 GiB")
	}
	if SGX1.String() != "sgx1" || SGX2.String() != "sgx2" || Native.String() != "native" {
		t.Error("HW String() mismatch")
	}
}

func TestBatchFormationDelay(t *testing.T) {
	// Disabled shapes.
	if d := BatchFormationDelay(100, 1, time.Second); d != 0 {
		t.Fatalf("maxBatch 1: %v", d)
	}
	if d := BatchFormationDelay(100, 8, 0); d != 0 {
		t.Fatalf("maxWait 0: %v", d)
	}
	// No arrivals: the lone request waits out the deadline.
	if d := BatchFormationDelay(0, 8, 50*time.Millisecond); d != 50*time.Millisecond {
		t.Fatalf("idle queue: %v", d)
	}
	// Fast arrivals: fill time (maxBatch-1)/rate = 70 ms bounds the window;
	// the mean sits near half of it (first member waits the whole window).
	if d := BatchFormationDelay(100, 8, time.Second); d < 35*time.Millisecond || d > 45*time.Millisecond {
		t.Fatalf("fill-bound: %v", d)
	}
	// Continuity at the fill/deadline boundary: a tiny rate change must not
	// jump the estimate.
	lo := BatchFormationDelay(6.99, 8, time.Second)
	hi := BatchFormationDelay(7.01, 8, time.Second)
	if diff := (lo - hi).Abs(); diff > 10*time.Millisecond {
		t.Fatalf("boundary discontinuity: %v vs %v", lo, hi)
	}
	// Slow arrivals: deadline-bound. At 1 rps with a 100 ms window the
	// expected batch is 1.1 members; the mean wait stays near the full
	// deadline (100 - (0.1*0.1/2)/1.1 s ≈ 95.5 ms), approaching maxWait as
	// rate → 0 with no discontinuity.
	d := BatchFormationDelay(1, 8, 100*time.Millisecond)
	if d < 90*time.Millisecond || d > 100*time.Millisecond {
		t.Fatalf("deadline-bound: %v", d)
	}
	if d2 := BatchFormationDelay(0.0001, 8, 100*time.Millisecond); d2 < d || d2 > 100*time.Millisecond {
		t.Fatalf("near-idle %v not between %v and maxWait", d2, d)
	}
}

func TestPreemptionOverhead(t *testing.T) {
	// A 20-step member against a budget of 4 preempts 4 times; at 2ms per
	// evict/re-admit cycle it pays 8ms on top of its execution.
	if got := PreemptionOverhead(4, 2*time.Millisecond); got != 8*time.Millisecond {
		t.Fatalf("O_preempt = %v, want 8ms", got)
	}
	// Overhead scales linearly in cycles: halving the budget doubles it.
	if PreemptionOverhead(8, 2*time.Millisecond) != 2*PreemptionOverhead(4, 2*time.Millisecond) {
		t.Fatal("overhead must be linear in preemption count")
	}
	if PreemptionOverhead(0, time.Second) != 0 || PreemptionOverhead(-1, time.Second) != 0 ||
		PreemptionOverhead(3, 0) != 0 {
		t.Fatal("non-positive inputs must return 0")
	}
}

func TestShardImbalance(t *testing.T) {
	// Perfectly balanced ring: every shard carries the mean, I = 1.
	if got := ShardImbalance([]float64{10, 10, 10, 10}); got != 1 {
		t.Fatalf("balanced I = %v, want 1", got)
	}
	// One hot shard at 4x the others' load: max=40, mean=17.5, I ≈ 2.2857.
	if got := ShardImbalance([]float64{40, 10, 10, 10}); math.Abs(got-40/17.5) > 1e-12 {
		t.Fatalf("hot-shard I = %v, want %v", got, 40/17.5)
	}
	// All load on one shard of N: I = N (the worst case sharding can hit).
	if got := ShardImbalance([]float64{100, 0, 0, 0}); got != 4 {
		t.Fatalf("single-hot I = %v, want 4 (= N)", got)
	}
	// Single shard is trivially balanced.
	if got := ShardImbalance([]float64{7}); got != 1 {
		t.Fatalf("one shard I = %v, want 1", got)
	}
	// Negative loads clamp to zero rather than poisoning the mean.
	if got := ShardImbalance([]float64{10, -5, 10}); math.Abs(got-10/(20.0/3)) > 1e-12 {
		t.Fatalf("clamped I = %v, want 1.5", got)
	}
	if ShardImbalance(nil) != 0 || ShardImbalance([]float64{0, 0}) != 0 {
		t.Fatal("no load must report no imbalance")
	}
}
