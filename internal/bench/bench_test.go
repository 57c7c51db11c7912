package bench

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"sesemi/internal/costmodel"
	"sesemi/internal/sim"
)

func TestRegistryComplete(t *testing.T) {
	// The registry is exactly the paper's evaluation: every table, figure and
	// ablation has an experiment, and nothing else does.
	want := []string{
		"table1", "table2", "table3", "table4",
		"fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14",
		"fig15", "fig16", "fig17", "fig18",
		"ablation-interval", "ablation-keycache",
	}
	for _, id := range want {
		if _, ok := Lookup(id); !ok {
			t.Errorf("experiment %q missing", id)
		}
	}
	if len(All()) != len(want) {
		var got []string
		for _, e := range All() {
			got = append(got, e.ID)
		}
		t.Errorf("registry has %d experiments %v, want exactly the %d paper artefacts", len(got), got, len(want))
	}
}

func TestTable1MatchesPaper(t *testing.T) {
	rows := Table1()
	if len(rows) != 3 {
		t.Fatalf("rows %d", len(rows))
	}
	if rows[0].ModelMB != 17 || rows[1].ModelMB != 170 || rows[2].ModelMB != 44 {
		t.Fatalf("model sizes %v %v %v", rows[0].ModelMB, rows[1].ModelMB, rows[2].ModelMB)
	}
}

func TestFigure8Shares(t *testing.T) {
	rows, err := Figure8()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		sum := r.EnclaveInit + r.KeyFetch + r.ModelLoad + r.RuntimeInit + r.ModelExec
		if sum < 0.99 || sum > 1.01 {
			t.Errorf("%s: shares sum to %.3f", r.Combo, sum)
		}
		if strings.HasPrefix(r.Combo, "tvm") && r.EnclaveInit+r.KeyFetch < 0.6 {
			t.Errorf("%s: init+keyfetch %.2f, paper >0.6", r.Combo, r.EnclaveInit+r.KeyFetch)
		}
	}
}

func TestFigure9Ordering(t *testing.T) {
	rows, err := Figure9()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if !(r.Hot <= r.Warm && r.Warm < r.Cold) {
			t.Errorf("%s: hot %v warm %v cold %v out of order", r.Combo, r.Hot, r.Warm, r.Cold)
		}
		if r.UntrustedReuse > r.Untrusted {
			t.Errorf("%s: untrusted reuse slower than untrusted", r.Combo)
		}
	}
}

func TestFigure10HighestSaving(t *testing.T) {
	rows, err := Figure10()
	if err != nil {
		t.Fatal(err)
	}
	var best float64
	var bestWho string
	for _, r := range rows {
		if r.SavingAt[8] > best {
			best = r.SavingAt[8]
			bestWho = r.Framework + "-" + r.Model
		}
	}
	if bestWho != "tflm-rsnet" {
		t.Errorf("highest saving is %s, paper says TFLM-RSNET", bestWho)
	}
}

func TestTable2Factor(t *testing.T) {
	rows, err := Table2()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		f := float64(r.With) / float64(r.Without)
		if f <= 1 {
			t.Errorf("%s: isolation factor %.2f <= 1", r.Model, f)
		}
		if r.Model == "mbnet" && (f < 2.5 || f > 5) {
			t.Errorf("mbnet isolation factor %.2f, paper ≈4x", f)
		}
	}
}

func TestFigure11Knee(t *testing.T) {
	pts, err := Figure11SGX2("tvm", "rsnet", 32)
	if err != nil {
		t.Fatal(err)
	}
	at12 := pts[11].Latency.Seconds()
	at24 := pts[23].Latency.Seconds()
	if ratio := at24 / at12; ratio < 1.7 {
		t.Errorf("24/12 ratio %.2f: no processor-sharing knee", ratio)
	}
	// SGX1: TVM hits the EPC wall before TFLM.
	tvm, err := Figure11SGX1("tvm", 1, 16)
	if err != nil {
		t.Fatal(err)
	}
	tflm, err := Figure11SGX1("tflm", 1, 16)
	if err != nil {
		t.Fatal(err)
	}
	tvmBlowup := tvm[15].Latency.Seconds() / tvm[0].Latency.Seconds()
	tflmBlowup := tflm[15].Latency.Seconds() / tflm[0].Latency.Seconds()
	if tvmBlowup <= tflmBlowup {
		t.Errorf("TVM EPC blowup %.2f <= TFLM %.2f; paper: TVM reaches the limit first", tvmBlowup, tflmBlowup)
	}
}

// TestFigure12Crossover: SeSeMI sustains the RSNET load where Iso-reuse
// saturates (Figure 12b shows Iso-reuse falling over at a lower rate).
func TestFigure12Crossover(t *testing.T) {
	rates := []float64{1, 3, 5}
	ses, err := Figure12(sim.SeSeMI, costmodel.SGX2, "tvm", "rsnet", rates)
	if err != nil {
		t.Fatal(err)
	}
	iso, err := Figure12(sim.IsoReuse, costmodel.SGX2, "tvm", "rsnet", rates)
	if err != nil {
		t.Fatal(err)
	}
	nat, err := Figure12(sim.Native, costmodel.SGX2, "tvm", "rsnet", rates)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rates {
		if ses[i].P95 > iso[i].P95 {
			t.Errorf("rate %.0f: SeSeMI p95 %v > Iso-reuse %v", rates[i], ses[i].P95, iso[i].P95)
		}
		if iso[i].P95 > nat[i].P95 {
			t.Errorf("rate %.0f: Iso-reuse p95 %v > Native %v", rates[i], iso[i].P95, nat[i].P95)
		}
	}
	// At 5 rps SeSeMI must still be comfortable (sub-second hot path).
	if ses[2].P95 > 3*time.Second {
		t.Errorf("SeSeMI p95 at 5 rps = %v, expected low", ses[2].P95)
	}
}

// TestFigure13Shapes: SeSeMI beats Iso-reuse by a large margin on DSNET
// (paper: 0.64 s vs 3.35 s, an 81% improvement) and Native is worst.
func TestFigure13Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("MMPP simulation in -short mode")
	}
	ses, err := Figure13(sim.SeSeMI, "dsnet", 1)
	if err != nil {
		t.Fatal(err)
	}
	iso, err := Figure13(sim.IsoReuse, "dsnet", 1)
	if err != nil {
		t.Fatal(err)
	}
	nat, err := Figure13(sim.Native, "dsnet", 1)
	if err != nil {
		t.Fatal(err)
	}
	if !(ses.Mean < iso.Mean && iso.Mean < nat.Mean) {
		t.Fatalf("ordering: SeSeMI %v, Iso-reuse %v, Native %v", ses.Mean, iso.Mean, nat.Mean)
	}
	improvement := 1 - ses.Mean.Seconds()/iso.Mean.Seconds()
	if improvement < 0.4 {
		t.Errorf("SeSeMI improvement over Iso-reuse %.0f%%, paper 81%%", 100*improvement)
	}
	if ses.Hot == 0 {
		t.Error("SeSeMI served no hot invocations under MMPP")
	}
}

// TestFigure14CostReduction: 4 threads per enclave cut GB-s cost by roughly
// half (paper: 59% DSNET, 48% RSNET).
func TestFigure14CostReduction(t *testing.T) {
	if testing.Short() {
		t.Skip("MMPP simulation in -short mode")
	}
	for modelID, paper := range map[string]float64{"dsnet": 0.59, "rsnet": 0.48} {
		rows, err := Figure14(modelID)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 2 {
			t.Fatalf("rows %d", len(rows))
		}
		saving := 1 - rows[1].GBSeconds/rows[0].GBSeconds
		if saving < paper-0.3 || saving > paper+0.3 {
			t.Errorf("%s: cost reduction %.0f%%, paper %.0f%%", modelID, 100*saving, 100*paper)
		}
	}
}

// TestTable3AllInOneWorst: the All-in-one deployment interferes on the
// Poisson streams (paper: >16% worse than the others).
func TestTable3AllInOneWorst(t *testing.T) {
	aio, err := RunPacker(AllInOne)
	if err != nil {
		t.Fatal(err)
	}
	oto, err := RunPacker(OneToOne)
	if err != nil {
		t.Fatal(err)
	}
	pk, err := RunPacker(Packer)
	if err != nil {
		t.Fatal(err)
	}
	if aio.PoissonAvg <= oto.PoissonAvg || aio.PoissonAvg <= pk.PoissonAvg {
		t.Errorf("All-in-one %v not worst (One-to-one %v, FnPacker %v)",
			aio.PoissonAvg, oto.PoissonAvg, pk.PoissonAvg)
	}
	// FnPacker within ~20% of One-to-one (paper: 1466ms vs 1456ms).
	diff := pk.PoissonAvg.Seconds()/oto.PoissonAvg.Seconds() - 1
	if diff > 0.2 {
		t.Errorf("FnPacker %.0f%% worse than One-to-one", 100*diff)
	}
}

// TestTable4SessionColdStarts: in session 1, One-to-one pays cold starts
// for m2-m4 while FnPacker reuses its pool for m3, m4.
func TestTable4SessionColdStarts(t *testing.T) {
	oto, err := RunPacker(OneToOne)
	if err != nil {
		t.Fatal(err)
	}
	pk, err := RunPacker(Packer)
	if err != nil {
		t.Fatal(err)
	}
	s1 := "session-1"
	// One-to-one: m2 is dramatically slower than m0 (cold vs warm pool).
	if oto.SessionLatency[s1]["m2"] < 3*oto.SessionLatency[s1]["m0"] {
		t.Errorf("One-to-one session1 m2 %v vs m0 %v: expected cold-start blowup",
			oto.SessionLatency[s1]["m2"], oto.SessionLatency[s1]["m0"])
	}
	// FnPacker: m3 and m4 avoid the cold start (paper: 2008/2045 ms vs
	// One-to-one 9752/9923 ms).
	for _, m := range []string{"m3", "m4"} {
		if pk.SessionLatency[s1][m] >= oto.SessionLatency[s1][m] {
			t.Errorf("FnPacker session1 %s %v >= One-to-one %v",
				m, pk.SessionLatency[s1][m], oto.SessionLatency[s1][m])
		}
	}
	// Session 2 reuses session-1 sandboxes in both deployments.
	s2 := "session-2"
	for _, m := range []string{"m2", "m3", "m4"} {
		if oto.SessionLatency[s2][m] > oto.SessionLatency[s1][m] {
			t.Errorf("One-to-one session2 %s slower than session1", m)
		}
	}
}

func TestAblationExclusiveInterval(t *testing.T) {
	res, err := AblationExclusiveInterval([]time.Duration{time.Second, 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	for iv, lat := range res {
		if lat <= 0 {
			t.Errorf("interval %v: empty latency", iv)
		}
	}
}

// TestAllExperimentsRun executes every registered harness end to end.
func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("full harness in -short mode")
	}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var buf bytes.Buffer
			if err := e.Run(&buf); err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if buf.Len() == 0 {
				t.Fatalf("%s produced no output", e.ID)
			}
		})
	}
}
