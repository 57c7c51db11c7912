package main

import (
	"bytes"
	"context"
	"encoding/json"
	"regexp"
	"strings"
	"testing"
	"time"

	"sesemi/internal/semirt"
)

// smokeSizing takes every workload through the real code path in about a
// second each: one round instead of five, 150 ms phases, token probes.
var smokeSizing = sizing{
	rounds:       1,
	plan:         phasePlan{warm: 40 * time.Millisecond, open: 150 * time.Millisecond, sat: 150 * time.Millisecond},
	probeBudget:  time.Millisecond,
	echoRequests: 512,
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	var spec benchSpec
	if err := readJSON("../BENCHMARK.json", &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// lastLine runs the BENCHMARK.json contract for one workload and parses the
// JSON object on the last line of standard output.
func lastLine(t *testing.T, sp *spec, traced bool) (correct bool, attempted, failed int, metrics map[string]metric) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	b := &bench{seed: 1, seconds: 1.5, sizing: smokeSizing, outDir: t.TempDir(), stdout: &stdout, stderr: &stderr, reruns: map[string]int{}}
	if err := b.runOne(context.Background(), sp, traced); err != nil {
		t.Fatalf("%s trace=%v: %v\n%s", sp.name, traced, err, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var out struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
		t.Fatalf("%s: last line is not JSON: %v", sp.name, err)
	}
	return out.Correct, out.Attempted, out.Failed, out.Metrics
}

// TestContract checks, for every workload and both trace modes, that no op
// fails and that exactly the metrics BENCHMARK.json declares are emitted,
// with the declared units and well-formed names.
func TestContract(t *testing.T) {
	decl := loadSpec(t)
	if len(decl.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(decl.Workloads), len(specs))
	}
	for _, wl := range decl.Workloads {
		sp := specByName(wl.Name)
		if sp == nil {
			t.Fatalf("BENCHMARK.json names unknown workload %q", wl.Name)
		}
		for _, traced := range []bool{false, true} {
			want := map[string]string{}
			if traced {
				for _, m := range decl.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range decl.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			correct, attempted, failed, got := lastLine(t, sp, traced)
			if !correct || failed != 0 || attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", sp.name, traced, correct, attempted, failed)
			}
			for name, unit := range want {
				m, ok := got[name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s declared but not emitted", sp.name, traced, name)
				case m.Unit != unit || unit == "":
					t.Errorf("%s: metric %s has unit %q, declared %q", sp.name, name, m.Unit, unit)
				}
			}
			for name := range got {
				if _, ok := want[name]; !ok {
					t.Errorf("%s trace=%v: metric %s emitted but not declared", sp.name, traced, name)
				}
				if !metricName.MatchString(name) {
					t.Errorf("%s: metric name %q is malformed", sp.name, name)
				}
			}
		}
	}
}

// TestPathInvariants checks that each workload takes the path it is named
// after: hot_* are hot, cold_start is all cold starts with an eviction each
// (runRound asserts that itself), warm_churn fetches keys and loads models.
func TestPathInvariants(t *testing.T) {
	ctx := context.Background()
	for _, sp := range specs {
		in, err := newInputs(sp, 1)
		if err != nil {
			t.Fatal(err)
		}
		tr := newTracer()
		r, err := runRound(ctx, in, tr, smokeSizing.plan)
		if err != nil {
			t.Fatalf("%s: %v", sp.name, err)
		}
		if n := r.open.failed + r.sat.failed; n != 0 {
			t.Errorf("%s: %d failed ops: %v %v", sp.name, n, r.open.err, r.sat.err)
		}
		ops := r.open.ops + r.sat.ops
		kinds := func(k semirt.InvocationKind) int { return r.open.kinds[k] + r.sat.kinds[k] }
		switch sp.name {
		case "hot_small", "hot_compute":
			if hot := kinds(semirt.Hot); float64(hot) < 0.99*float64(ops) {
				t.Errorf("%s: %d of %d ops hot, want at least 99%%", sp.name, hot, ops)
			}
		case "cold_start":
			if cold := kinds(semirt.Cold); cold != ops {
				t.Errorf("cold_start: %d of %d ops cold", cold, ops)
			}
			if gets := int(tr.storageGets.Load()); gets != ops {
				t.Errorf("cold_start: %d model loads for %d ops", gets, ops)
			}
		case "warm_churn":
			if kinds(semirt.Warm) == 0 || r.after.semirt.KeyFetches == r.before.semirt.KeyFetches {
				t.Errorf("warm_churn: no warm invocation or no key fetch: kinds %v", r.sat.kinds)
			}
			if tr.storageGets.Load() == 0 {
				t.Error("warm_churn: no model load")
			}
		}
	}
}

// TestSeedFixesSchedule: the same seed yields a byte-identical arrival
// sequence (user, model, input, due time); another seed does not.
func TestSeedFixesSchedule(t *testing.T) {
	for _, sp := range specs {
		print := func(seed int64) [32]byte {
			in, err := newInputs(sp, seed)
			if err != nil {
				t.Fatal(err)
			}
			rate := sp.openRate
			if rate == 0 {
				rate = 100
			}
			return in.fingerprint(in.schedule("open", 4096, rate))
		}
		if print(1) != print(1) {
			t.Errorf("%s: seed 1 gave two different schedules", sp.name)
		}
		if print(1) == print(2) {
			t.Errorf("%s: seeds 1 and 2 gave the same schedule", sp.name)
		}
	}
}

// TestAchievedRate checks the generator self-check's estimate: one stall, even
// on the last arrival, leaves the rate alone, while a generator that runs at
// nine tenths of its schedule reads nine tenths.
func TestAchievedRate(t *testing.T) {
	const n, rate = 240, 120.0
	due := make([]time.Duration, n)
	stalled, slow := make([]float64, n), make([]float64, n)
	for i := range due {
		due[i] = time.Duration(float64(i) / rate * float64(time.Second))
		slow[i] = due[i].Seconds() * 1e3 / 9 // submitted at due/0.9
	}
	stalled[n-1], stalled[n-2], stalled[n/2] = 80, 72, 40
	if got := achievedRate(due, stalled); got < 0.999*rate {
		t.Errorf("three stalled arrivals: achieved %.2f/s of %.0f/s", got, rate)
	}
	if got := achievedRate(due, slow); got < 0.89*rate || got > 0.91*rate {
		t.Errorf("generator at 90%%: achieved %.2f/s, want %.1f/s", got, 0.9*rate)
	}
}
