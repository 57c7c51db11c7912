package sim

import (
	"testing"
	"time"

	"sesemi/internal/workload"
)

// steadyTrace is n single-user arrivals evenly spaced by gap.
func steadyTrace(n int, gap time.Duration) workload.Trace {
	tr := make(workload.Trace, 0, n)
	for i := 0; i < n; i++ {
		tr = append(tr, workload.Event{At: time.Duration(i) * gap, ModelID: "mbnet", UserID: "u"})
	}
	return tr
}

// A mid-run node kill with the retry budget on loses nothing: in-flight
// activations fail over to the surviving node and every request completes.
func TestSimNodeCrashRecoveryLosesNothing(t *testing.T) {
	cfg := oneAction(SeSeMI, "tvm", "mbnet", 2)
	cfg.Nodes = 2
	cfg.Faults = FaultsSpec{
		Enabled:   true,
		CrashNode: 0,
		CrashAt:   20 * time.Second,
		RestoreAt: 40 * time.Second,
		Retries:   3,
	}
	tr := steadyTrace(300, 200*time.Millisecond)
	res := runTrace(t, cfg, tr)
	if res.Lost != 0 {
		t.Fatalf("Lost = %d, want 0 with recovery on", res.Lost)
	}
	if len(res.Requests) != len(tr) {
		t.Fatalf("completed %d of %d", len(res.Requests), len(tr))
	}
	if res.Retries == 0 {
		t.Fatal("the kill window produced no failovers — fault never bit")
	}
}

// The same kill with recovery off loses the in-flight requests — the
// availability baseline recovery is judged against.
func TestSimNodeCrashWithoutRecoveryLosesRequests(t *testing.T) {
	cfg := oneAction(SeSeMI, "tvm", "mbnet", 2)
	cfg.Nodes = 2
	cfg.Faults = FaultsSpec{
		Enabled:   true,
		CrashNode: 0,
		CrashAt:   20 * time.Second,
		RestoreAt: 40 * time.Second,
		Retries:   0,
	}
	tr := steadyTrace(300, 200*time.Millisecond)
	res := runTrace(t, cfg, tr)
	if res.Lost == 0 {
		t.Fatal("recovery off must lose the killed node's in-flight requests")
	}
	if len(res.Requests)+res.Lost != len(tr) {
		t.Fatalf("completed %d + lost %d != %d", len(res.Requests), res.Lost, len(tr))
	}
}

// Injected sandbox crashes are ridden out by the retry budget, and the seeded
// draw makes the whole run reproducible: same spec, same trace, same Result.
func TestSimSandboxCrashDeterministic(t *testing.T) {
	run := func() *Result {
		cfg := oneAction(SeSeMI, "tvm", "mbnet", 2)
		cfg.Nodes = 2
		cfg.Faults = FaultsSpec{
			Enabled:          true,
			Seed:             7,
			SandboxCrashProb: 0.2,
			Retries:          4,
		}
		return runTrace(t, cfg, steadyTrace(200, 150*time.Millisecond))
	}
	a, b := run(), run()
	if a.SandboxCrashes == 0 {
		t.Fatal("crash probability 0.2 over 200 dispatches drew no crashes")
	}
	if a.Lost != 0 {
		t.Fatalf("Lost = %d, want 0 inside the retry budget", a.Lost)
	}
	if len(a.Requests) != 200 {
		t.Fatalf("completed %d of 200", len(a.Requests))
	}
	if a.SandboxCrashes != b.SandboxCrashes || a.Retries != b.Retries ||
		a.Lost != b.Lost || a.Cold != b.Cold || a.End != b.End {
		t.Fatalf("same seed diverged: %+v vs %+v",
			[5]int{a.SandboxCrashes, a.Retries, a.Lost, a.Cold, int(a.End)},
			[5]int{b.SandboxCrashes, b.Retries, b.Lost, b.Cold, int(b.End)})
	}
}

// A key-service outage window rejects fetches for fresh principals; retries
// re-dispatch until the window lapses, so nothing is lost — while the
// resident principal (cached keys) is untouched, the brownout's
// finish-resident rule.
func TestSimKeyServiceOutageRetriedAcrossWindow(t *testing.T) {
	cfg := oneAction(SeSeMI, "tvm", "mbnet", 2)
	cfg.Faults = FaultsSpec{
		Enabled:       true,
		KSOutageAt:    10 * time.Second,
		KSOutageUntil: 12 * time.Second,
		Retries:       3,
		RetryBackoff:  500 * time.Millisecond,
	}
	tr := workload.Trace{
		// Warm the resident user before the window.
		{At: 0, ModelID: "mbnet", UserID: "resident"},
		// A fresh principal arrives mid-window: its fetch is refused, the
		// backoff ladder carries it past the window's end.
		{At: 10500 * time.Millisecond, ModelID: "mbnet", UserID: "fresh"},
		// The resident's cached keys never touch the key service.
		{At: 10600 * time.Millisecond, ModelID: "mbnet", UserID: "resident"},
	}
	res := runTrace(t, cfg, tr)
	if res.KSRejects == 0 {
		t.Fatal("the fresh principal's fetch was never refused")
	}
	if res.Lost != 0 || len(res.Requests) != len(tr) {
		t.Fatalf("lost %d, completed %d of %d", res.Lost, len(res.Requests), len(tr))
	}
	if res.Retries == 0 {
		t.Fatal("no failover recorded for the refused fetch")
	}
}
