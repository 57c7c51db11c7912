package bench

import (
	"fmt"
	"io"
	"time"

	"sesemi/internal/costmodel"
	"sesemi/internal/fnpacker"
	"sesemi/internal/metrics"
	"sesemi/internal/sim"
	"sesemi/internal/workload"
)

// The FnPacker evaluation (§VI-D) serves five TVM-RSNET deployments m0..m4.
// m0 and m1 receive Poisson traffic at 2 rps for 8 minutes; two interactive
// sessions (around minute 4 and minute 6) query m0..m4 sequentially.

var packerModels = []string{"m0", "m1", "m2", "m3", "m4"}

func packerAliases() map[string]string {
	a := map[string]string{}
	for _, m := range packerModels {
		a[m] = "rsnet"
	}
	return a
}

// packerTrace is the open-loop part of the workload: two Poisson streams at
// 2 rps plus the first query of each interactive session. The sessions are
// closed-loop ("a set of models are sequentially queried"): each follow-up
// query is injected when the previous response arrives, with a short think
// time.
func packerTrace() workload.Trace {
	poisson := workload.Merge(
		workload.Poisson(5, 2, 8*time.Minute, "m0", "poisson-user-0"),
		workload.Poisson(6, 2, 8*time.Minute, "m1", "poisson-user-1"),
	)
	starts := workload.Trace{
		{At: 4 * time.Minute, ModelID: packerModels[0], UserID: "session-1"},
		{At: 6 * time.Minute, ModelID: packerModels[0], UserID: "session-2"},
	}
	return workload.Merge(poisson, starts)
}

// sessionThink is the gap between a session response and the next query.
const sessionThink = 2 * time.Second

// chainSessions wires the closed-loop session follow-ups into a simulation.
func chainSessions(s *sim.Simulation) {
	next := map[string]int{"session-1": 1, "session-2": 1}
	s.SetOnComplete(func(r sim.RequestResult) {
		i, ok := next[r.User]
		if !ok || i >= len(packerModels) {
			return
		}
		next[r.User] = i + 1
		s.Inject(workload.Event{
			At:      r.Done + sessionThink,
			ModelID: packerModels[i],
			UserID:  r.User,
		})
	})
}

// PackerStrategy names the three §VI-D deployments.
type PackerStrategy string

const (
	// AllInOne deploys one endpoint serving every model.
	AllInOne PackerStrategy = "All-in-one"
	// OneToOne deploys one endpoint per model.
	OneToOne PackerStrategy = "One-to-one"
	// Packer deploys a 5-endpoint Fnpool routed by the FnPacker scheduler.
	Packer PackerStrategy = "FnPacker"
)

// PackerRun aggregates one strategy's run.
type PackerRun struct {
	Strategy PackerStrategy
	// PoissonAvg is Table III: the average latency of the two Poisson
	// streams (m0, m1).
	PoissonAvg time.Duration
	// SessionLatency is Table IV: session user -> model -> latency.
	SessionLatency map[string]map[string]time.Duration
	// Cold counts sandbox-level cold invocations.
	Cold int
}

// RunPacker executes the §VI-D workload under one deployment strategy.
func RunPacker(strategy PackerStrategy) (*PackerRun, error) {
	var actions []sim.ActionSpec
	var route fnpacker.Strategy
	mkSpec := func(name string) sim.ActionSpec {
		return sim.ActionSpec{Name: name, Framework: "tvm", Concurrency: 1, DefaultModel: "rsnet"}
	}
	var endpoints []string
	switch strategy {
	case AllInOne:
		actions = []sim.ActionSpec{mkSpec("fn-all")}
		route = fnpacker.AllInOne{Endpoint: "fn-all"}
	case OneToOne:
		for _, m := range packerModels {
			actions = append(actions, mkSpec("fn-"+m))
		}
		route = fnpacker.OneToOne{EndpointFor: func(m string) string { return "fn-" + m }}
	case Packer:
		for i := range packerModels {
			name := fmt.Sprintf("pool-%d", i)
			actions = append(actions, mkSpec(name))
			endpoints = append(endpoints, name)
		}
	default:
		return nil, fmt.Errorf("bench: unknown strategy %q", strategy)
	}
	cfg := sim.Config{
		System:       sim.SeSeMI,
		HW:           costmodel.SGX2,
		Nodes:        8,
		CoresPerNode: costmodel.Cores,
		Actions:      actions,
		ModelCosts:   packerAliases(),
		Route:        route,
	}
	s, err := sim.New(cfg)
	if err != nil {
		return nil, err
	}
	if strategy == Packer {
		sched, err := fnpacker.NewScheduler(s.EngineClock(), fnpacker.DefaultExclusiveInterval, endpoints...)
		if err != nil {
			return nil, err
		}
		if err := s.SetRoute(sched); err != nil {
			return nil, err
		}
	}
	chainSessions(s)
	res, err := s.Run(packerTrace())
	if err != nil {
		return nil, err
	}
	run := &PackerRun{
		Strategy:       strategy,
		SessionLatency: map[string]map[string]time.Duration{},
		Cold:           res.Cold,
	}
	var poisson metrics.Latency
	for _, r := range res.Requests {
		switch r.User {
		case "poisson-user-0", "poisson-user-1":
			poisson.Add(r.Latency())
		case "session-1", "session-2":
			if run.SessionLatency[r.User] == nil {
				run.SessionLatency[r.User] = map[string]time.Duration{}
			}
			run.SessionLatency[r.User][r.Model] = r.Latency()
		}
	}
	run.PoissonAvg = poisson.Mean()
	return run, nil
}

func runTable3(w io.Writer) error {
	header(w, "Table III: Latency of models with Poisson traffic (m0,m1 @ 2 rps)")
	fmt.Fprintf(w, "%-14s %16s %8s\n", "strategy", "avg latency", "colds")
	for _, st := range []PackerStrategy{AllInOne, OneToOne, Packer} {
		run, err := RunPacker(st)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-14s %14.0fms %8d\n", run.Strategy, float64(run.PoissonAvg.Milliseconds()), run.Cold)
	}
	return nil
}

func runTable4(w io.Writer) error {
	header(w, "Table IV: Latency of serving interactive queries (ms)")
	runs := map[PackerStrategy]*PackerRun{}
	for _, st := range []PackerStrategy{AllInOne, OneToOne, Packer} {
		run, err := RunPacker(st)
		if err != nil {
			return err
		}
		runs[st] = run
	}
	for _, sess := range []string{"session-1", "session-2"} {
		fmt.Fprintf(w, "%s:\n", sess)
		fmt.Fprintf(w, "  %-7s %12s %12s %12s\n", "model", "All-in-one", "One-to-one", "FnPacker")
		for _, m := range packerModels {
			fmt.Fprintf(w, "  %-7s %12.0f %12.0f %12.0f\n", m,
				float64(runs[AllInOne].SessionLatency[sess][m].Milliseconds()),
				float64(runs[OneToOne].SessionLatency[sess][m].Milliseconds()),
				float64(runs[Packer].SessionLatency[sess][m].Milliseconds()))
		}
	}
	return nil
}

// ---------- Ablations ----------

// AblationExclusiveInterval sweeps FnPacker's exclusivity interval and
// reports the Poisson-stream average latency at each setting.
func AblationExclusiveInterval(intervals []time.Duration) (map[time.Duration]time.Duration, error) {
	out := map[time.Duration]time.Duration{}
	for _, iv := range intervals {
		var actions []sim.ActionSpec
		var endpoints []string
		for i := range packerModels {
			name := fmt.Sprintf("pool-%d", i)
			actions = append(actions, sim.ActionSpec{Name: name, Framework: "tvm", Concurrency: 1, DefaultModel: "rsnet"})
			endpoints = append(endpoints, name)
		}
		cfg := sim.Config{
			System: sim.SeSeMI, HW: costmodel.SGX2, Nodes: 8,
			Actions: actions, ModelCosts: packerAliases(),
		}
		s, err := sim.New(cfg)
		if err != nil {
			return nil, err
		}
		sched, err := fnpacker.NewScheduler(s.EngineClock(), iv, endpoints...)
		if err != nil {
			return nil, err
		}
		if err := s.SetRoute(sched); err != nil {
			return nil, err
		}
		chainSessions(s)
		res, err := s.Run(packerTrace())
		if err != nil {
			return nil, err
		}
		var poisson metrics.Latency
		for _, r := range res.Requests {
			if r.User == "poisson-user-0" || r.User == "poisson-user-1" {
				poisson.Add(r.Latency())
			}
		}
		out[iv] = poisson.Mean()
	}
	return out, nil
}

func runAblationInterval(w io.Writer) error {
	header(w, "Ablation: FnPacker exclusivity interval vs Poisson avg latency")
	intervals := []time.Duration{time.Second, 5 * time.Second, 10 * time.Second, 30 * time.Second, 2 * time.Minute}
	res, err := AblationExclusiveInterval(intervals)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-12s %14s\n", "interval", "avg latency")
	for _, iv := range intervals {
		fmt.Fprintf(w, "%-12s %12.0fms\n", iv, float64(res[iv].Milliseconds()))
	}
	return nil
}

// KeyCacheAblation is one key-cache build's simulated outcome on the
// multi-user stream.
type KeyCacheAblation struct {
	// Mode names the build: "off" (strong isolation, every request
	// refetches), "single" (the historical one-pair cache), "lru" (the
	// bounded LRU, default capacity).
	Mode string
	// Mean is the stream's mean end-to-end latency.
	Mean time.Duration
	// KeyFetches counts provisioning round trips over the run.
	KeyFetches int
}

// AblationKeyCache compares SeMIRT's key-cache builds — disabled, the
// historical single pair, and the bounded LRU — under an interleaved
// eight-user stream on one model: the multi-user serving mix where the
// single-pair design collapses to per-flip refetches (Algorithm 2
// lines 6-10, widened).
func AblationKeyCache() ([]KeyCacheAblation, error) {
	const users = 8
	mk := func(mode string, cacheSize int, disable bool) (KeyCacheAblation, error) {
		cfg := sim.Config{
			System: sim.SeSeMI, HW: costmodel.SGX2, Nodes: 1,
			Actions:         []sim.ActionSpec{{Name: "fn", Framework: "tvm", Concurrency: 1, DefaultModel: "mbnet"}},
			KeyCacheSize:    cacheSize,
			DisableKeyCache: disable,
		}
		s, err := sim.New(cfg)
		if err != nil {
			return KeyCacheAblation{}, err
		}
		// Eight users, one steady stream each, phase-shifted so arrivals
		// interleave users — the cache-hostile ordering a shared model
		// replica actually sees.
		var streams []workload.Trace
		for u := 0; u < users; u++ {
			tr := workload.FixedRate(0.25, 60*time.Second, "mbnet", fmt.Sprintf("user-%d", u))
			for i := range tr {
				tr[i].At += time.Duration(u) * 500 * time.Millisecond
			}
			streams = append(streams, tr)
		}
		res, err := s.Run(workload.Merge(streams...))
		if err != nil {
			return KeyCacheAblation{}, err
		}
		return KeyCacheAblation{Mode: mode, Mean: res.All.Mean(), KeyFetches: res.KeyFetches}, nil
	}
	off, err := mk("off", 0, true)
	if err != nil {
		return nil, err
	}
	single, err := mk("single", 1, false)
	if err != nil {
		return nil, err
	}
	lru, err := mk("lru", 0, false)
	if err != nil {
		return nil, err
	}
	return []KeyCacheAblation{off, single, lru}, nil
}

func runAblationKeyCache(w io.Writer) error {
	header(w, "Ablation: SeMIRT key cache off / single-pair / LRU (8-user stream, TVM-MBNET)")
	runs, err := AblationKeyCache()
	if err != nil {
		return err
	}
	for _, r := range runs {
		fmt.Fprintf(w, "%-8s %8.0fms mean  %5d key fetches\n",
			r.Mode, float64(r.Mean.Milliseconds()), r.KeyFetches)
	}
	return nil
}

func init() {
	register(Experiment{ID: "table3", Title: "Table III: FnPacker Poisson traffic", Run: runTable3})
	register(Experiment{ID: "table4", Title: "Table IV: interactive sessions", Run: runTable4})
	register(Experiment{ID: "ablation-interval", Title: "Ablation: exclusivity interval", Run: runAblationInterval})
	register(Experiment{ID: "ablation-keycache", Title: "Ablation: key cache", Run: runAblationKeyCache})
}
