package main

import (
	"context"
	"fmt"
	"runtime"
	"syscall"
	"time"

	"sesemi/internal/gateway"
	"sesemi/internal/semirt"
)

// phaseResult is what one phase of one round measured.
type phaseResult struct {
	ops     int // answered and verified
	failed  int // error, refusal or mismatch
	wall    time.Duration
	cpu     time.Duration // process user+sys over the phase
	alloc   uint64        // MemStats.TotalAlloc delta
	mallocs uint64        // MemStats.Mallocs delta
	// latMs holds one latency per answered request of an "open" phase: from
	// the due time in an open loop, from the Submit call in a closed one.
	latMs []float64
	// lateMs is how far behind its due time each open-phase Submit started;
	// rate is arrivals per second the generator achieved.
	lateMs []float64
	rate   float64
	kinds  [3]int // by semirt.InvocationKind
	err    error  // first failure seen
	window phaseWindow
}

// inflight is a submitted request on its way from generator to collector.
type inflight struct {
	tk   *gateway.Ticket
	p    *pooled
	from time.Time // latency origin
	span int32
	err  error // Submit's refusal; tk is nil
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// phase says what runPhase drives.
type phase struct {
	name  string
	sched schedule
	// window is how many requests a closed loop keeps outstanding; dur is how
	// long it runs (0 = once through the schedule). An open loop ignores both.
	window int
	dur    time.Duration
	// latencies keeps one latency per answered request. Only phases whose
	// latency is reported set it: a sat phase answers 100k requests.
	latencies bool
}

// runPhase drives one phase: one generator goroutine (this one) submits
// asynchronously, one collector goroutine waits on the tickets in submission
// order, decrypts every response and compares it with the reference. There
// is no client goroutine pool.
//
// With a due schedule the phase is an open loop: request i is submitted at
// start+due[i] no matter how the system is doing, and timed from that instant.
// Without one it is a closed loop that keeps `window` requests outstanding
// for dur, cycling through the schedule; dur 0 runs the schedule once.
func runPhase(ctx context.Context, w *world, tr *tracer, ph phase) phaseResult {
	name, s, window, dur, keepLat := ph.name, ph.sched, ph.window, ph.dur, ph.latencies
	open := s.due != nil
	depth := window
	if open {
		depth = len(s.idx) // the generator must never block on the collector
	}
	flights := make(chan inflight, depth)
	slots := make(chan struct{}, window)
	res := phaseResult{}
	collected := make(chan struct{})

	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0, mallocs0 := ms.TotalAlloc, ms.Mallocs
	cpu0 := cpuTime()
	start := time.Now()

	var lastDone time.Time
	go func() {
		defer close(collected)
		for f := range flights {
			var resp semirt.Response
			err := f.err
			if err == nil {
				resp, err = f.tk.Wait(ctx)
			}
			done := time.Now()
			tr.close(f.span, done)
			if err == nil {
				err = verify(f.p, resp)
			}
			if err != nil {
				res.fail(err)
			} else {
				res.ops++
				res.kinds[resp.Kind]++
				if keepLat {
					res.latMs = append(res.latMs, float64(done.Sub(f.from))/1e6)
				}
			}
			lastDone = done
			if !open {
				<-slots
			}
		}
	}()

	for i := 0; ; i++ {
		var from time.Time
		if (open || dur == 0) && i == len(s.idx) {
			break
		}
		if open {
			from = start.Add(s.due[i])
			waitUntil(from)
		} else {
			slots <- struct{}{}
			if dur > 0 && time.Since(start) >= dur {
				break
			}
		}
		p := w.pick(s, i)
		now := time.Now()
		if open {
			res.lateMs = append(res.lateMs, float64(now.Sub(from))/1e6)
		} else {
			from = now
		}
		rs := tr.open(spanRequest, from, -1, int32(i))
		ss := tr.open(spanSubmit, now, rs, int32(i))
		tk, err := w.front.Submit(ctx, p.req)
		tr.close(ss, time.Now())
		if err != nil {
			// Only the collector counts outcomes; a refused submission
			// reaches it as a ticket-less flight.
			flights <- inflight{p: p, from: from, span: rs, err: err}
			continue
		}
		flights <- inflight{tk: tk, p: p, from: from, span: rs}
	}
	close(flights)
	<-collected

	res.wall = lastDone.Sub(start)
	res.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&ms)
	res.alloc = ms.TotalAlloc - alloc0
	res.mallocs = ms.Mallocs - mallocs0
	if open {
		res.rate = achievedRate(s.due, res.lateMs)
	}
	if tr != nil {
		res.window = phaseWindow{Name: name, Start: tr.ns(start), End: tr.ns(time.Now())}
	}
	return res
}

// achievedRate is the arrival rate an open-loop generator held: arrival i was
// submitted due[i]+late[i] after the start, which puts the rate up to it at
// i over that time, and the phase's rate is the median of these over its second
// half. A generator that cannot keep up is late by a growing amount at every
// arrival and the median shows it; a stall that delays a few arrivals (the
// last one of the phase included, which alone would decide n over the time of
// the last Submit) does not move it.
func achievedRate(due []time.Duration, lateMs []float64) float64 {
	var rates []float64
	for i := len(due) / 2; i < len(due); i++ {
		if at := due[i].Seconds() + lateMs[i]/1e3; i > 0 && at > 0 {
			rates = append(rates, float64(i)/at)
		}
	}
	return median(rates)
}

func (r *phaseResult) fail(err error) {
	r.failed++
	if r.err == nil {
		r.err = err
	}
}

// waitUntil blocks until t. It sleeps in the kernel (nanosleep has timer
// resolution; the Go runtime's own timers round sub-millisecond sleeps up to
// 1 ms whenever the thread parks in the netpoller, which turned a 4000/s
// schedule into bursts of four) and yields through the last stretch: a pure
// spin would take one of the host's two CPUs away from the system under test.
func waitUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		if d > 80*time.Microsecond {
			ts := syscall.NsecToTimespec(int64(d - 60*time.Microsecond))
			_ = syscall.Nanosleep(&ts, nil) // an early return (EINTR) just loops
		} else {
			runtime.Gosched()
		}
	}
}

// round is one fresh world taken through set-up, warm-up, open and sat.
type round struct {
	setup     time.Duration
	open, sat phaseResult
	// before/after bracket the two measured phases; total is at world close.
	before, after counters
	reran         bool
}

// sizing is how much work a run does. Real runs use fullSizing; the smoke
// test shrinks every field to cover the same code in a few seconds.
type sizing struct {
	rounds int
	// plan fixes how long a round's phases last.
	plan phasePlan
	// probeBudget is the least time a probe loop runs; echoRequests is how
	// many requests the gateway echo probe pipelines.
	probeBudget  time.Duration
	echoRequests int
	// selfCheck arms the generator self-check (lateness re-run, achieved
	// rate); phases of a fraction of a second under the race detector cannot
	// hold 4000 arrivals a second, so the smoke test leaves it off.
	selfCheck bool
}

type phasePlan struct {
	warm, open, sat time.Duration
}

// fullSizing splits a workload's measuring budget (-seconds) over five
// rounds of one open and one sat phase each, after a warm-up of a quarter
// phase that fills caches.
func fullSizing(seconds float64) sizing {
	const rounds = 5
	per := time.Duration(seconds / (2 * rounds) * float64(time.Second))
	return sizing{
		rounds:       rounds,
		plan:         phasePlan{warm: min(per/4, time.Second), open: per, sat: per},
		probeBudget:  150 * time.Millisecond,
		echoRequests: 20000,
		selfCheck:    true,
	}
}

const (
	// lateLimitMs is the open-loop generator's lateness p99 above which a
	// round is run again (once): a descheduled generator silently turns the
	// open loop into a closed one.
	lateLimitMs = 2.0
	// minRateFrac is the share of the target arrival rate the generator must
	// achieve.
	minRateFrac = 0.99
)

// runRound builds a fresh world and measures it. The schedules come from the
// seed alone, so every round of a workload replays the same arrivals.
func runRound(ctx context.Context, in *inputs, tr *tracer, plan phasePlan) (round, error) {
	sp := in.sp
	var r round
	w, setup, err := setUp(ctx, in, tr)
	if err != nil {
		return r, err
	}
	defer w.close()
	r.setup = setup

	warm := runPhase(ctx, w, nil, phase{name: "warm", sched: in.closed("warm"), window: sp.window, dur: plan.warm})
	if warm.err != nil {
		return r, fmt.Errorf("%s warm-up: %w", sp.name, warm.err)
	}

	if tr != nil {
		tr.on.Store(true)
		defer tr.on.Store(false)
	}
	r.before = w.counters()
	open := phase{name: "open", sched: in.closed("open"), window: sp.window, dur: plan.open, latencies: true}
	if sp.openRate > 0 {
		open.sched = in.schedule("open", int(sp.openRate*plan.open.Seconds()), sp.openRate)
	}
	r.open = runPhase(ctx, w, tr, open)
	r.sat = runPhase(ctx, w, tr, phase{name: "sat", sched: in.closed("sat"), window: sp.window, dur: plan.sat})
	r.after = w.counters()
	return r, r.invariants(sp)
}

// invariants checks the path each workload exists to measure.
func (r *round) invariants(sp *spec) error {
	if sp.coldPath() {
		// cold_start: every op since the world was built is a cold start that
		// evicted the other action's sandbox, except the very first.
		c := r.after.cluster
		ops := r.after.semirt.Cold
		if r.open.kinds[semirt.Cold] != r.open.ops || r.sat.kinds[semirt.Cold] != r.sat.ops {
			return fmt.Errorf("%s: not every op was a cold invocation: open %v sat %v", sp.name, r.open.kinds, r.sat.kinds)
		}
		if c.ColdStarts != ops || c.Evictions != ops-1 {
			return fmt.Errorf("%s: %d ops but %d cold starts and %d evictions", sp.name, ops, c.ColdStarts, c.Evictions)
		}
	}
	return nil
}
