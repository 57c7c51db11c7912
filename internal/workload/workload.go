// Package workload generates the request arrival traces used in the paper's
// evaluation: fixed-rate open-loop streams (Figure 12), Poisson arrivals and
// interactive sessions mixed from MLPerf patterns (Tables III and IV), and
// the Markov-modulated Poisson process (MMPP) of Figures 13 and 14.
//
// All generators are deterministic given a seed, so experiments are exactly
// reproducible.
package workload

import (
	"math"
	"math/rand"
	"sort"
	"time"
)

// Event is one request arrival.
type Event struct {
	// At is the arrival time from the trace start.
	At time.Duration
	// ModelID is the target model.
	ModelID string
	// UserID identifies the requesting user (one user per model by
	// default, as in the paper's single-user request streams).
	UserID string
	// ExecSteps is the request's execution length in scheduler steps
	// (semirt.Request.ExecSteps); 0 and 1 both mean a single step. Heavy-
	// tailed traces mix step counts to expose head-of-line blocking.
	ExecSteps int
}

// Trace is a time-ordered sequence of arrivals.
type Trace []Event

// Sort orders the trace by arrival time (stable for equal times).
func (t Trace) Sort() {
	sort.SliceStable(t, func(i, j int) bool { return t[i].At < t[j].At })
}

// Duration returns the time of the last arrival (0 for an empty trace).
func (t Trace) Duration() time.Duration {
	if len(t) == 0 {
		return 0
	}
	return t[len(t)-1].At
}

// Merge combines traces into one ordered trace.
func Merge(traces ...Trace) Trace {
	var out Trace
	for _, tr := range traces {
		out = append(out, tr...)
	}
	out.Sort()
	return out
}

// FixedRate emits requests at a constant rate (requests/second) for the
// given duration — the open-loop load of Figure 12.
func FixedRate(rate float64, duration time.Duration, modelID, userID string) Trace {
	if rate <= 0 || duration <= 0 {
		return nil
	}
	gap := time.Duration(float64(time.Second) / rate)
	var tr Trace
	for at := time.Duration(0); at < duration; at += gap {
		tr = append(tr, Event{At: at, ModelID: modelID, UserID: userID})
	}
	return tr
}

// Poisson emits requests with exponential inter-arrival times at the given
// mean rate (requests/second).
func Poisson(seed int64, rate float64, duration time.Duration, modelID, userID string) Trace {
	if rate <= 0 || duration <= 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	var tr Trace
	at := expGap(rng, rate)
	for at < duration {
		tr = append(tr, Event{At: at, ModelID: modelID, UserID: userID})
		at += expGap(rng, rate)
	}
	return tr
}

func expGap(rng *rand.Rand, rate float64) time.Duration {
	return time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
}

// MMPP emits a Markov-modulated Poisson process: the arrival rate switches
// among the given states, staying in each for an exponentially distributed
// sojourn with the given mean. The paper alternates 20 and 40 rps (§VI-C).
func MMPP(seed int64, rates []float64, meanSojourn, duration time.Duration, modelID, userID string) Trace {
	if len(rates) == 0 || duration <= 0 || meanSojourn <= 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	var tr Trace
	state := 0
	now := time.Duration(0)
	switchAt := sojourn(rng, meanSojourn)
	for now < duration {
		rate := rates[state]
		gap := expGap(rng, rate)
		now += gap
		for now >= switchAt {
			state = (state + 1) % len(rates)
			switchAt += sojourn(rng, meanSojourn)
		}
		if now < duration {
			tr = append(tr, Event{At: now, ModelID: modelID, UserID: userID})
		}
	}
	return tr
}

func sojourn(rng *rand.Rand, mean time.Duration) time.Duration {
	return time.Duration(rng.ExpFloat64() * float64(mean))
}

// Diurnal emits a smoothly varying daily-cycle workload: a non-homogeneous
// Poisson process whose rate swings sinusoidally between troughRate and
// peakRate over the given period (trough at t = 0, peak half a period in),
// generated by thinning a homogeneous peakRate process — the standard exact
// method for a bounded time-varying rate. Unlike MMPP's sudden state
// switches, the ramps here are gradual, which is what a trend-following
// forecaster is supposed to anticipate.
func Diurnal(seed int64, peakRate, troughRate float64, period, duration time.Duration, modelID, userID string) Trace {
	if peakRate <= 0 || duration <= 0 || period <= 0 {
		return nil
	}
	if troughRate < 0 {
		troughRate = 0
	}
	if troughRate > peakRate {
		troughRate, peakRate = peakRate, troughRate
	}
	rng := rand.New(rand.NewSource(seed))
	var tr Trace
	for at := expGap(rng, peakRate); at < duration; at += expGap(rng, peakRate) {
		if rng.Float64()*peakRate <= DiurnalRate(at, peakRate, troughRate, period) {
			tr = append(tr, Event{At: at, ModelID: modelID, UserID: userID})
		}
	}
	return tr
}

// DiurnalRate is the instantaneous arrival rate of the Diurnal trace at
// time t. Rising half-periods ([0, period/2) mod period) are the ramps.
func DiurnalRate(t time.Duration, peakRate, troughRate float64, period time.Duration) float64 {
	if period <= 0 {
		return 0
	}
	phase := 2 * math.Pi * float64(t) / float64(period)
	return troughRate + (peakRate-troughRate)*(0.5-0.5*math.Cos(phase))
}

// Session emits one interactive session: the models are queried
// sequentially starting at start, separated by thinkTime (a model user
// trying out multiple models on a sample, Table IV).
func Session(start time.Duration, thinkTime time.Duration, userID string, models ...string) Trace {
	var tr Trace
	at := start
	for _, m := range models {
		tr = append(tr, Event{At: at, ModelID: m, UserID: userID})
		at += thinkTime
	}
	return tr
}

// Rate computes the average request rate of a trace over its duration.
func (t Trace) Rate() float64 {
	d := t.Duration()
	if d <= 0 {
		return 0
	}
	return float64(len(t)) / d.Seconds()
}

// CountInWindow returns the number of arrivals in [from, to).
func (t Trace) CountInWindow(from, to time.Duration) int {
	n := 0
	for _, e := range t {
		if e.At >= from && e.At < to {
			n++
		}
	}
	return n
}

// RateSeries bins the trace into windows and returns the per-window rate in
// requests/second (the workload panel of Figure 13a).
func (t Trace) RateSeries(window time.Duration) []float64 {
	if window <= 0 || len(t) == 0 {
		return nil
	}
	n := int(math.Ceil(float64(t.Duration()) / float64(window)))
	if n == 0 {
		n = 1
	}
	out := make([]float64, n)
	for _, e := range t {
		i := int(e.At / window)
		if i >= n {
			i = n - 1
		}
		out[i]++
	}
	for i := range out {
		out[i] /= window.Seconds()
	}
	return out
}
