package frontier

// The work-stealing pacer. Consistent hashing bounds imbalance for UNIFORM
// keys; a skewed workload (one hot model, one hot tenant) still piles its
// whole stream onto one shard. Spill handles the admission side of that —
// this loop handles the backlog side: at every tick it compares shard
// backlogs and, past StealThreshold, moves a whole (action, model) queue
// drain from the most to the least backlogged shard. The transfer itself is
// gateway.StealQueue/AcceptStolen — two-phase, deadlock-free, and
// fairness-neutral (original enqueue times, no fresh DRR deficit), so a
// steal changes where requests run, never when they were entitled to run.
//
// Stealing happens at dispatch boundaries by construction: StealQueue only
// exports requests that are QUEUED (never batch members in flight), and the
// destination dispatches them under its own formation rules. The pacer moves
// at most half the observed gap, so one tick cannot invert the imbalance and
// set up a ping-pong.

import "time"

func (f *Frontier) stealLoop() {
	defer f.wg.Done()
	t := time.NewTicker(f.cfg.StealInterval)
	defer t.Stop()
	for {
		select {
		case <-f.stop:
			return
		case <-t.C:
			f.stealOnce()
		}
	}
}

// stealOnce performs at most one rebalancing move, reporting how many
// requests it relocated. Split out of the loop for tests (and for callers
// embedding the frontier in simulated time).
func (f *Frontier) stealOnce() int {
	maxI, minI := -1, -1
	maxB, minB := -1, int(^uint(0)>>1)
	for i, g := range f.shards {
		b := g.Backlog()
		if b > maxB {
			maxB, maxI = b, i
		}
		if b < minB {
			minB, minI = b, i
		}
	}
	gap := maxB - minB
	if maxI == minI || gap < f.cfg.StealThreshold {
		return 0
	}
	want := gap / 2
	if want > f.cfg.StealMax {
		want = f.cfg.StealMax
	}
	s := f.shards[maxI].StealQueue(want)
	n := s.Count()
	if n == 0 {
		return 0
	}
	f.shards[minI].AcceptStolen(s)
	f.steals.Add(1)
	f.stolen.Add(uint64(n))
	return n
}
