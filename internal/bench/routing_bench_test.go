package bench

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"sesemi/internal/serverless"
	"sesemi/internal/vclock"
)

// nopInstance is a zero-work action runtime: invoking it measures nothing but
// the scheduler itself.
type nopInstance struct{}

func (nopInstance) Invoke(p []byte) ([]byte, error) { return p, nil }
func (nopInstance) Stop()                           {}

// newContentionCluster builds a cluster whose only cost is scheduling: no-op
// instances, zero modeled latencies, and enough prewarmed sandboxes that every
// acquire finds a ready slot. Scheduler overhead is the whole benchmark.
func newContentionCluster(b *testing.B, nodes, sandboxesPerNode, concurrency int) *serverless.Cluster {
	b.Helper()
	var ns []*serverless.Node
	for i := 0; i < nodes; i++ {
		ns = append(ns, &serverless.Node{
			Name:        fmt.Sprintf("node-%d", i),
			MemoryBytes: int64(sandboxesPerNode) * (256 << 20),
		})
	}
	cfg := serverless.Config{Clock: vclock.Real{Scale: 0}}
	c := serverless.NewCluster(cfg, ns...)
	err := c.Deploy(&serverless.Action{
		Name:         "fn",
		MemoryBudget: 256 << 20,
		Concurrency:  concurrency,
		New:          func(*serverless.Node) (serverless.Instance, error) { return nopInstance{}, nil },
	})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := c.Prewarm("fn", nodes*sandboxesPerNode); err != nil {
		b.Fatal(err)
	}
	return c
}

// BenchmarkRoutingContention measures raw scheduling throughput —
// Cluster.Invoke on a fully warm pool of no-op sandboxes — as the closed-loop
// client count grows. A scheduler serialized behind one cluster-wide mutex
// plateaus (or degrades) past a handful of clients; the sharded scheduler with
// the lock-free ready fast path should keep scaling until the machine runs out
// of cores. Run with -benchtime=1x for a quick check; run longer for numbers.
func BenchmarkRoutingContention(b *testing.B) {
	const perClient = 2000
	for _, clients := range []int{1, 4, 16, 64, 256} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			c := newContentionCluster(b, 4, 16, 64)
			defer c.Close()
			ctx := context.Background()
			// Warm the path once so the first measured invoke is not a claim
			// of a never-used sandbox list.
			if _, err := c.Invoke(ctx, "fn", nil); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				start := make(chan struct{})
				for cl := 0; cl < clients; cl++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						<-start
						for r := 0; r < perClient; r++ {
							if _, err := c.Invoke(ctx, "fn", nil); err != nil {
								b.Error(err)
								return
							}
						}
					}()
				}
				close(start)
				wg.Wait()
			}
			b.StopTimer()
			total := float64(b.N) * float64(clients) * perClient
			b.ReportMetric(total/b.Elapsed().Seconds(), "invokes/s")
			b.ReportMetric(0, "ns/op") // invokes/s is the meaningful metric
		})
	}
}
