package reconcile

import (
	"fmt"
	"os"
	"testing"
	"time"

	"github.com/robotron-net/robotron/internal/monitor"
	"github.com/robotron-net/robotron/internal/vclock"
)

// BenchmarkScaleReconcileConverge extends the convergence benchmark to
// query-storm fleet sizes: the whole fleet drifts at once and the loop
// drives every device back. Uses the fake world + virtual clock so the
// number isolates reconciler overhead (state machine, journal, budget
// math, scheduling). Two modes: "global" is the one-shard case — SiteOf
// puts the whole fleet in one site and ShardFleetSize reports the fleet —
// and "sharded" spreads it over 64 sites, so the budget/breaker math runs
// on per-shard counters. The 16384 size is gated behind
// ROBOTRON_BENCH_LARGE=1; `make bench-reconcile` and `make bench-scale`
// set the variable.
func BenchmarkScaleReconcileConverge(b *testing.B) {
	sizes := []int{256, 4096}
	if os.Getenv("ROBOTRON_BENCH_LARGE") == "1" {
		sizes = append(sizes, 16384)
	}
	const sites = 64
	for _, fleet := range sizes {
		names := make([]string, fleet)
		siteOf := make(map[string]string, fleet)
		for i := range names {
			names[i] = fmt.Sprintf("dev%05d", i)
			siteOf[names[i]] = fmt.Sprintf("site%02d", i%sites)
		}
		for _, mode := range []string{"global", "sharded"} {
			b.Run(fmt.Sprintf("fleet=%d/%s", fleet, mode), func(b *testing.B) {
				deps := Deps{
					SiteOf:         func(string) string { return "fleet" },
					ShardFleetSize: func(string) int { return fleet },
				}
				if mode == "sharded" {
					deps.SiteOf = func(d string) string { return siteOf[d] }
					deps.ShardFleetSize = func(string) int { return fleet / sites }
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					w := newFakeWorld(names...)
					clk := vclock.NewVirtualClock(t0)
					d := deps
					d.Golden = w
					d.Deployer = deployerFunc(w.deployClock(clk))
					d.Checker = w
					r := New(d, Config{
						Clock: clk, BackoffBase: time.Second,
						DampingThreshold: -1,
						BudgetMaxDevices: fleet, BudgetMaxFraction: 1.0,
					})
					for _, name := range names {
						w.drift(name)
					}
					b.StartTimer()
					for _, name := range names {
						r.HandleDeviation(monitor.Deviation{Device: name, Added: 1})
					}
					clk.Advance(time.Minute)
					b.StopTimer()
					if got := len(w.deploys); got != fleet {
						b.Fatalf("deploys = %d, want %d", got, fleet)
					}
					b.StartTimer()
				}
			})
		}
	}
}
