package reconcile

import (
	"fmt"
	"testing"
	"time"

	"github.com/robotron-net/robotron/internal/monitor"
	"github.com/robotron-net/robotron/internal/vclock"
)

// BenchmarkReconcileConverge measures time-to-convergence of the control
// loop as fleet size grows: every device in the fleet drifts at once and
// the loop drives them all back under a budget sized to the fleet. Uses
// the fake world + virtual clock so the benchmark isolates reconciler
// overhead (state machine, journal, scheduling) from netsim and deploy
// costs.
func BenchmarkReconcileConverge(b *testing.B) {
	for _, fleet := range []int{8, 64, 256} {
		b.Run(fmt.Sprintf("fleet=%d", fleet), func(b *testing.B) {
			names := make([]string, fleet)
			for i := range names {
				names[i] = fmt.Sprintf("dev%03d", i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				w := newFakeWorld(names...)
				clk := vclock.NewVirtualClock(t0)
				r := New(Deps{
					Golden:   w,
					Deployer: deployerFunc(w.deployClock(clk)),
					Checker:  w,
				}, Config{
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
				for _, name := range names {
					if r.States()[name] != StateConverged {
						b.Fatalf("%s did not converge", name)
					}
				}
				b.StartTimer()
			}
		})
	}
}
