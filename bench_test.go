// Benchmarks regenerating the paper's evaluation (SIGCOMM '16, §6): one
// benchmark per figure and table, each driving the corresponding workload
// through the real pipeline at a reduced scale, plus end-to-end system
// benchmarks for the headline operations (cluster materialization and
// provisioning). Run with:
//
//	go test -bench=. -benchmem .
package robotron_test

import (
	"fmt"
	"testing"
	"time"

	"github.com/robotron-net/robotron/internal/core"
	"github.com/robotron-net/robotron/internal/deploy"
	"github.com/robotron-net/robotron/internal/design"
	"github.com/robotron-net/robotron/internal/experiments"
	"github.com/robotron-net/robotron/internal/netsim"
	"github.com/robotron-net/robotron/internal/vclock"
)

// BenchmarkFig12ArchEvolution replays a quarter of architecture evolution
// (cluster builds, merges, decommissions) per iteration.
func BenchmarkFig12ArchEvolution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig12(experiments.Fig12Config{Weeks: 13, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig13ModelGraph measures the model-relatedness analysis over
// the full catalog.
func BenchmarkFig13ModelGraph(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.RunFig13()
		if len(res.Counts) == 0 {
			b.Fatal("empty catalog")
		}
	}
}

// BenchmarkFig14ModelChurn simulates a quarter of model evolution with
// weekly source diffs per iteration.
func BenchmarkFig14ModelChurn(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.RunFig14(experiments.Fig14Config{Weeks: 13, Seed: int64(i)})
		if res.MeanPerDay <= 0 {
			b.Fatal("no churn")
		}
	}
}

// BenchmarkFig15DesignChange replays one month of design changes through
// the design engine per iteration.
func BenchmarkFig15DesignChange(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig15(experiments.Fig15Config{Months: 1, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig16ConfigChurn replays two weeks of config churn (design
// change -> regeneration -> diff) per iteration.
func BenchmarkFig16ConfigChurn(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig16(experiments.Fig16Config{Weeks: 2, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2Monitoring simulates one virtual hour of the monitoring
// pipeline (every event is a real device poll) per iteration.
func BenchmarkTable2Monitoring(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunTable2(experiments.Table2Config{Hours: 1, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3Syslog classifies a 50k-message syslog stream with the
// production-sized rule set (719 rules) per iteration.
func BenchmarkTable3Syslog(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.RunTable3(experiments.Table3Config{TotalMessages: 50_000, Seed: int64(i)})
		if res.Total == 0 {
			b.Fatal("no messages")
		}
	}
}

// BenchmarkMaterializePOPCluster measures the design stage alone: one
// 4-post POP template materialized into ~110 FBNet objects.
func BenchmarkMaterializePOPCluster(b *testing.B) {
	r, err := core.New(core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := r.Designer.EnsureSite("pop1", "pop", "apac"); err != nil {
		b.Fatal(err)
	}
	ctx := design.ChangeContext{EmployeeID: "bench", TicketID: "T-b", Domain: "pop", NowUnix: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Designer.BuildCluster(ctx, "pop1", fmt.Sprintf("c%d", i), design.POPGen1()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMaterializeLargeCluster validates the §5.1.1 claim that
// template designs translate to "tens of thousands of FBNet objects
// within minutes": one 48-rack Gen3 DC cluster (thousands of objects) per
// iteration.
func BenchmarkMaterializeLargeCluster(b *testing.B) {
	r, err := core.New(core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := r.Designer.EnsureSite("dc1", "dc", "nam"); err != nil {
		b.Fatal(err)
	}
	ctx := design.ChangeContext{EmployeeID: "bench", TicketID: "T-b", Domain: "dc", NowUnix: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := r.Designer.BuildCluster(ctx, "dc1", fmt.Sprintf("big%d", i), design.DCGen3(48))
		if err != nil {
			b.Fatal(err)
		}
		if n := len(res.Stats.Created); n < 2000 {
			b.Fatalf("only %d objects", n)
		}
	}
}

// slowFleet builds a deployable n-device fleet whose commits each take
// delay to apply, the workload behind the §5.3.2 "agile, scalable"
// claim: rollout latency must be bounded by the slowest wave of the
// worker pool, not the sum of per-device commit delays.
func slowFleet(b *testing.B, n int, delay time.Duration) (*netsim.Fleet, *deploy.Deployer) {
	b.Helper()
	fleet := netsim.NewFleet(vclock.RealClock())
	for i := 0; i < n; i++ {
		vendor := netsim.Vendor1
		if i%2 == 1 {
			vendor = netsim.Vendor2
		}
		d, err := fleet.AddDevice(fmt.Sprintf("dev%02d", i), vendor, "psw", "pop1")
		if err != nil {
			b.Fatal(err)
		}
		if err := d.LoadConfig(slowFleetConfig(vendor, d.Name(), 1)); err != nil {
			b.Fatal(err)
		}
		if err := d.Commit(); err != nil {
			b.Fatal(err)
		}
		d.SetCommitDelay(delay)
	}
	return fleet, deploy.NewDeployer(deploy.FleetResolver(fleet), vclock.RealClock(), nil)
}

func slowFleetConfig(v netsim.Vendor, name string, rev int) string {
	if v == netsim.Vendor2 {
		return fmt.Sprintf("system {\n host-name %s;\n}\nae0 {\n mtu %d;\n}\n", name, 9000+rev)
	}
	return fmt.Sprintf("hostname %s\ninterface ae0\n mtu %d\n", name, 9000+rev)
}

// BenchmarkPhasedDeployParallel measures one 16-device phase with a
// uniform 10ms commit delay, serially (Parallelism=1) and through the
// bounded worker pool: serial pays 16×10ms per deployment, the pool pays
// one wave per ceil(16/workers) — near-linear speedup (≥4x at 8 workers).
func BenchmarkPhasedDeployParallel(b *testing.B) {
	const devices, delay = 16, 10 * time.Millisecond
	for _, bc := range []struct {
		name string
		par  int
	}{
		{"serial", 1},
		{"pool8", 8},
		{"pool16", 16},
	} {
		b.Run(bc.name, func(b *testing.B) {
			fleet, dep := slowFleet(b, devices, delay)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cfgs := map[string]string{}
				for _, d := range fleet.Devices() {
					cfgs[d.Name()] = slowFleetConfig(d.Vendor(), d.Name(), i+2)
				}
				if _, err := dep.Deploy(cfgs, deploy.Options{Parallelism: bc.par}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkProvisionPOPEndToEnd measures the whole life cycle: design,
// fleet sync, config generation, initial provisioning, golden commits.
func BenchmarkProvisionPOPEndToEnd(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := core.New(core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := r.Designer.EnsureSite("pop1", "pop", "apac"); err != nil {
			b.Fatal(err)
		}
		ctx := design.ChangeContext{EmployeeID: "bench", TicketID: "T-b", Domain: "pop", NowUnix: 1}
		if _, err := r.ProvisionCluster(ctx, "pop1", "c1", design.POPGen1()); err != nil {
			b.Fatal(err)
		}
	}
}
