package core

import (
	"testing"
	"time"

	"github.com/robotron-net/robotron/internal/design"
	"github.com/robotron-net/robotron/internal/monitor"
	"github.com/robotron-net/robotron/internal/relstore"
	"github.com/robotron-net/robotron/internal/telemetry"
	"github.com/robotron-net/robotron/internal/vclock"
)

// TestDerivedSteadyCycleWritesDerivedDeviceOnly pins the steady-state cost
// of a monitoring cycle (DESIGN.md §15.5): on a 64-device DCGen3(40)
// cluster where nothing changes between polls, the third full ObserveOnce
// appends one update per device — its DerivedDevice row's uptime and
// last-seen stamp — and nothing else: no interface, BGP, LLDP or circuit
// row is rewritten or re-created. It commits one transaction per device,
// the one writing that row: an observation that changed nothing opens
// none.
func TestDerivedSteadyCycleWritesDerivedDeviceOnly(t *testing.T) {
	clk := vclock.NewVirtualClock(time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC))
	r, err := New(Options{Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Designer.EnsureSite("dc1", "dc", "apac"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ProvisionCluster(testCtx("dc"), "dc1", "dc1-c1", design.DCGen3(40)); err != nil {
		t.Fatal(err)
	}
	installAuditJobs(t, r)
	devices, err := r.Store.Count("Device")
	if err != nil || devices != 64 {
		t.Fatalf("devices = %d (%v), want 64", devices, err)
	}
	commits := r.Telemetry.Counter("robotron_relstore_tx_commits_total", telemetry.L("server", r.Store.DB().Name())...)
	var seq uint64
	var committed int64
	for cycle := 1; cycle <= 3; cycle++ {
		clk.Advance(time.Minute)
		seq, committed = r.Store.DB().Seq(), commits.Value()
		if _, err := r.ObserveOnce(); err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
	}
	byTable := map[string]int{}
	for _, e := range r.Store.DB().EntriesSince(seq) {
		byTable[e.Table]++
		if e.Table == "DerivedDevice" && e.Op != relstore.OpUpdate {
			t.Errorf("DerivedDevice row %d: %s on a steady cycle", e.RowID, e.Op)
		}
	}
	if len(byTable) != 1 || byTable["DerivedDevice"] != devices {
		t.Errorf("third identical cycle appended %v, want %d DerivedDevice updates and nothing else", byTable, devices)
	}
	if n := commits.Value() - committed; n != int64(devices) {
		t.Errorf("third identical cycle committed %v transactions, want %d, one per DerivedDevice row", n, devices)
	}
}

// TestSteadyCollectionPlansNoQuery pins what a steady collection costs the
// store (DESIGN.md §15.5): on a converged 64-device DCGen3(40) cluster,
// with the intent-derived jobs and an LLDP job, the third cycle's
// collection plans no query and commits no transaction — every interface,
// BGP and LLDP observation repeats one the Derived backend verified at a
// table seq that has not moved — and the rest of the cycle (circuits, the
// alarm pass) commits none either.
func TestSteadyCollectionPlansNoQuery(t *testing.T) {
	clk := vclock.NewVirtualClock(time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC))
	r, err := New(Options{Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Designer.EnsureSite("dc1", "dc", "apac"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ProvisionCluster(testCtx("dc"), "dc1", "dc1-c1", design.DCGen3(40)); err != nil {
		t.Fatal(err)
	}
	if err := r.JobManager.AddJob(monitor.JobSpec{Name: "cli-lldp", Period: 10 * time.Minute, Engine: monitor.EngineCLI,
		Data: monitor.DataLLDP, AllDevices: true, Backends: []string{"fbnet-derived"}}); err != nil {
		t.Fatal(err)
	}
	commits := r.Telemetry.Counter("robotron_relstore_tx_commits_total", telemetry.L("server", r.Store.DB().Name())...)
	planned := func() (n float64) {
		for _, strategy := range []string{"indexed", "scan"} {
			v, _ := r.Telemetry.Value("robotron_fbnet_queries_planned_total", telemetry.L("strategy", strategy)...)
			n += v
		}
		return n
	}
	for cycle := 1; cycle <= 2; cycle++ {
		clk.Advance(time.Minute)
		if _, err := r.ObserveOnce(); err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
	}
	// The third cycle is ObserveOnce spelled out: CollectOnce's jobs, then
	// circuits and the alarm pass.
	clk.Advance(time.Minute)
	queries, committed := planned(), commits.Value()
	polls := 0
	for _, spec := range r.JobManager.Jobs() {
		cols, err := r.JobManager.RunOnce(spec)
		if err != nil {
			t.Fatal(err)
		}
		polls += len(cols)
	}
	if n := planned() - queries; n != 0 || polls == 0 {
		t.Errorf("a steady collection of %d polls planned %v queries, want 0", polls, n)
	}
	if n := commits.Value() - committed; n != 0 {
		t.Errorf("a steady collection committed %d transactions, want 0", n)
	}
	if _, err := monitor.DeriveCircuits(r.Store); err != nil {
		t.Fatal(err)
	}
	r.Alarms.Evaluate()
	if n := commits.Value() - committed; n != 0 {
		t.Errorf("a steady cycle committed %d transactions, want 0", n)
	}
}
