package main

import (
	"flag"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"github.com/robotron-net/robotron/internal/core"
	"github.com/robotron-net/robotron/internal/monitor"
	"github.com/robotron-net/robotron/internal/reconcile"
	"github.com/robotron-net/robotron/internal/scenario"
)

// defaultObsScenario is the drill `robotron obs` replays when no file is
// given: a drift-induced BGP session drop that fires the derived alarm,
// correlates it with the causing event, and resolves after reconciliation.
const defaultObsScenario = "examples/scenarios/bgp-down-alarm-correlated.yaml"

// The `robotron obs` noun group is the observability surface: it replays
// a scenario on the virtual clock and prints the requested view of the
// finished world.
//
//	robotron obs alarms [file]     alarm lifecycle snapshot + correlations
//	robotron obs timeline [file]   merged operational timeline
//	robotron obs series [file]     collected timeseries keys and last samples
//	robotron obs jobs [file]       derived collection jobs and alarm rules
//	robotron obs reconcile [file]  per-shard breaker/budget/backlog snapshot
//
// Exit codes mirror `robotron sim`: 0 ok, 1 the scenario failed, 2 the
// file is invalid or usage is wrong.
func runObs(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("obs", flag.ContinueOnError)
	fs.SetOutput(stderr)
	verbose := fs.Bool("v", false, "verbose progress output")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: robotron obs <alarms|timeline|series|jobs|reconcile> [flags] [scenario-file]\n")
		fs.PrintDefaults()
	}
	if len(args) == 0 {
		fs.Usage()
		return 2
	}
	view := args[0]
	switch view {
	case "alarms", "timeline", "series", "jobs", "reconcile":
	default:
		fmt.Fprintf(stderr, "obs: unknown view %q (want alarms, timeline, series, jobs, or reconcile)\n", view)
		return 2
	}
	if err := fs.Parse(args[1:]); err != nil {
		return 2
	}
	path := defaultObsScenario
	if rest := fs.Args(); len(rest) > 0 {
		path = rest[0]
	}
	f, err := scenario.Load(path)
	if err != nil {
		fmt.Fprintf(stderr, "INVALID %s\n  %v\n", path, err)
		return 2
	}
	_, err = scenario.Run(f, scenario.Options{
		Logf: verboseLogf(*verbose, stdout),
		Attach: func(r *core.Robotron) (func(error), error) {
			return func(runErr error) {
				if runErr == nil {
					obsPrint(stdout, view, r)
				}
			}, nil
		},
	})
	if err != nil {
		fmt.Fprintf(stderr, "FAIL    %s\n  %v\n", path, err)
		return 1
	}
	return 0
}

func obsPrint(w io.Writer, view string, r *core.Robotron) {
	switch view {
	case "alarms":
		fmt.Fprint(w, monitor.FormatAlarms(r.Alarms.Snapshot()))
	case "timeline":
		for _, e := range r.Alarms.Timeline(time.Time{}, time.Time{}) {
			fmt.Fprintln(w, e.String())
		}
	case "series":
		keys := r.Timeseries.Keys()
		fmt.Fprintf(w, "%d series collected\n", len(keys))
		for _, k := range keys {
			last := r.Timeseries.Last(k, 1)
			if len(last) == 0 {
				continue
			}
			fmt.Fprintf(w, "%-48s n=%-5d last=%g\n", k, len(r.Timeseries.Series(k)), last[0].Value)
		}
	case "reconcile":
		if r.Reconciler == nil {
			fmt.Fprintln(w, "reconciler disabled")
			return
		}
		fmt.Fprint(w, reconcile.FormatSnapshot(r.Reconciler.Snapshot()))
		fmt.Fprintln(w)
		fmt.Fprint(w, reconcile.FormatDeviceTable(r.Reconciler.Devices()))
	case "jobs":
		jobs := r.JobManager.Jobs()
		sort.Slice(jobs, func(i, j int) bool { return jobs[i].Name < jobs[j].Name })
		fmt.Fprintf(w, "%d collection jobs\n", len(jobs))
		for _, j := range jobs {
			target := "fleet"
			if !j.AllDevices {
				target = strings.Join(j.Devices, ",")
			}
			fmt.Fprintf(w, "%-36s %-8s %-12s every %-6s -> %s\n",
				j.Name, j.Engine, j.Data, j.Period, target)
		}
		rules := r.Alarms.Rules()
		fmt.Fprintf(w, "%d alarm rules\n", len(rules))
		for _, rl := range rules {
			fmt.Fprintf(w, "%-24s %-10s %-16s %s\n", rl.Name, rl.Kind, rl.Device, rl.Key)
		}
	}
}
