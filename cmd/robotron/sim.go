package main

import (
	"flag"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"time"

	"github.com/robotron-net/robotron/internal/core"
	"github.com/robotron-net/robotron/internal/scenario"
	"github.com/robotron-net/robotron/internal/telemetry"
)

// The `robotron sim` noun group drives the declarative scenario
// harness:
//
//	robotron sim run <file>...       execute scenarios
//	robotron sim validate <file>...  static checking only
//	robotron sim list [dir]          enumerate scenarios in a directory
//
// Every file is run (or checked, or listed) and gets its own verdict
// line; the exit code is the worst one: 0 all scenarios passed, 1 a
// scenario failed (an assertion did not hold or an action errored), 2 a
// scenario file is invalid (parse or validation error) or usage is wrong.
func runSim(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	realtime := fs.Bool("realtime", false, "run on the wall clock instead of the deterministic virtual clock")
	verbose := fs.Bool("v", false, "verbose progress output")
	journal := fs.Bool("journal", false, "print each run's deterministic journal")
	metricsAddr := fs.String("metrics-addr", "", "sim run: serve /metrics (Prometheus text), /traces (JSON), /healthz and the obs views on this address (e.g. :9090) for the life of each run; empty disables")
	noVerify := fs.Bool("no-verify", false, "sim run: bypass the pre-deploy intent verification gate (emergency escape hatch; deployments proceed even when network invariants fail)")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: robotron sim <run|validate|list> [flags] [args]\n")
		fs.PrintDefaults()
	}
	if len(args) == 0 {
		fs.Usage()
		return 2
	}
	cmd := args[0]
	if err := fs.Parse(args[1:]); err != nil {
		return 2
	}
	files := fs.Args()
	switch cmd {
	case "run", "validate":
		if len(files) == 0 {
			fmt.Fprintf(stderr, "sim %s: no scenario files given\n", cmd)
			return 2
		}
	case "list":
		dir := "examples/scenarios"
		if len(files) > 0 {
			dir = files[0]
		}
		files, _ = filepath.Glob(filepath.Join(dir, "*.yaml"))
		if len(files) == 0 {
			fmt.Fprintf(stderr, "sim list: no scenarios under %s\n", dir)
			return 2
		}
		sort.Strings(files)
	default:
		fmt.Fprintf(stderr, "sim: unknown subcommand %q (want run, validate, or list)\n", cmd)
		return 2
	}

	opts := scenario.Options{Realtime: *realtime, Logf: verboseLogf(*verbose, stdout)}
	// The two knobs a drill file cannot express ride on the engine's hook.
	opts.Attach = func(r *core.Robotron) (func(error), error) {
		if *noVerify {
			r.VerifyIntent = false
			fmt.Fprintln(stdout, "  | verify: pre-deploy intent verification DISABLED (-no-verify)")
		}
		var srv *telemetry.Server
		if *metricsAddr != "" {
			var err error
			if srv, err = r.ServeMetrics(*metricsAddr); err != nil {
				return nil, err
			}
			fmt.Fprintf(stdout, "  | telemetry: serving /metrics, /traces, /healthz on %s\n", srv.Addr)
		}
		return func(error) {
			// The escape hatch stays loud: every bypassed gate run left a
			// WARNING verify-gate event on the timeline; replay them.
			if *noVerify {
				for _, ev := range r.Alarms.Timeline(time.Time{}, time.Time{}) {
					if ev.Kind == "verify-gate" {
						fmt.Fprintln(stdout, "  | "+ev.String())
					}
				}
			}
			if srv != nil {
				srv.Close()
			}
		}, nil
	}
	worst := 0
	for _, path := range files {
		code := 0
		f, err := scenario.Load(path)
		switch {
		case err != nil && cmd == "list":
			code = 2
			fmt.Fprintf(stdout, "%-40s INVALID: %v\n", filepath.Base(path), err)
		case err != nil:
			code = 2
			fmt.Fprintf(stderr, "INVALID %s\n  %v\n", path, err)
		case cmd == "list":
			fmt.Fprintf(stdout, "%-40s %s\n", filepath.Base(path), f.Description)
		case cmd == "validate":
			fmt.Fprintf(stdout, "valid   %s\n", path)
		default:
			code = simRunOne(path, f, opts, *journal, stdout, stderr)
		}
		worst = max(worst, code)
	}
	return worst
}

// simRunOne executes one loaded scenario and prints its verdict.
func simRunOne(path string, f *scenario.File, opts scenario.Options, journal bool, stdout, stderr io.Writer) int {
	res, err := scenario.Run(f, opts)
	code := 0
	if err != nil {
		code = 1
		fmt.Fprintf(stderr, "FAIL    %s\n  %v\n", path, err)
	} else {
		fmt.Fprintf(stdout, "ok      %s (%s, %d events)\n", path, res.Scenario, res.Events)
	}
	if journal && res != nil {
		fmt.Fprint(stdout, res.Journal)
	}
	return code
}

// verboseLogf is the -v progress sink shared by sim and obs.
func verboseLogf(verbose bool, stdout io.Writer) func(string, ...any) {
	if !verbose {
		return nil
	}
	return func(format string, args ...any) {
		fmt.Fprintf(stdout, "  | "+format+"\n", args...)
	}
}
