// Command robotron is the operator's front door to the simulated
// network: declarative drills in, verdicts and views out. A drill file
// (examples/scenarios/*.yaml, grammar in DESIGN.md §14) declares a fleet,
// a fault schedule, timed events and assertions; the scenario engine
// builds the whole stack — design → FBNet → generate → verify → deploy →
// monitor → reconcile (SIGCOMM '16, §5) — and runs it on a deterministic
// virtual clock. There is no other way to script a run.
//
//	robotron sim run [-realtime] [-v] [-journal] [-metrics-addr A] [-no-verify] <file>...
//	robotron sim validate <file>...
//	robotron sim list [dir]
//	robotron obs <alarms|timeline|series|jobs|reconcile> [-v] [file]
//
// Exit codes: 0 ok, 1 a drill failed, 2 a file is invalid or usage is
// wrong.
package main

import (
	"fmt"
	"io"
	"os"
)

const usage = `usage: robotron <noun> <verb> [flags] [args]

  sim run [flags] <file>...   execute drills (examples/scenarios/*.yaml)
  sim validate <file>...      static checking only
  sim list [dir]              enumerate the drills in a directory
  obs <view> [-v] [file]      replay a drill, print a view of the finished world
                              (alarms, timeline, series, jobs, reconcile)

Run "robotron sim" or "robotron obs" for the flags of each noun.
`

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run dispatches the noun groups; anything else is a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		switch args[0] {
		case "sim":
			return runSim(args[1:], stdout, stderr)
		case "obs":
			return runObs(args[1:], stdout, stderr)
		}
		fmt.Fprintf(stderr, "robotron: unknown noun %q\n", args[0])
	}
	fmt.Fprint(stderr, usage)
	return 2
}
