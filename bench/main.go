// Command bench is the repository's benchmark of record: it builds a
// real core.Robotron on a virtual clock, drives it through its
// production entry points from one closed-loop client goroutine, checks
// every outcome, and prints every metric by name and unit.
//
//	go run ./bench -workload rack-churn -seed 1 -seconds 20 -trace 0
//	go run ./bench compare old.json new.json
//
// README.md in this directory is the manual.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/robotron-net/robotron/internal/monitor"
)

// sizes fixes a workload's world and op counts.
type sizes struct {
	sites, racks      int // DC world: sites × DCGen3(racks)
	routers, circuits int // backbone world
	storm             int // devices drifted per drift-storm round
	warmup, ops       int
	setups            int // world builds per run; setup_s is their median
	// serial runs generation and deployment one device at a time instead
	// of with core's worker-pool defaults. Only the determinism test sets
	// it: with concurrent commits the simulated network settles through
	// interleavings that differ run to run, and so do a few counts.
	serial bool
}

// workloadDef is one entry of the benchmark: how its op count follows
// from the run length, and what drives it.
type workloadDef struct {
	name string
	// size turns --seconds into op counts. The rates were calibrated at
	// the commit that introduced the benchmark so that the timed section
	// takes about --seconds on a 2-core box; the counts, not the clock,
	// end a run, so two commits are always compared on identical work.
	size func(seconds int) sizes
	run  func(*harness) error
}

// dc is the 512-device world three of the workloads share.
func dc(warmup, ops int) sizes {
	return sizes{sites: 8, racks: 40, storm: 128, warmup: warmup, ops: ops, setups: 1}
}

var workloads = []workloadDef{
	{"rack-churn", func(s int) sizes { return dc(4, max(10, 3*s)) }, (*harness).rackChurn},
	{"backbone-churn", func(s int) sizes {
		return sizes{routers: 48, circuits: 96, warmup: 10, ops: max(20, 8*s), setups: 5}
	}, (*harness).backboneChurn},
	{"drift-storm", func(s int) sizes { return dc(2, max(4, 14*s/10)) }, (*harness).driftStorm},
	{"monitor-outage", func(s int) sizes { return dc(2, outagePeriod*max(1, 3*s/20)) }, (*harness).monitorOutage},
}

// build constructs the world sz.setups times, timing each build, keeps
// the last, and holds it to the pre-timing gate.
func (h *harness) build(mk func() (*world, error)) error {
	for i := 0; i < h.sz.setups; i++ {
		h.w = nil
		runtime.GC()
		start := time.Now()
		w, err := mk()
		if err != nil {
			return err
		}
		h.setup = append(h.setup, time.Since(start))
		h.w = w
	}
	// The pre-timing gate: every fleet device runs exactly its golden.
	h.checkGolden(monitor.SortedDeviceNames(h.w.r.Fleet))
	if h.failureCount > 0 {
		return fmt.Errorf("set-up did not converge: %s", h.failures[0])
	}
	if h.trace != nil {
		r := h.w.r
		r.Deployer.Resolve = h.trace.wrapResolver(r.Deployer.Resolve)
		for _, d := range r.Fleet.Devices() {
			h.trace.wrapSink(d, r.Classifier)
		}
	}
	return nil
}

// wrapSinks covers devices that joined the fleet after the build.
func (h *harness) wrapSinks(devices []string) {
	if h.trace == nil {
		return
	}
	for _, name := range devices {
		if d, ok := h.w.r.Fleet.Device(name); ok {
			h.trace.wrapSink(d, h.w.r.Classifier)
		}
	}
}

// setupRNG is the stream world builders draw topology from. It does not
// depend on the seed: every run starts from the same world, and the seed
// decides what happens to it.
func setupRNG() *rand.Rand { return rand.New(rand.NewSource(0x5eed)) }

// runWorkload is one whole run: set-up, warm-up, timed section, report.
func runWorkload(def workloadDef, sz sizes, seed int64, traced bool) (*report, error) {
	h := &harness{sz: sz, rng: rand.New(rand.NewSource(seed)), seenKind: map[string]int{}}
	if traced {
		h.trace = newTracer()
	}
	if err := def.run(h); err != nil {
		return nil, err
	}
	return h.finish(), nil
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	workload := flag.String("workload", "", "rack-churn, backbone-churn, drift-storm or monitor-outage")
	seed := flag.Int64("seed", 1, "seed of the op generator")
	seconds := flag.Int("seconds", 20, "run length the op counts are sized for")
	trace := flag.Int("trace", 0, "1: record spans and report the per-layer metrics instead of the end-to-end ones")
	out := flag.String("out", "", "directory for the result (and trace) files; default: none written")
	flag.Parse()

	var def *workloadDef
	for i := range workloads {
		if workloads[i].name == *workload {
			def = &workloads[i]
		}
	}
	if def == nil || *seconds < 1 || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "usage: bench -workload <name> -seed <n> -seconds <s> -trace <0|1> [-out <dir>]")
		fmt.Fprintln(os.Stderr, "       bench compare <old.json> <new.json>")
		os.Exit(2)
	}
	rep, err := runWorkload(*def, def.size(*seconds), *seed, *trace != 0)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	defs := endToEnd
	if *trace != 0 {
		defs = perLayer
	}
	res := rep.result(defs)
	if *out != "" {
		err = writeFiles(*out, runRecord{Workload: def.name, Seed: *seed, result: res}, rep.h.trace)
	}
	if err == nil {
		err = rep.emit(os.Stdout, defs, res)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// writeFiles appends the run's record to <dir>/results.json, the file
// compare reads, and dumps a traced run's spans next to it.
func writeFiles(dir string, rec runRecord, t *tracer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if t != nil {
		if err := t.writeFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d.trace.json", rec.Workload, rec.Seed))); err != nil {
			return err
		}
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(dir, "results.json"), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
