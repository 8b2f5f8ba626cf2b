package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

// runRecord is one line of a results file: the driver's line plus which
// run produced it.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	result
}

// benchmarkFile is the part of BENCHMARK.json compare needs.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readRuns(path string) ([]runRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []runRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec runRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, rec)
	}
	return out, sc.Err()
}

// quartiles are Q1, the median and Q3 as Python's
// statistics.quantiles(xs, n=4) computes them (the exclusive method),
// which is what the driver uses.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// verdict compares one (metric, workload) pair: the share by which new's
// median is worse than old's against the bound, unless either side's own
// quartile spread is wider than the bound, in which case the runs cannot
// tell.
func verdict(old, new []float64, higherBetter bool, bound float64) (worse float64, word string) {
	oq1, om, oq3 := quartiles(old)
	nq1, nm, nq3 := quartiles(new)
	if om == 0 {
		return 0, "unresolved"
	}
	worse = (nm - om) / om
	if higherBetter {
		worse = -worse
	}
	spread := (oq3 - oq1) / om
	if nm != 0 && (nq3-nq1)/nm > spread {
		spread = (nq3 - nq1) / nm
	}
	switch {
	case spread > bound:
		return worse, "unresolved"
	case worse > bound:
		return worse, "REGRESSED"
	}
	return worse, "ok"
}

// compareMain implements `bench compare old.json new.json`: per
// (workload, end-to-end metric), the median of each file's runs, the
// change against BENCHMARK.json's bound, "unresolved" when the runs' own
// spread exceeds that bound. Exit 1 on a regression or a failed run.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	benchmark := fs.String("benchmark", "BENCHMARK.json", "the benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare [-benchmark BENCHMARK.json] <old.json> <new.json>")
		return 2
	}
	raw, err := os.ReadFile(*benchmark)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	var def benchmarkFile
	if err := json.Unmarshal(raw, &def); err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", *benchmark+":", err)
		return 2
	}
	var sides [2][]runRecord
	for i, path := range fs.Args() {
		if sides[i], err = readRuns(path); err != nil {
			fmt.Fprintln(os.Stderr, "bench compare:", err)
			return 2
		}
	}
	exit := 0
	values := func(runs []runRecord, workload, metric string) []float64 {
		var out []float64
		for _, r := range runs {
			if m, ok := r.Metrics[metric]; ok && r.Workload == workload {
				out = append(out, m.Value)
			}
		}
		return out
	}
	for _, runs := range sides {
		for _, r := range runs {
			if !r.Correct {
				fmt.Printf("FAILED RUN  %s seed %d: %d of %d ops failed\n", r.Workload, r.Seed, r.Failed, r.Attempted)
				exit = 1
			}
		}
	}
	fmt.Printf("%-16s %-22s %5s %12s %12s %8s %7s  %s\n", "workload", "metric", "runs", "old median", "new median", "worse", "bound", "verdict")
	for _, wl := range workloads {
		for _, m := range def.EndToEnd {
			old, new := values(sides[0], wl.name, m.Name), values(sides[1], wl.name, m.Name)
			if len(old) == 0 || len(new) == 0 {
				continue
			}
			worse, word := verdict(old, new, m.Better == "higher", m.Bound)
			_, om, _ := quartiles(old)
			_, nm, _ := quartiles(new)
			fmt.Printf("%-16s %-22s %2d/%-2d %12.4f %12.4f %+7.1f%% %6.0f%%  %s\n",
				wl.name, m.Name, len(old), len(new), om, nm, 100*worse, 100*m.Bound, word)
			if word == "REGRESSED" {
				exit = 1
			}
		}
	}
	return exit
}
