package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
)

// small shrinks every workload to a fleet of a few dozen devices and a
// handful of ops, so tier-1 covers the harness in seconds.
var small = map[string]sizes{
	"rack-churn":     {sites: 2, racks: 2, warmup: 1, ops: 6, setups: 1, serial: true},
	"backbone-churn": {routers: 9, circuits: 12, warmup: 1, ops: 20, setups: 1, serial: true},
	"drift-storm":    {sites: 2, racks: 2, storm: 13, warmup: 1, ops: 2, setups: 1, serial: true},
	"monitor-outage": {sites: 2, racks: 2, warmup: 1, ops: outagePeriod, setups: 1, serial: true},
}

func runSmall(t *testing.T, def workloadDef, seed int64, traced bool) *report {
	t.Helper()
	rep, err := runWorkload(def, small[def.name], seed, traced)
	if err != nil {
		t.Fatalf("%s seed %d traced %v: %v", def.name, seed, traced, err)
	}
	if rep.h.failureCount > 0 {
		t.Fatalf("%s seed %d traced %v: oracles failed: %v", def.name, seed, traced, rep.h.failures)
	}
	return rep
}

func metric(t *testing.T, rep *report, name string) float64 {
	t.Helper()
	for _, d := range perLayer {
		if d.name == name {
			return d.value(rep)
		}
	}
	t.Fatalf("no per-layer metric %q", name)
	return 0
}

// goldens maps every device to its golden config as the run left it.
func goldens(rep *report) map[string]string {
	out := map[string]string{}
	repo := rep.h.w.r.Repo
	for _, p := range repo.Paths() {
		if strings.HasPrefix(p, "golden/") {
			out[p], _ = repo.GetHead(p)
		}
	}
	return out
}

// The counts a later change may cite must repeat exactly: same seed,
// same op script, same work done by every layer. And the stage-by-stage
// driver must be the production pipeline in everything but its spans. One
// comparison pins both: a traced and an untraced run of one seed agree on
// the script, on every count, and on the golden of every device.
func TestRunsRepeat(t *testing.T) {
	for _, def := range workloads {
		def := def
		t.Run(def.name, func(t *testing.T) {
			t.Parallel() // the runs are independent worlds, and nothing here is timed
			testRunsRepeat(t, def)
		})
	}
}

func testRunsRepeat(t *testing.T, def workloadDef) {
	traced, plain := runSmall(t, def, 2, true), runSmall(t, def, 2, false)
	if !reflect.DeepEqual(traced.h.script, plain.h.script) {
		t.Errorf("seed 2 produced two different op scripts")
	}
	for _, name := range []string{
		"design.objects_per_change", "netsim.mgmt_ops_per_op", "relstore.binlog_entries_per_op",
		"reconcile.journal_events", "monitor.alarms_fired", "monitor.alarms_resolved",
	} {
		if x, y := metric(t, traced, name), metric(t, plain, name); x != y {
			t.Errorf("%s = %v traced, %v untraced, with the same seed", name, x, y)
		}
	}
	want, got := goldens(plain), goldens(traced)
	if len(want) == 0 {
		t.Fatalf("no goldens")
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("traced run's goldens differ from the untraced run's")
	}
	if cov := metric(t, traced, "trace.coverage"); cov < 0.9 {
		t.Errorf("spans cover %.2f of the traced ops' wall time, want at least 0.9", cov)
	}

	// Another seed, another script. (With the test's two sites the
	// outage order has only two values, so try a few seeds.)
	differs := false
	for seed := int64(3); seed < 7 && !differs; seed++ {
		differs = !reflect.DeepEqual(plain.h.script, runSmall(t, def, seed, false).h.script)
	}
	if !differs {
		t.Errorf("seeds 2 to 6 all produced the same op script")
	}
}

// BENCHMARK.json and the metric tables name the same things.
func TestBenchmarkFileMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit string
			Bound      float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(file.Paths, []string{"bench"}) {
		t.Errorf("paths = %v", file.Paths)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(file.Workloads), len(workloads))
	}
	for i, w := range file.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the harness", i, w.Name, workloads[i].name)
		}
	}
	type nu struct{ name, unit string }
	var wantE2E, gotE2E, wantLayer, gotLayer []nu
	for _, d := range endToEnd {
		wantE2E = append(wantE2E, nu{d.name, d.unit})
	}
	for _, m := range file.EndToEnd {
		gotE2E = append(gotE2E, nu{m.Name, m.Unit})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v", m.Name, m.Bound)
		}
	}
	for _, d := range perLayer {
		wantLayer = append(wantLayer, nu{d.name, d.unit})
	}
	for _, m := range file.PerLayer {
		gotLayer = append(gotLayer, nu{m.Name, m.Unit})
	}
	if !reflect.DeepEqual(wantE2E, gotE2E) {
		t.Errorf("end_to_end: harness has %v, BENCHMARK.json has %v", wantE2E, gotE2E)
	}
	if !reflect.DeepEqual(wantLayer, gotLayer) {
		t.Errorf("per_layer: harness has %v, BENCHMARK.json has %v", wantLayer, gotLayer)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([12, 3, 7, 9, 1, 15, 4, 8, 10, 6], n=4)
	q1, q2, q3 := quartiles([]float64{12, 3, 7, 9, 1, 15, 4, 8, 10, 6})
	for i, pair := range [][2]float64{{q1, 3.75}, {q2, 7.5}, {q3, 10.5}} {
		if math.Abs(pair[0]-pair[1]) > 1e-9 {
			t.Errorf("quartile %d = %v, want %v", i+1, pair[0], pair[1])
		}
	}
}

func TestVerdict(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	slower := []float64{115, 116, 114, 115, 117, 113, 115, 116, 114, 115}
	noisy := []float64{80, 130, 95, 120, 70, 140, 100, 110, 90, 125}
	for _, tc := range []struct {
		name         string
		old, new     []float64
		higherBetter bool
		want         string
	}{
		{"same", steady, steady, false, "ok"},
		{"latency up 15%", steady, slower, false, "REGRESSED"},
		{"latency down", slower, steady, false, "ok"},
		{"throughput down", slower, steady, true, "REGRESSED"},
		{"too noisy to tell", steady, noisy, false, "unresolved"},
	} {
		if _, got := verdict(tc.old, tc.new, tc.higherBetter, 0.10); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}
