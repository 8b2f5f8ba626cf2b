package main

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"
)

// metricDef names one reported number; BENCHMARK.json carries the same
// names, units and directions, and bench_test.go holds the two together.
type metricDef struct {
	name, unit string
	value      func(*report) float64
}

// report is everything a finished run knows, from which every metric is
// read off.
type report struct {
	h      *harness
	end    counters
	heapMB float64
	times  map[int]*opTimes // traced ops only
	jobs   int
	rules  int
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the driver reads.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// finish closes the timed section: a forced GC for the live heap, a last
// reading of the program's counters, and the span analysis.
func (h *harness) finish() *report {
	runtime.GC()
	runtime.GC()
	rep := &report{h: h, end: h.readCounters()}
	rep.heapMB = float64(rep.end.mem.HeapAlloc) / (1 << 20)
	if h.trace != nil {
		rep.times = h.trace.analyse()
	}
	rep.jobs = len(h.w.r.JobManager.Jobs())
	rep.rules = len(h.w.r.Alarms.Rules())
	return rep
}

// --- helpers the metric table reads through ---

const ms = float64(time.Millisecond)

// delta is how far a registry counter moved over the timed section.
func (r *report) delta(key string) float64 { return r.end.reg[key] - r.h.base.reg[key] }

func (r *report) perOp(x float64) float64 { return ratio(x, float64(len(r.h.ops))) }

// tracedOps lists the indexes of traced ops, optionally of some kinds.
func (r *report) tracedOps(kinds map[string]bool) []int {
	var out []int
	for i, o := range r.h.ops {
		if o.traced && (kinds == nil || kinds[o.kind]) {
			out = append(out, i)
		}
	}
	return out
}

// stageMS collects, per traced op of the given kinds, the ms the named
// spans were busy (self: without their children). Ops in which the
// stage never ran are left out, so a stage's median is over the ops
// that have it.
func (r *report) stageMS(kinds map[string]bool, self bool, names ...string) []float64 {
	var out []float64
	for _, i := range r.tracedOps(kinds) {
		ot := r.times[i]
		if ot == nil {
			continue
		}
		var total int64
		seen := false
		for _, n := range names {
			src := ot.busy
			if self {
				src = ot.self
			}
			if v, ok := src[n]; ok {
				total += v
				seen = true
			}
		}
		if seen {
			out = append(out, float64(total)/ms)
		}
	}
	return out
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

var meshKinds = map[string]bool{opMeshAdd: true, opMeshRemove: true}

// stageP50 is the median over the traced ops of the given kinds (nil: all)
// of the ms the named spans were busy, or of their self time.
func stageP50(kinds map[string]bool, self bool, names ...string) func(*report) float64 {
	return func(r *report) float64 { return median(r.stageMS(kinds, self, names...)) }
}

// tracedWork counts the work items of the traced ops of the given kinds.
func (r *report) tracedWork(kinds map[string]bool) float64 {
	n := 0
	for _, i := range r.tracedOps(kinds) {
		n += r.h.ops[i].work
	}
	return float64(n)
}

var stormKinds = map[string]bool{opStormRogue: true, opStormCut: true}

// perRemediation spreads a stage's total over the traced storms' devices.
func perRemediation(self bool, names ...string) func(*report) float64 {
	return func(r *report) float64 {
		return ratio(sum(r.stageMS(stormKinds, self, names...)), r.tracedWork(stormKinds))
	}
}

func counter(key string) func(*report) float64 {
	return func(r *report) float64 { return r.delta(key) }
}

func (r *report) coverage() float64 {
	var covered, wall float64
	for _, ot := range r.times {
		covered += float64(ot.wall - ot.self[ot.root])
		wall += float64(ot.wall)
	}
	return ratio(covered, wall)
}

func (r *report) meshWalls() []float64 {
	var out []float64
	for _, o := range r.h.ops {
		if meshKinds[o.kind] {
			out = append(out, float64(o.wall)/ms)
		}
	}
	return out
}

// endToEnd is what a user of the system would see; measured with
// tracing off. Every workload reports every one of them: the op is a
// design change in the churn workloads, a drift storm in drift-storm and
// a monitoring cycle in monitor-outage, and the work items are changes,
// remediated devices and successful polls.
var endToEnd = []metricDef{
	{"setup_s", "s", func(r *report) float64 { return durMedianSeconds(r.h.setup) }},
	{"op_converged_ms_p50", "ms", func(r *report) float64 { un, _ := r.h.walls(); return percentile(un, 50) }},
	{"op_converged_ms_p90", "ms", func(r *report) float64 { un, _ := r.h.walls(); return percentile(un, 90) }},
	{"work_per_s", "1/s", func(r *report) float64 {
		work := 0
		for _, o := range r.h.ops {
			work += o.work
		}
		return ratio(float64(work), r.h.timedSeconds())
	}},
	{"live_heap_mb", "MB", func(r *report) float64 { return r.heapMB }},
}

// perLayer is the traced run's attribution: layer = package name.
var perLayer = []metricDef{
	{"design.change_ms_p50", "ms", stageP50(nil, false, "design.change")},
	{"design.objects_per_change", "count", func(r *report) float64 { return r.perOp(float64(r.h.objects)) }},
	{"core.sync_fleet_ms_p50", "ms", stageP50(nil, false, "core.sync_fleet")},
	{"core.provision_cluster_ms_p50", "ms", func(r *report) float64 { return durMedianSeconds(r.h.provision) * 1000 }},
	{"configgen.generate_ms_p50", "ms", stageP50(nil, false, "configgen.generate")},
	{"configgen.mesh_generate_ms_p50", "ms", stageP50(meshKinds, false, "configgen.generate")},
	{"configgen.derive_hit_ratio", "ratio", func(r *report) float64 {
		hits := float64(r.end.gen.DeriveHits - r.h.base.gen.DeriveHits)
		return ratio(hits, hits+float64(r.end.gen.Derives-r.h.base.gen.Derives))
	}},
	{"configgen.render_hit_ratio", "ratio", func(r *report) float64 {
		hits := float64(r.end.gen.RenderHits - r.h.base.gen.RenderHits)
		return ratio(hits, hits+float64(r.end.gen.Renders-r.h.base.gen.Renders))
	}},
	{"configgen.golden_ms_per_device", "ms", perRemediation(false, "configgen.golden")},
	{"verify.check_ms_p50", "ms", stageP50(nil, false, "verify.check")},
	{"verify.violations", "count", counter("robotron_verify_violations_total")},
	{"revctl.commit_golden_ms_p50", "ms", stageP50(nil, false, "revctl.commit_golden")},
	{"audit.record_ms_p50", "ms", stageP50(nil, false, "audit.record")},
	{"deploy.deploy_ms_p50", "ms", stageP50(nil, false, "deploy.deploy")},
	{"deploy.self_ms_p50", "ms", stageP50(nil, true, "deploy.deploy")},
	{"deploy.mesh_deploy_ms_p50", "ms", stageP50(meshKinds, false, "deploy.deploy")},
	{"deploy.mesh_self_ms_p50", "ms", stageP50(meshKinds, true, "deploy.deploy")},
	{"deploy.commits", "count", counter(`robotron_deploy_commits_total{result="ok"}`)},
	{"deploy.failed", "count", counter(`robotron_deploy_commits_total{result="failed"}`)},
	{"deploy.remediate_ms_per_device", "ms", perRemediation(false, "deploy.deploy")},
	{"netsim.mgmt_ms_p50", "ms", stageP50(nil, true, "netsim.mgmt")},
	{"netsim.mesh_mgmt_ms_p50", "ms", stageP50(meshKinds, true, "netsim.mgmt")},
	{"netsim.mgmt_ops_per_op", "count", func(r *report) float64 { return r.perOp(float64(r.end.mgmtOps - r.h.base.mgmtOps)) }},
	{"monitor.derive_jobs_ms_p50", "ms", stageP50(nil, false, "monitor.derive_jobs")},
	{"monitor.observe_affected_ms_p50", "ms", stageP50(nil, false, "monitor.observe_affected")},
	{"monitor.syslog_check_ms_p50", "ms", stageP50(nil, false, "monitor.syslog")},
	{"monitor.mesh_syslog_check_ms_p50", "ms", stageP50(meshKinds, false, "monitor.syslog")},
	{"monitor.check_ms_per_device", "ms", perRemediation(false, "monitor.check_device", "monitor.syslog")},
	{"monitor.check_errors", "count", counter("robotron_monitor_check_errors_total")},
	{"monitor.collect_ms_p50", "ms", stageP50(nil, false, "monitor.collect")},
	{"monitor.poll_us_mean", "us", func(r *report) float64 {
		return ratio(sum(r.stageMS(nil, false, "monitor.collect"))*1000, r.tracedWork(nil))
	}},
	{"monitor.derive_circuits_ms_p50", "ms", stageP50(nil, false, "monitor.derive_circuits")},
	{"monitor.polls_refused", "count", counter("robotron_monitor_poll_errors_total")},
	{"monitor.jobs", "count", func(r *report) float64 { return float64(r.jobs) }},
	{"monitor.rules", "count", func(r *report) float64 { return float64(r.rules) }},
	{"monitor.alarm_eval_ms_p50", "ms", stageP50(nil, false, "monitor.alarm_eval")},
	{"monitor.timeline_query_ms_p50", "ms", stageP50(nil, false, "monitor.timeline_query")},
	{"monitor.alarms_fired", "count", counter("robotron_alarms_fired_total")},
	{"monitor.alarms_resolved", "count", counter("robotron_alarms_resolved_total")},
	{"reconcile.verify_devices_ms_p50", "ms", stageP50(nil, false, "reconcile.verify_devices")},
	{"reconcile.self_ms_per_device", "ms", perRemediation(true, "reconcile.converge")},
	{"reconcile.journal_events", "count", func(r *report) float64 { return float64(r.end.journal - r.h.base.journal) }},
	{"reconcile.max_active", "count", func(r *report) float64 { return float64(r.h.w.r.Reconciler.Journal().MaxActive()) }},
	{"fbnet.queries_per_op", "count", func(r *report) float64 { return r.perOp(r.delta("robotron_fbnet_queries_planned_total")) }},
	{"fbnet.scan_ratio", "ratio", func(r *report) float64 {
		return ratio(r.delta(`robotron_fbnet_queries_planned_total{strategy="scan"}`), r.delta("robotron_fbnet_queries_planned_total"))
	}},
	{"fbnet.affected_query_ms_p50", "ms", stageP50(nil, false, "fbnet.affected_query")},
	{"relstore.tx_commits_per_op", "count", func(r *report) float64 { return r.perOp(r.delta("robotron_relstore_tx_commits_total")) }},
	{"relstore.binlog_entries_per_op", "count", func(r *report) float64 { return r.perOp(float64(r.end.seq - r.h.base.seq)) }},
	{"runtime.alloc_mb_per_op", "MB", func(r *report) float64 {
		return r.perOp(float64(r.end.mem.TotalAlloc-r.h.base.mem.TotalAlloc) / (1 << 20))
	}},
	{"runtime.gc_cycles", "count", func(r *report) float64 { return float64(r.end.mem.NumGC - r.h.base.mem.NumGC) }},
	{"runtime.gc_pause_ms_total", "ms", func(r *report) float64 {
		return float64(r.end.mem.PauseTotalNs-r.h.base.mem.PauseTotalNs) / ms
	}},
	{"trace.coverage", "ratio", (*report).coverage},
	{"trace.overhead_ratio", "ratio", func(r *report) float64 {
		un, tr := r.h.walls()
		return ratio(percentile(tr, 50), percentile(un, 50))
	}},
	// What the untraced run reports end to end, seen again here so a
	// traced run can be read on its own; and the two numbers the
	// contract's one-set-of-names-for-every-workload rule keeps out of
	// the end-to-end list.
	{"bench.op_converged_ms_p50", "ms", func(r *report) float64 { un, tr := r.h.walls(); return percentile(append(un, tr...), 50) }},
	{"bench.mesh_change_converged_ms_p50", "ms", func(r *report) float64 { return percentile(r.meshWalls(), 50) }},
	{"bench.ops_failed_ratio", "ratio", func(r *report) float64 { return r.perOp(float64(r.h.failedOps())) }},
	{"bench.ops", "count", func(r *report) float64 { return float64(len(r.h.ops)) }},
	{"bench.timed_section_s", "s", func(r *report) float64 { return r.h.timedSeconds() }},
}

// result evaluates the metric table.
func (r *report) result(defs []metricDef) result {
	res := result{
		Attempted: len(r.h.ops), Failed: r.h.failedOps(),
		Metrics: make(map[string]metricValue, len(defs)),
	}
	res.Correct = res.Failed == 0 && r.h.failureCount == 0
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{Value: d.value(r), Unit: d.unit}
	}
	return res
}

// emit prints every metric by name and unit, what the run did, and last
// the driver's line.
func (r *report) emit(w io.Writer, defs []metricDef, res result) error {
	for _, d := range defs {
		fmt.Fprintf(w, "%-40s %14.4f %s\n", d.name, res.Metrics[d.name].Value, d.unit)
	}
	kinds := map[string]int{}
	for _, o := range r.h.ops {
		kinds[o.kind]++
	}
	var mix []string
	for k, n := range kinds {
		mix = append(mix, fmt.Sprintf("%s=%d", k, n))
	}
	sort.Strings(mix)
	fmt.Fprintf(w, "ops: %d %v, failed %d, timed section %.2fs (%.2fs between ops)\n",
		len(r.h.ops), mix, res.Failed, r.h.timedSeconds(), r.h.idle.Seconds())
	for _, f := range r.h.failures {
		fmt.Fprintln(w, "FAILED", f)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
