package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"github.com/robotron-net/robotron/internal/configgen"
)

// opRecord is one timed op of the closed loop.
type opRecord struct {
	kind   string
	wall   time.Duration
	traced bool
	failed bool
	work   int // work items the op completed: a change, remediated devices, successful polls
}

// harness drives one workload: a single client goroutine issuing ops one
// after the other against a world, timing each from outside, checking
// the outcome with oracles that do not use the code under test, and
// recording spans for the ops a traced run selects.
type harness struct {
	sz    sizes
	w     *world
	rng   *rand.Rand
	trace *tracer // nil when tracing is off

	setup        []time.Duration // one entry per world build
	provision    []time.Duration // core.ProvisionCluster calls during set-up
	ops          []opRecord
	script       []string // the generated op sequence, one line per op, warm-up included
	seenKind     map[string]int
	measured     map[string]bool // op kinds the latency percentiles are taken over; nil = all
	idle         time.Duration   // wall spent advancing the clock between ops
	failures     []string        // first few oracle failures, for the report
	failureCount int
	objects      int // FBNet objects touched by design changes
	// drained is the op generator's record of which devices it has
	// drained; nil where a workload drains nothing.
	drained map[string]bool

	base counters // taken when the timed section starts
}

// counters is a reading of the program's own counters.
type counters struct {
	gen     configgen.GenStats
	reg     map[string]float64 // registry values by name{labels}, and summed by bare name
	seq     uint64
	mgmtOps int64
	journal int
	mem     runtime.MemStats
}

func (h *harness) readCounters() counters {
	r := h.w.r
	c := counters{gen: r.Generator.Stats(), seq: r.Store.DB().Seq(), reg: map[string]float64{}}
	for _, m := range r.Telemetry.Snapshot() {
		if m.Kind != "counter" {
			continue
		}
		c.reg[m.Key()] = m.Value
		if len(m.Labels) > 0 {
			c.reg[m.Name] += m.Value
		}
	}
	for _, d := range r.Fleet.Devices() {
		c.mgmtOps += d.MgmtOps()
	}
	c.journal = r.Reconciler.Journal().Len()
	runtime.ReadMemStats(&c.mem)
	return c
}

// startTimed ends warm-up: ops from here on are measured.
func (h *harness) startTimed() {
	h.ops, h.idle, h.objects = nil, 0, 0
	h.seenKind = map[string]int{}
	h.trace.reset()
	runtime.GC()
	h.base = h.readCounters()
}

// op runs fn as one timed op of the given kind. In a traced run every
// other op of a kind records spans and goes through the stage-by-stage
// driver; the rest go through the production entry points, so the two
// halves interleave on the same world and their ratio is the tracing
// overhead. root names the op's root span.
//
// target is what the generator aimed the op at; kind and target together
// are the op's line in the script.
func (h *harness) op(kind, target, root string, fn func() error) {
	h.script = append(h.script, kind+" "+target)
	rec := opRecord{kind: kind}
	rec.traced = h.trace != nil && h.seenKind[kind]%2 == 0
	h.seenKind[kind]++
	h.trace.startOp(len(h.ops), rec.traced, root)
	start := time.Now()
	err := fn()
	rec.wall = time.Since(start)
	h.trace.endOp()
	h.ops = append(h.ops, rec)
	if err != nil {
		h.failf("%s: %v", kind, err)
	}
}

// worked records what the op that just ran got done.
func (h *harness) worked(items int) { h.ops[len(h.ops)-1].work = items }

// failf counts an oracle failure against the op that just ran (or, before
// the first op, against set-up).
func (h *harness) failf(format string, args ...any) {
	h.failureCount++
	msg := fmt.Sprintf(format, args...)
	if n := len(h.ops); n > 0 {
		h.ops[n-1].failed = true
		msg = fmt.Sprintf("op %d: %s", n-1, msg)
	}
	if len(h.failures) < 8 {
		h.failures = append(h.failures, msg)
	}
}

// advance moves the virtual clock between ops; whatever fires (sweeps,
// remediation timers) is part of the timed section but of no op.
func (h *harness) advance(d time.Duration) {
	start := time.Now()
	h.w.clk.Advance(d)
	h.idle += time.Since(start)
}

func (h *harness) failedOps() int {
	n := 0
	for _, o := range h.ops {
		if o.failed {
			n++
		}
	}
	return n
}

// timedSeconds is the timed section: every op plus the clock advances
// between them, without the harness's own oracle time.
func (h *harness) timedSeconds() float64 {
	total := h.idle
	for _, o := range h.ops {
		total += o.wall
	}
	return total.Seconds()
}

// walls returns the measured ops' wall times in ms, split by whether
// the op was traced.
func (h *harness) walls() (untraced, traced []float64) {
	for _, o := range h.ops {
		if h.measured != nil && !h.measured[o.kind] {
			continue
		}
		ms := float64(o.wall) / float64(time.Millisecond)
		if o.traced {
			traced = append(traced, ms)
		} else {
			untraced = append(untraced, ms)
		}
	}
	return
}

// --- sample statistics ---

// percentile is the nearest-rank p-th percentile (0 < p <= 100) of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func durMedianSeconds(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = d.Seconds()
	}
	return median(xs)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
