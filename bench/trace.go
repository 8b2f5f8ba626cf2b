package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/robotron-net/robotron/internal/deploy"
	"github.com/robotron-net/robotron/internal/monitor"
	"github.com/robotron-net/robotron/internal/netsim"
)

// span is one timed call from the harness into a layer's public
// function. Name is "<layer>.<call>"; spans of one op share Op; Parent
// is the index of the span that caused this one, -1 for an op's root.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. The client goroutine
// opens and closes spans in stack order (begin/end); work the program
// fans out to its own goroutines (device management verbs from deploy's
// worker pool, the syslog sink) records through beginAsync/endAsync and
// hangs off whatever the client has open at that moment.
//
// A nil *tracer is the untraced run: every method is a no-op.
type tracer struct {
	t0 time.Time

	mu     sync.Mutex
	spans  []span
	stack  []int // open client spans, innermost last
	op     int   // current op id
	active bool  // whether the current op records spans
	devs   map[string]*devTrace
}

// devTrace links a device's syslog sink to the management verb that
// made the device emit: verbs on one device are serial, so one slot
// suffices. Zero means no verb is open (span indexes are stored +1).
type devTrace struct {
	mgmt atomic.Int64
	sink atomic.Bool // the device's syslog sink is already wrapped
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), devs: make(map[string]*devTrace)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// reset drops the warm-up's spans.
func (t *tracer) reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans, t.stack = nil, nil
	t.mu.Unlock()
}

// startOp opens op id's root span when record is set; with record unset
// the op runs through the production entry points and leaves no spans.
func (t *tracer) startOp(id int, record bool, name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.op, t.active = id, record
	t.mu.Unlock()
	if record {
		t.begin(name)
	}
}

// endOp closes the root span opened by startOp.
func (t *tracer) endOp() {
	if t == nil || !t.on() {
		return
	}
	t.mu.Lock()
	root := t.stack[0]
	t.mu.Unlock()
	t.end(root)
	t.mu.Lock()
	t.active = false
	t.mu.Unlock()
}

// on reports whether the current op records spans.
func (t *tracer) on() bool {
	if t == nil {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.active
}

// begin opens a span under the client's innermost open span.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.active {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Op: t.op, Parent: parent, Start: t.now()})
	t.stack = append(t.stack, id)
	return id
}

// end closes a span opened by begin (and anything left open inside it).
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = t.now()
	for n := len(t.stack); n > 0 && t.stack[n-1] >= id; n-- {
		t.stack = t.stack[:n-1]
	}
}

// stage times fn as one client span.
func (t *tracer) stage(name string, fn func() error) error {
	id := t.begin(name)
	err := fn()
	t.end(id)
	return err
}

// beginAsync opens a span from any goroutine; parent < 0 hangs it off
// the client's innermost open span.
func (t *tracer) beginAsync(name string, parent int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.active {
		return -1
	}
	if parent < 0 {
		if n := len(t.stack); n > 0 {
			parent = t.stack[n-1]
		}
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Op: t.op, Parent: parent, Start: t.now()})
	return id
}

func (t *tracer) endAsync(id int) {
	if id < 0 {
		return
	}
	t.mu.Lock()
	t.spans[id].End = t.now()
	t.mu.Unlock()
}

func (t *tracer) dev(name string) *devTrace {
	t.mu.Lock()
	defer t.mu.Unlock()
	d := t.devs[name]
	if d == nil {
		d = &devTrace{}
		t.devs[name] = d
	}
	return d
}

// wrapResolver times every management verb the deployer issues: netsim
// is reached only through deploy.Targets, so this is the netsim layer
// seen from outside.
func (t *tracer) wrapResolver(inner deploy.Resolver) deploy.Resolver {
	return func(name string) (deploy.Target, error) {
		tg, err := inner(name)
		if err != nil || !t.on() {
			return tg, err
		}
		return &timedTarget{Target: tg, t: t, dev: t.dev(name)}, nil
	}
}

// wrapSink re-points a device's syslog sink at the same classifier core
// wired it to, through a span: a commit's CONFIG_CHANGED message makes
// the config monitor check the device before Commit returns, and without
// this that monitor work would read as netsim time. Wrapping is once per
// device and outlives the op: an untraced op passes straight through.
func (t *tracer) wrapSink(d *netsim.Device, cls *monitor.Classifier) {
	dt := t.dev(d.Name())
	if dt.sink.Swap(true) {
		return
	}
	d.SetSyslogSink(func(m netsim.SyslogMessage) {
		id := t.beginAsync("monitor.syslog", int(dt.mgmt.Load())-1)
		cls.Process(m)
		t.endAsync(id)
	})
}

// timedTarget records one netsim.mgmt span per management verb.
type timedTarget struct {
	deploy.Target
	t   *tracer
	dev *devTrace
}

func (tt *timedTarget) verb(fn func() error) error {
	id := tt.t.beginAsync("netsim.mgmt", -1)
	tt.dev.mgmt.Store(int64(id) + 1)
	err := fn()
	tt.dev.mgmt.Store(0)
	tt.t.endAsync(id)
	return err
}

func (tt *timedTarget) RunningConfig() (cfg string, err error) {
	err = tt.verb(func() (e error) { cfg, e = tt.Target.RunningConfig(); return })
	return
}

func (tt *timedTarget) DryrunDiff() (diff string, err error) {
	err = tt.verb(func() (e error) { diff, e = tt.Target.DryrunDiff(); return })
	return
}

func (tt *timedTarget) LoadConfig(cfg string) error {
	return tt.verb(func() error { return tt.Target.LoadConfig(cfg) })
}
func (tt *timedTarget) DiscardCandidate() error { return tt.verb(tt.Target.DiscardCandidate) }
func (tt *timedTarget) Commit() error           { return tt.verb(tt.Target.Commit) }
func (tt *timedTarget) Confirm() error          { return tt.verb(tt.Target.Confirm) }
func (tt *timedTarget) Rollback() error         { return tt.verb(tt.Target.Rollback) }
func (tt *timedTarget) EraseConfig() error      { return tt.verb(tt.Target.EraseConfig) }
func (tt *timedTarget) CommitConfirmed(grace time.Duration) error {
	return tt.verb(func() error { return tt.Target.CommitConfirmed(grace) })
}

// writeFile dumps every span as one JSON array.
func (t *tracer) writeFile(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(t.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// --- analysis ---

type interval struct{ lo, hi int64 }

// unionLen is the total length covered by the intervals.
func unionLen(xs []interval) int64 {
	sort.Slice(xs, func(i, j int) bool { return xs[i].lo < xs[j].lo })
	var total, hi int64
	first := true
	for _, x := range xs {
		if first || x.lo > hi {
			total += x.hi - x.lo
			hi, first = x.hi, false
		} else if x.hi > hi {
			total += x.hi - hi
			hi = x.hi
		}
	}
	return total
}

// opTimes is what one traced op's spans add up to.
type opTimes struct {
	root string           // root span name
	wall int64            // root span duration
	busy map[string]int64 // span name → length of the union of its spans
	self map[string]int64 // span name → busy minus what its child spans cover
}

// analyse folds the spans into per-op times. Spans of one name may run
// in parallel (management verbs across deploy's workers), so a name's
// time in an op is the union of its intervals, and its self time
// subtracts the union of its children clipped to their parents.
func (t *tracer) analyse() map[int]*opTimes {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()

	type key struct {
		op   int
		name string
	}
	own := make(map[key][]interval)
	kids := make(map[key][]interval)
	out := make(map[int]*opTimes)
	for _, s := range spans {
		ot := out[s.Op]
		if ot == nil {
			ot = &opTimes{busy: map[string]int64{}, self: map[string]int64{}}
			out[s.Op] = ot
		}
		if s.Parent < 0 {
			ot.root, ot.wall = s.Name, s.End-s.Start
		}
		own[key{s.Op, s.Name}] = append(own[key{s.Op, s.Name}], interval{s.Start, s.End})
		if s.Parent >= 0 {
			p := spans[s.Parent]
			lo, hi := s.Start, s.End
			if lo < p.Start {
				lo = p.Start
			}
			if hi > p.End {
				hi = p.End
			}
			if hi > lo {
				kids[key{s.Op, p.Name}] = append(kids[key{s.Op, p.Name}], interval{lo, hi})
			}
		}
	}
	for k, xs := range own {
		busy := unionLen(xs)
		out[k.op].busy[k.name] = busy
		out[k.op].self[k.name] = busy - unionLen(kids[k])
	}
	return out
}
