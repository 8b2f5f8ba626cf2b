package reconcile

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"github.com/robotron-net/robotron/internal/deploy"
	"github.com/robotron-net/robotron/internal/monitor"
	"github.com/robotron-net/robotron/internal/vclock"
)

// serialOrder renders a journal as the serial loop (Parallelism 1) writes
// it: every remediate event moved to just before the device's next event,
// without sequence numbers and in-flight counts. A window admits devices
// early and nothing else, so this is the serial run's rendering too.
func serialOrder(events []Event) string {
	var b strings.Builder
	held := map[string]*Event{}
	line := func(e *Event) {
		fmt.Fprintf(&b, "%s %s %s %s %s due=%s\n", e.At.Format(time.RFC3339), e.Type, e.Device, e.Shard, e.Detail, e.FireAt.Format(time.RFC3339))
	}
	for i := range events {
		e := &events[i]
		if e.Type == EvRemediate {
			held[e.Device] = e
			continue
		}
		if r := held[e.Device]; r != nil && e.Device != "" {
			line(r)
			delete(held, e.Device)
		}
		line(e)
	}
	for _, r := range held {
		fmt.Fprintf(&b, "unsettled: ")
		line(r)
	}
	return b.String()
}

// windowDevices is the storm histories' fleet: four shards of six.
var windowDevices = func() []string {
	var out []string
	for _, sh := range []string{"a", "b", "c", "d"} {
		for i := 1; i <= 6; i++ {
			out = append(out, fmt.Sprintf("psw%d.%s-c1", i, sh))
		}
	}
	return out
}()

// windowWorld is a fakeWorld whose deployer and checker can report a
// check error through HandleCheckError from inside a remediation, as a
// commit's syslog does in production: before the health check (an error
// on the next deploy) or during it (an error on the next health check).
// jitter > 0 sleeps up to that long in every deploy, to shake the
// window's goroutines.
type windowWorld struct {
	*fakeWorld
	rec                   *Reconciler
	deployErrs, checkErrs map[string]int
	jitter                time.Duration
}

func (w *windowWorld) take(counter map[string]int, d string) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if counter[d] == 0 {
		return false
	}
	counter[d]--
	return true
}

func (w *windowWorld) deployer(clk vclock.Clock) ConfigDeployer {
	inner := w.deployClock(clk)
	return deployerFunc(func(configs map[string]string, o deploy.Options) (deploy.Report, error) {
		if w.jitter > 0 {
			time.Sleep(time.Duration(rand.Int63n(int64(w.jitter))))
		}
		for name := range configs {
			if w.take(w.deployErrs, name) {
				w.rec.HandleCheckError(name, errors.New("syslog-triggered check: unreachable"))
			}
		}
		return inner(configs, o)
	})
}

func (w *windowWorld) CheckDevice(device string) (*monitor.Deviation, error) {
	if w.take(w.checkErrs, device) {
		w.rec.HandleCheckError(device, errors.New("syslog-triggered check: timed out"))
	}
	return w.fakeWorld.CheckDevice(device)
}

// stormHistory is a seeded history over windowDevices: storms that drift
// several devices of several shards at one instant, single drifts,
// permanent and transport deploy failures, check errors reported from
// inside remediations, breaker resets with paced drain, releases and
// clock advances, under a budget from 1 to 8 or an open one.
type stormHistory struct {
	cfg   Config
	steps []func(w *windowWorld, r *Reconciler, clk *vclock.VirtualClock)
}

func randomStormHistory(seed int64) stormHistory {
	rng := rand.New(rand.NewSource(seed))
	between := func(lo, hi int) int { return lo + rng.Intn(hi-lo+1) }
	h := stormHistory{cfg: Config{
		BackoffBase:       time.Second,
		BudgetMaxDevices:  between(1, 8),
		BudgetMaxFraction: 1,
		DampingThreshold:  -1,
		MaxAttempts:       between(2, 5),
		MaxCheckRetries:   between(1, 3),
	}}
	if rng.Intn(4) == 0 {
		h.cfg.BudgetMaxDevices = len(windowDevices)
	}
	if rng.Intn(2) == 0 {
		h.cfg.DampingThreshold = between(2, 4)
	}
	if rng.Intn(2) == 0 {
		h.cfg.SweepInterval = time.Duration(between(30, 90)) * time.Second
	}
	pick := func() string { return windowDevices[rng.Intn(len(windowDevices))] }
	add := func(f func(w *windowWorld, r *Reconciler, clk *vclock.VirtualClock)) { h.steps = append(h.steps, f) }
	for n := between(20, 40); len(h.steps) < n; {
		d := pick()
		switch k := rng.Intn(100); {
		case k < 25:
			storm := rng.Perm(len(windowDevices))[:between(3, 14)]
			add(func(w *windowWorld, r *Reconciler, _ *vclock.VirtualClock) {
				for _, i := range storm {
					driftAndNotify(w.fakeWorld, r, windowDevices[i])
				}
			})
		case k < 35:
			add(func(w *windowWorld, r *Reconciler, _ *vclock.VirtualClock) { driftAndNotify(w.fakeWorld, r, d) })
		case k < 42:
			add(func(w *windowWorld, _ *Reconciler, _ *vclock.VirtualClock) { failNext(w.fakeWorld, w.deployFail, d, 1) })
		case k < 49:
			add(func(w *windowWorld, _ *Reconciler, _ *vclock.VirtualClock) { failNext(w.fakeWorld, w.deployDrop, d, 1) })
		case k < 53:
			add(func(w *windowWorld, _ *Reconciler, _ *vclock.VirtualClock) { failNext(w.fakeWorld, w.deployErrs, d, 1) })
		case k < 57:
			add(func(w *windowWorld, _ *Reconciler, _ *vclock.VirtualClock) { failNext(w.fakeWorld, w.checkErrs, d, 1) })
		case k < 63:
			add(func(_ *windowWorld, r *Reconciler, _ *vclock.VirtualClock) { r.ResetBreaker() })
		case k < 66:
			sh := DeriveShard(d)
			add(func(_ *windowWorld, r *Reconciler, _ *vclock.VirtualClock) { _ = r.ResetShardBreaker(sh) })
		case k < 69:
			add(func(_ *windowWorld, r *Reconciler, _ *vclock.VirtualClock) { _ = r.Release(d) })
		default:
			adv := time.Duration(between(1, 12)) * time.Second
			if rng.Intn(5) == 0 {
				adv = time.Duration(between(30, 120)) * time.Second
			}
			add(func(_ *windowWorld, _ *Reconciler, clk *vclock.VirtualClock) { clk.Advance(adv) })
		}
	}
	return h
}

// run plays the history at the given parallelism and ends with an hour
// of quiet.
func (h stormHistory) run(parallelism int, jitter time.Duration) *Reconciler {
	w := &windowWorld{fakeWorld: newFakeWorld(windowDevices...),
		deployErrs: map[string]int{}, checkErrs: map[string]int{}, jitter: jitter}
	clk := vclock.NewVirtualClock(t0)
	cfg := h.cfg
	cfg.Clock, cfg.Parallelism = clk, parallelism
	r := New(Deps{
		Golden:    w,
		Deployer:  w.deployer(clk),
		Checker:   w,
		SweepList: func() []string { return append([]string(nil), windowDevices...) },
	}, cfg)
	w.rec = r
	r.Start()
	for _, step := range h.steps {
		step(w, r, clk)
	}
	clk.Advance(time.Hour)
	r.Stop()
	return r
}

// TestConcurrentRemediationEqualsSerial is the window's contract as a
// property: over seeded storm histories, a reconciler that remediates
// through a window of 8 makes the serial loop's decisions — its journal,
// rendered in serial order, is the serial journal byte for byte, and the
// device states and counters are equal — and never has more remediations
// in flight in a shard than its budget. Its own journal does not depend
// on goroutine timing: a second run with jittered deploys writes it
// again, byte for byte.
func TestConcurrentRemediationEqualsSerial(t *testing.T) {
	overlapped := false
	for seed := int64(1); seed <= 60; seed++ {
		h := randomStormHistory(seed)
		serial, window, jittered := h.run(1, 0), h.run(8, 0), h.run(8, 200*time.Microsecond)
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("seed %d, config %+v: %s", seed, h.cfg, fmt.Sprintf(format, args...))
		}
		if a, b := serialOrder(serial.Journal().Events()), serialOrder(window.Journal().Events()); a != b {
			fail("the window's journal in serial order diverges from the serial journal\n%s", journalDiff(a, b))
		}
		if a, b := window.Journal().Format(), jittered.Journal().Format(); a != b {
			fail("the window's journal depends on goroutine timing\n%s", journalDiff(a, b))
		}
		if a, b := fmt.Sprint(serial.States()), fmt.Sprint(window.States()); a != b {
			fail("states diverge\nserial: %s\nwindow: %s", a, b)
		}
		if a, b := serial.Stats().String(), window.Stats().String(); a != b {
			fail("stats diverge\nserial: %s\nwindow: %s", a, b)
		}
		if m := serial.Journal().MaxActive(); m > 1 {
			fail("the serial loop had %d remediations in flight", m)
		}
		for sh, m := range window.Journal().MaxActiveByShard() {
			if m > h.cfg.BudgetMaxDevices {
				fail("shard %s had %d remediations in flight, budget %d", sh, m, h.cfg.BudgetMaxDevices)
			}
		}
		if m := window.Journal().MaxActive(); m > 8 {
			fail("%d remediations in flight through a window of 8", m)
		} else if m > 1 {
			overlapped = true
		}
	}
	if !overlapped {
		t.Error("no history ever had two remediations in flight: the window was never exercised")
	}
}

// TestKillInsideTheWindowResumes kills a reconciler between admission and
// settlement: at every journal line a flush of nine devices writes
// (between a retry and its scheduled line too), the journal so far is
// what a crash leaves behind. The world is copied as
// the window's goroutines left it at that line, which may be before or
// after any in-flight deploy. The reconciler resumed from that prefix
// keeps it verbatim, resumes every device caught remediating or
// confirming, remediates every device that was queued but not admitted,
// converges the fleet and keeps each shard within its budget.
func TestKillInsideTheWindowResumes(t *testing.T) {
	var storm []string
	for _, sh := range []string{"a", "b", "c"} {
		for i := 1; i <= 3; i++ {
			storm = append(storm, fmt.Sprintf("psw%d.%s-c1", i, sh))
		}
	}
	cfg := Config{BackoffBase: time.Second, DampingThreshold: -1, BudgetMaxDevices: 3, BudgetMaxFraction: 1, Parallelism: 8}
	type world struct {
		golden, running map[string]string
		deployFail      map[string]int
	}
	// run storms the fleet and, once the journal has kill lines, copies
	// the journal and the world.
	run := func(kill int) (*Reconciler, []Event, world) {
		w := newFakeWorld(storm...)
		w.deployFail["psw2.b-c1"] = 1
		clk := vclock.NewVirtualClock(t0)
		c := cfg
		c.Clock = clk
		var (
			r      *Reconciler
			events []Event
			at     world
		)
		c.JournalSink = writerFunc(func() {
			if r != nil && r.Journal().Len() == kill {
				events = r.Journal().Events()
				w.mu.Lock()
				at = world{cloneMap(w.golden), cloneMap(w.running), cloneMap(w.deployFail)}
				w.mu.Unlock()
			}
		})
		r = New(Deps{Golden: w, Deployer: deployerFunc(w.deployClock(clk)), Checker: w}, c)
		for _, d := range storm {
			driftAndNotify(w, r, d)
		}
		clk.Advance(time.Minute)
		r.Stop()
		return r, events, at
	}
	full, _, _ := run(-1)
	all := full.Journal().Events()
	first, last := -1, 0
	for i, e := range all {
		if e.Type == EvRemediate && first < 0 {
			first = i
		}
		if e.Type == EvConverged || e.Type == EvRetry {
			last = i
		}
	}
	queuedAtSomeKill := false
	for kill := first + 1; kill <= last; kill++ {
		_, prefix, at := run(kill)
		if len(prefix) != kill {
			t.Fatalf("kill at line %d: captured %d events", kill, len(prefix))
		}
		killedAt := prefix[len(prefix)-1].At
		lastOf := map[string]Event{}
		for _, e := range prefix {
			lastOf[e.Device] = e
		}
		w := newFakeWorld()
		w.golden, w.running, w.deployFail = at.golden, at.running, at.deployFail
		clk := vclock.NewVirtualClock(killedAt)
		c := cfg
		c.Clock = clk
		r := ResumeFromJournal(Deps{Golden: w, Deployer: deployerFunc(w.deployClock(clk)), Checker: w}, c, prefix)
		clk.Advance(time.Minute)
		r.Stop()

		evs := r.Journal().Events()
		if got, want := fmt.Sprint(evs[:kill]), fmt.Sprint(prefix); got != want {
			t.Fatalf("kill at line %d: the resumed journal rewrote the prefix", kill)
		}
		resumed, remediated := map[string]bool{}, map[string]bool{}
		for _, e := range evs[kill:] {
			switch e.Type {
			case EvResumed:
				resumed[e.Device] = true
			case EvRemediate:
				remediated[e.Device] = true
			}
		}
		for _, d := range storm {
			switch e := lastOf[d]; {
			case e.Type == EvRemediate || e.Type == EvConfirming:
				if !resumed[d] || !remediated[d] {
					t.Errorf("kill at line %d: %s was in flight and was not resumed and redone\n%s", kill, d, r.Journal().Format())
				}
			case e.Type == EvScheduled && !e.FireAt.After(killedAt):
				queuedAtSomeKill = true
				if resumed[d] || !remediated[d] {
					t.Errorf("kill at line %d: %s was queued and was not remediated once\n%s", kill, d, r.Journal().Format())
				}
			}
			if st := r.States()[d]; st != StateConverged {
				t.Errorf("kill at line %d: %s ends %s", kill, d, st)
			}
			if w.running[d] != w.golden[d] {
				t.Errorf("kill at line %d: %s does not run its golden", kill, d)
			}
		}
		for sh, m := range r.Journal().MaxActiveByShard() {
			if m > cfg.BudgetMaxDevices {
				t.Errorf("kill at line %d: shard %s had %d in flight, budget %d", kill, sh, m, cfg.BudgetMaxDevices)
			}
		}
	}
	if !queuedAtSomeKill {
		t.Error("no kill caught a device queued but not admitted")
	}
}

// writerFunc is a journal sink that calls f after each line.
type writerFunc func()

func (f writerFunc) Write(p []byte) (int, error) {
	f()
	return len(p), nil
}

func cloneMap[V any](m map[string]V) map[string]V {
	out := make(map[string]V, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}
