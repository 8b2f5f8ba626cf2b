package reconcile

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/robotron-net/robotron/internal/monitor"
	"github.com/robotron-net/robotron/internal/vclock"
)

func TestDeriveShard(t *testing.T) {
	cases := map[string]string{
		"psw1.popa-c1":  "popa",
		"pr2.popb-c2":   "popb",
		"fsw3.dc1-c4":   "dc1",
		"sw1.edge":      "edge",
		"dev00017":      "dev",
		"d1":            "d",
		"rack12switch3": "rack",
		"":              "default",
		"noDigitsHere":  "noDigitsHere",
		"9starts":       "9starts",
	}
	for in, want := range cases {
		if got := DeriveShard(in); got != want {
			t.Errorf("DeriveShard(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestShardIsolationStorm is the tentpole invariant: a drift storm in
// site A trips only A's breaker; a concurrent drift in site B still
// converges, and the per-shard budget witness holds in the journal.
func TestShardIsolationStorm(t *testing.T) {
	devsA := []string{"psw1.siteA-c1", "psw2.siteA-c1", "psw3.siteA-c1", "psw4.siteA-c1"}
	devsB := []string{"psw1.siteB-c1", "psw2.siteB-c1"}
	all := append(append([]string{}, devsA...), devsB...)
	w := newFakeWorld(all...)
	r, clk := newTestRec(w, Config{
		BackoffBase: time.Second, DampingThreshold: -1,
		BudgetMaxDevices: 2, BudgetMaxFraction: 1,
	})

	for _, d := range devsA {
		driftAndNotify(w, r, d)
	}
	if !r.ShardTripped("siteA") {
		t.Fatal("siteA breaker not tripped by 4 concurrent drifts against budget 2")
	}
	if r.ShardTripped("siteB") {
		t.Fatal("siteB breaker tripped by siteA's storm")
	}
	if !r.Tripped() {
		t.Error("Tripped() should report any open shard breaker")
	}

	// Site B drifts while A is halted — and must converge.
	driftAndNotify(w, r, "psw1.siteB-c1")
	clk.Advance(time.Minute)
	wantState(t, r, "psw1.siteB-c1", StateConverged)
	if w.running["psw1.siteB-c1"] != w.golden["psw1.siteB-c1"] {
		t.Error("siteB device not restored while siteA halted")
	}
	// Nothing in A was touched.
	for _, d := range devsA {
		if w.running[d] == w.golden[d] {
			t.Errorf("%s was remediated while its shard breaker was open", d)
		}
	}

	// Reset drains A within its budget; the journal witnesses the
	// invariant per shard.
	r.ResetBreaker()
	clk.Advance(time.Minute)
	for _, d := range append(append([]string{}, devsA...), "psw1.siteB-c1") {
		wantState(t, r, d, StateConverged)
	}
	byShard := r.Journal().MaxActiveByShard()
	if byShard["siteA"] > 2 {
		t.Errorf("siteA max active = %d, budget 2", byShard["siteA"])
	}
	if byShard["siteB"] > 2 {
		t.Errorf("siteB max active = %d, budget 2", byShard["siteB"])
	}
	st := r.Stats()
	if st.ShardTrips["siteA"] != 1 || st.ShardTrips["siteB"] != 0 {
		t.Errorf("shard trips = %v, want siteA:1 only", st.ShardTrips)
	}
	if got := st.String(); !strings.Contains(got, "shard-trips{siteA:1}") {
		t.Errorf("Stats.String() missing per-shard trips: %s", got)
	}
}

// TestResetShardBreakerDrainsOnlyThatShard: a targeted reset re-arms one
// failure domain and leaves the other halted.
func TestResetShardBreakerDrainsOnlyThatShard(t *testing.T) {
	var all []string
	for _, site := range []string{"a", "b"} {
		for i := 1; i <= 3; i++ {
			all = append(all, fmt.Sprintf("psw%d.%s-c1", i, site))
		}
	}
	w := newFakeWorld(all...)
	r, clk := newTestRec(w, Config{
		BackoffBase: time.Second, DampingThreshold: -1,
		BudgetMaxDevices: 1, BudgetMaxFraction: 1,
	})
	for _, d := range all {
		driftAndNotify(w, r, d)
	}
	if !r.ShardTripped("a") || !r.ShardTripped("b") {
		t.Fatal("both shards should be tripped")
	}
	if err := r.ResetShardBreaker("a"); err != nil {
		t.Fatal(err)
	}
	if err := r.ResetShardBreaker("nosuch"); err == nil {
		t.Error("ResetShardBreaker on unknown shard should error")
	}
	clk.Advance(time.Minute)
	for i := 1; i <= 3; i++ {
		a, b := fmt.Sprintf("psw%d.a-c1", i), fmt.Sprintf("psw%d.b-c1", i)
		wantState(t, r, a, StateConverged)
		if got := r.States()[b]; got == StateConverged {
			t.Errorf("%s converged while shard b's breaker is open", b)
		}
		if w.running[b] == w.golden[b] {
			t.Errorf("%s was remediated while shard b's breaker is open", b)
		}
	}
	if r.ShardTripped("b") == false {
		t.Error("shard b breaker must stay open after resetting a")
	}
}

// TestPacedDrainSpacing: ResetBreaker releases the backlog one device per
// drainEvery, visible as strictly spaced remediate events.
func TestPacedDrainSpacing(t *testing.T) {
	var all []string
	for i := 1; i <= 5; i++ {
		all = append(all, fmt.Sprintf("psw%d.a-c1", i))
	}
	w := newFakeWorld(all...)
	r, clk := newTestRec(w, Config{
		BackoffBase: time.Second, DampingThreshold: -1,
		BudgetMaxDevices: 1, BudgetMaxFraction: 1,
	})
	for _, d := range all {
		driftAndNotify(w, r, d)
	}
	if !r.ShardTripped("a") {
		t.Fatal("shard a should be tripped")
	}
	// Let psw1's pre-trip timer fire and park against the open breaker,
	// so the whole backlog rides one paced drain wave.
	clk.Advance(2 * time.Second)
	resetAt := clk.Now()
	r.ResetBreaker()
	clk.Advance(5 * time.Minute)
	for _, d := range all {
		wantState(t, r, d, StateConverged)
	}
	// The first backlog device was scheduled at backoff(0)=1s; each
	// subsequent one drainEvery (1s) later.
	var remediates []time.Duration
	for _, e := range r.Journal().Events() {
		if e.Type == EvRemediate && e.At.After(resetAt) {
			remediates = append(remediates, e.At.Sub(resetAt))
		}
	}
	if len(remediates) != len(all) {
		t.Fatalf("want %d post-reset remediations, got %d\n%s", len(all), len(remediates), r.Journal().Format())
	}
	for i := 1; i < len(remediates); i++ {
		if gap := remediates[i] - remediates[i-1]; gap < drainEvery {
			t.Errorf("drain gap %d→%d = %v, want ≥ drainEvery (%v)\n%s",
				i-1, i, gap, drainEvery, r.Journal().Format())
		}
	}
	if max := r.Journal().MaxActiveByShard()["a"]; max > 1 {
		t.Errorf("shard a max active %d exceeded budget 1 during drain", max)
	}
}

// TestQuarantineDoesNotConsumeOtherShardBudget is the regression test
// demanded by the issue: a quarantined device in shard A must never
// count against shard B's budget.
func TestQuarantineDoesNotConsumeOtherShardBudget(t *testing.T) {
	w := newFakeWorld("psw1.a-c1", "psw1.b-c1", "psw2.b-c1")
	w.deployFail["psw1.a-c1"] = 10 // every attempt fails → quarantine
	r, clk := newTestRec(w, Config{
		BackoffBase: time.Second, DampingThreshold: -1, MaxAttempts: 2,
		BudgetMaxDevices: 2, BudgetMaxFraction: 1,
	})
	driftAndNotify(w, r, "psw1.a-c1")
	clk.Advance(time.Minute)
	wantState(t, r, "psw1.a-c1", StateQuarantined)

	// Shard b has budget 2; both of its devices must schedule even
	// though a quarantined device exists elsewhere.
	driftAndNotify(w, r, "psw1.b-c1")
	driftAndNotify(w, r, "psw2.b-c1")
	if r.ShardTripped("b") || r.Tripped() {
		t.Fatalf("shard b tripped; quarantined psw1.a-c1 leaked into its budget\n%s", r.Journal().Format())
	}
	clk.Advance(time.Minute)
	wantState(t, r, "psw1.b-c1", StateConverged)
	wantState(t, r, "psw2.b-c1", StateConverged)
}

// TestConcurrentShardsUnderRace drives sweeps, deviations, and breaker
// resets from racing goroutines across shards — run under -race this is
// the cross-shard locking contract.
func TestConcurrentShardsUnderRace(t *testing.T) {
	var all []string
	for _, site := range []string{"a", "b", "c"} {
		for i := 1; i <= 4; i++ {
			all = append(all, fmt.Sprintf("psw%d.%s-c1", i, site))
		}
	}
	w := newFakeWorld(all...)
	clk := vclock.NewVirtualClock(t0)
	r := New(Deps{
		Golden:   w,
		Deployer: deployerFunc(w.deployClock(clk)),
		Checker:  w,
		SweepList: func() []string {
			return append([]string(nil), all...)
		},
	}, Config{
		Clock: clk, BackoffBase: time.Millisecond, DampingThreshold: -1,
		BudgetMaxDevices: 2, BudgetMaxFraction: 1,
	})
	defer r.Stop()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				select {
				case <-stop:
					return
				default:
				}
				d := all[(g*7+i)%len(all)]
				w.drift(d)
				r.HandleDeviation(monitor.Deviation{Device: d, Added: 1})
			}
		}(g)
	}
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			r.Sweep()
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			r.ResetBreaker()
			_ = r.ResetShardBreaker("a")
			_ = r.Tripped()
			_ = r.Snapshot()
			_ = r.Stats()
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			clk.Advance(time.Millisecond)
		}
	}()
	wg.Wait()
	close(stop)
	// Drain: reset any breakers and let everything converge.
	for i := 0; i < 20; i++ {
		r.ResetBreaker()
		clk.Advance(time.Second)
	}
	byShard := r.Journal().MaxActiveByShard()
	for sh, max := range byShard {
		if max > 2 {
			t.Errorf("shard %s max active %d exceeded budget 2", sh, max)
		}
	}
}

// TestSnapshotReportsShards pins the programmatic snapshot the HTTP/CLI
// surfaces are parity-checked against.
func TestSnapshotReportsShards(t *testing.T) {
	w := newFakeWorld("psw1.a-c1", "psw2.a-c1", "psw3.a-c1", "psw1.b-c1")
	r, _ := newTestRec(w, Config{
		BackoffBase: time.Second, DampingThreshold: -1,
		BudgetMaxDevices: 1, BudgetMaxFraction: 1,
	})
	driftAndNotify(w, r, "psw1.a-c1")
	driftAndNotify(w, r, "psw2.a-c1") // trips shard a
	driftAndNotify(w, r, "psw1.b-c1")
	s := r.Snapshot()
	if !s.Tripped || s.Open != 3 || s.Devices != 3 {
		t.Errorf("snapshot = %+v, want a shard trip with 3 open of 3 tracked devices", s)
	}
	if len(s.Shards) != 2 || s.Shards[0].Shard != "a" || s.Shards[1].Shard != "b" {
		t.Fatalf("snapshot shards = %+v, want sorted [a b]", s.Shards)
	}
	a, b := s.Shards[0], s.Shards[1]
	if !a.Tripped || a.Trips != 1 || a.Open != 2 || a.Budget != 1 {
		t.Errorf("shard a = %+v, want tripped with 2 open against budget 1", a)
	}
	if b.Tripped || b.Open != 1 || b.Backlog != 1 {
		t.Errorf("shard b = %+v, want 1 open (backlog) and closed breaker", b)
	}
	tbl := FormatSnapshot(s)
	for _, want := range []string{"SHARD", "OPEN (shard)", "a", "b"} {
		if !strings.Contains(tbl, want) {
			t.Errorf("FormatSnapshot missing %q:\n%s", want, tbl)
		}
	}
}
