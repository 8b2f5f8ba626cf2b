package core

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/robotron-net/robotron/internal/design"
	"github.com/robotron-net/robotron/internal/monitor"
	"github.com/robotron-net/robotron/internal/revctl"
	"github.com/robotron-net/robotron/internal/vclock"
)

// TestCollectOnceEqualsRunOnce: CollectOnce runs the installed jobs in
// place (JobManager.RunInstalled) and leaves what passing them to RunOnce
// leaves. Two identical worlds, each a converged 64-device DCGen3(40)
// cluster with its derived jobs and the audit jobs, run four monitoring
// cycles three virtual minutes apart, the cluster's fabric and spine
// switches down for the middle two — long enough for their absence alarms
// to fire, and to resolve once they are back. One world collects through
// CollectOnce, the other through RunOnce(Jobs()...) and DeriveCircuits;
// each then runs an alarm pass. The two must agree on every series'
// samples, the binlog entries the cycles appended, the config backups, the
// poll and error counts and the alarm snapshot.
func TestCollectOnceEqualsRunOnce(t *testing.T) {
	type world struct {
		r   *Robotron
		clk *vclock.VirtualClock
		seq uint64 // the binlog's seq before the first cycle
	}
	build := func() world {
		clk := vclock.NewVirtualClock(time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC))
		r, err := New(Options{Clock: clk})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Designer.EnsureSite("dc1", "dc", "apac"); err != nil {
			t.Fatal(err)
		}
		if _, err := r.ProvisionCluster(testCtx("dc"), "dc1", "dc1-c1", design.DCGen3(40)); err != nil {
			t.Fatal(err)
		}
		installAuditJobs(t, r)
		return world{r: r, clk: clk, seq: r.Store.DB().Seq()}
	}
	installed, adhoc := build(), build()
	cycle := map[*Robotron]func() error{
		installed.r: installed.r.CollectOnce,
		adhoc.r: func() error {
			if _, err := adhoc.r.JobManager.RunOnce(adhoc.r.JobManager.Jobs()...); err != nil {
				return err
			}
			_, err := monitor.DeriveCircuits(adhoc.r.Store)
			return err
		},
	}
	for i := 1; i <= 4; i++ {
		for _, w := range []world{installed, adhoc} {
			for _, d := range w.r.Fleet.Devices() {
				if strings.HasPrefix(d.Name(), "fsw") || strings.HasPrefix(d.Name(), "ssw") {
					d.SetDown(i == 2 || i == 3)
				}
			}
			w.clk.Advance(3 * time.Minute)
			if err := cycle[w.r](); err != nil {
				t.Fatalf("cycle %d: %v", i, err)
			}
			w.r.Alarms.Evaluate()
		}
	}
	got, want := installed.r, adhoc.r
	keys := want.Timeseries.Keys()
	if g := got.Timeseries.Keys(); !reflect.DeepEqual(g, keys) {
		t.Fatalf("series %v, want %v", g, keys)
	}
	for _, key := range keys {
		if g, w := got.Timeseries.Series(key), want.Timeseries.Series(key); !reflect.DeepEqual(g, w) {
			t.Fatalf("series %s = %v, want %v", key, g, w)
		}
	}
	entries := want.Store.DB().EntriesSince(adhoc.seq)
	if g := got.Store.DB().EntriesSince(installed.seq); !reflect.DeepEqual(g, entries) {
		t.Fatalf("the cycles appended %d binlog entries, want %d, or others", len(g), len(entries))
	}
	if len(entries) == 0 {
		t.Fatal("the cycles appended no binlog entry: nothing was stored")
	}
	paths := want.Repo.Paths()
	if g := got.Repo.Paths(); !reflect.DeepEqual(g, paths) {
		t.Fatalf("backups of %v, want %v", g, paths)
	}
	// A revision's Seq orders it among every path's, and the parallel
	// turn-up commits its goldens and backups in whatever order its
	// devices finish, so the backups are compared without it.
	history := func(r *Robotron, path string) []revctl.Revision {
		revs, _ := r.Repo.History(path)
		for i := range revs {
			revs[i].Seq = 0
		}
		return revs
	}
	for _, path := range paths {
		if g, w := history(got, path), history(want, path); !reflect.DeepEqual(g, w) {
			t.Fatalf("%s history %v, want %v", path, g, w)
		}
	}
	if g, w := got.JobManager.Stats().Counts(), want.JobManager.Stats().Counts(); !reflect.DeepEqual(g, w) {
		t.Fatalf("polls %v, want %v", g, w)
	}
	pollErrors := func(r *Robotron) float64 {
		v, _ := r.Telemetry.Value("robotron_monitor_poll_errors_total")
		return v
	}
	if g, w := pollErrors(got), pollErrors(want); g != w || w == 0 {
		t.Fatalf("%v poll errors, want %v (and some: the switches were down)", g, w)
	}
	snapshot := want.Alarms.Snapshot()
	if g := got.Alarms.Snapshot(); !reflect.DeepEqual(g, snapshot) {
		t.Fatalf("alarms %+v, want %+v", g, snapshot)
	}
	resolved := 0
	for _, al := range snapshot {
		if al.State == monitor.AlarmResolved {
			resolved++
		}
	}
	if resolved == 0 {
		t.Fatalf("no alarm fired and resolved: %+v", snapshot)
	}
}
