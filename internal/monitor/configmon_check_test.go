package monitor

import (
	"strings"
	"testing"
	"time"

	"github.com/robotron-net/robotron/internal/confdiff"
	"github.com/robotron-net/robotron/internal/fbnet"
	"github.com/robotron-net/robotron/internal/revctl"
	"github.com/robotron-net/robotron/internal/vclock"
)

// TestCheckDeviceVerdictEqualsColdDiff: CheckDevice decides equal configs
// without a diff and diffs only a mismatch; either way its verdict and
// counts are those of a cold confdiff.Compute(golden, running) — the
// counts of every line the verdict counted, comments included — and the
// row it records carries the hash of what it collected.
func TestCheckDeviceVerdictEqualsColdDiff(t *testing.T) {
	const golden = "hostname dev00\ninterface et1/1\n description uplink\ninterface et1/2\n"
	for _, tc := range []struct {
		name, running string
	}{
		{"equal configs", golden},
		{"trailing newline only", strings.TrimSuffix(golden, "\n")},
		{"comment-only drift", golden + "! chaos drift\n"},
		{"real drift", strings.Replace(golden, " description uplink\n", " description spare\n", 1) + "snmp-server community leaked\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fleet, jm, store, repo := newMonitoredFleet(t, 1)
			dev, _ := fleet.Device("dev00")
			if err := dev.InjectRunningConfig(tc.running); err != nil {
				t.Fatal(err)
			}
			cm := NewConfigMonitor(jm, repo, store, func(string) (string, error) { return golden, nil }, registryOf(store))
			got, err := cm.CheckDevice("dev00")
			if err != nil {
				t.Fatal(err)
			}
			cold := confdiff.Compute(golden, tc.running)
			if conforms := got == nil; conforms != cold.Empty() {
				t.Fatalf("CheckDevice conforms = %v, cold diff empty = %v", conforms, cold.Empty())
			}
			if got != nil {
				stats := cold.Stats(false)
				if got.Added != stats.Added || got.Removed != stats.Removed || got.Diff != cold.Unified(3) {
					t.Errorf("deviation +%d/-%d\n%s\nwant the cold diff's +%d/-%d\n%s",
						got.Added, got.Removed, got.Diff, stats.Added, stats.Removed, cold.Unified(3))
				}
			}
			row, err := store.FindOne("DerivedConfig", fbnet.Eq("device_name", "dev00"))
			if err != nil {
				t.Fatal(err)
			}
			if row.String("config_hash") != revctl.Hash(tc.running) || row.Bool("conforms") != cold.Empty() {
				t.Errorf("DerivedConfig = %v, want hash %s conforms %v", row, revctl.Hash(tc.running), cold.Empty())
			}
			if backup, err := repo.GetHead(BackupPath("dev00")); err != nil || backup != tc.running {
				t.Errorf("backup = %q, %v; want the collected config", backup, err)
			}
		})
	}
}

// TestRepeatedConformingCheckWritesNothing: a check that repeats the last
// verdict on the last config appends no binlog entry and no backup
// revision, keeps the DerivedConfig row and its stamp, and allocates
// within a fixed bound; a drift moves the stamp to the check that saw it.
func TestRepeatedConformingCheckWritesNothing(t *testing.T) {
	first := time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC)
	clk := vclock.NewVirtualClock(first)
	fleet, jm, store, repo := newMonitoredFleetOn(t, 1, clk)
	dev, _ := fleet.Device("dev00")
	golden, _ := dev.RunningConfig()
	cm := NewConfigMonitor(jm, repo, store, func(string) (string, error) { return golden, nil }, registryOf(store))
	if d, err := cm.CheckDevice("dev00"); err != nil || d != nil {
		t.Fatalf("first check = %+v, %v; want conforming", d, err)
	}
	row := func() fbnet.Object {
		t.Helper()
		obj, err := store.FindOne("DerivedConfig", fbnet.Eq("device_name", "dev00"))
		if err != nil {
			t.Fatal(err)
		}
		return obj
	}
	was := row()

	clk.Advance(time.Minute)
	seq := store.DB().Seq()
	allocs := testing.AllocsPerRun(20, func() {
		if d, err := cm.CheckDevice("dev00"); err != nil || d != nil {
			t.Fatalf("repeated check = %+v, %v; want conforming", d, err)
		}
	})
	if moved := store.DB().Seq() - seq; moved != 0 {
		t.Errorf("repeated conforming checks appended %d binlog entries, want 0", moved)
	}
	if revs, _ := repo.History(BackupPath("dev00")); len(revs) != 1 {
		t.Errorf("backup history has %d revisions, want 1", len(revs))
	}
	if now := row(); now.ID != was.ID || now.Int("collected_unix") != first.Unix() {
		t.Errorf("DerivedConfig = id %d %v, want id %d stamped %d", now.ID, now, was.ID, first.Unix())
	}
	// Measured at 62 allocations: the collection's poll and job spec, the
	// peek that finds the row unchanged. A diff of the two configs, a hash
	// or a write would each cost more than the margin.
	t.Logf("allocs %v", allocs)
	const maxAllocs = 80
	if allocs > maxAllocs {
		t.Errorf("a repeated conforming check allocated %v times, want <= %d", allocs, maxAllocs)
	}

	clk.Advance(time.Hour)
	drifted := clk.Now()
	if err := dev.InjectRunningConfig(golden + "snmp-server community leaked\n"); err != nil {
		t.Fatal(err)
	}
	if d, err := cm.CheckDevice("dev00"); err != nil || d == nil {
		t.Fatalf("check after drift = %+v, %v; want a deviation", d, err)
	}
	if now := row(); now.ID != was.ID || now.Int("collected_unix") != drifted.Unix() || now.Bool("conforms") {
		t.Errorf("DerivedConfig after drift = id %d %v, want id %d stamped %d, not conforming", now.ID, now, was.ID, drifted.Unix())
	}
}

// TestCommentOnlyDriftCountsItsLines: a "! …" line typed on the console
// deviates — the verdict counts comment lines — and the deviation reports
// the line it counted, not +0/-0.
func TestCommentOnlyDriftCountsItsLines(t *testing.T) {
	fleet, jm, store, repo := newMonitoredFleet(t, 1)
	dev, _ := fleet.Device("dev00")
	golden, _ := dev.RunningConfig()
	cm := NewConfigMonitor(jm, repo, store, func(string) (string, error) { return golden, nil }, registryOf(store))
	if err := dev.ApplyManualChange("! chaos drift dev00"); err != nil {
		t.Fatal(err)
	}
	got, err := cm.CheckDevice("dev00")
	if err != nil {
		t.Fatal(err)
	}
	if got == nil {
		t.Fatal("a comment-only drift conforms; want a deviation")
	}
	if got.Added != 1 || got.Removed != 0 {
		t.Errorf("comment-only drift reported +%d/-%d lines, want +1/-0\n%s", got.Added, got.Removed, got.Diff)
	}
}
