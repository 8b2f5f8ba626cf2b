package relstore

import (
	"errors"
	"strconv"
	"strings"
	"testing"

	"github.com/robotron-net/robotron/internal/telemetry"
)

// lagGauge scrapes the registry and extracts the replication-lag gauge
// for the named replica.
func lagGauge(t *testing.T, reg *telemetry.Registry, replica string) float64 {
	t.Helper()
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	prefix := `robotron_relstore_replication_lag{replica="` + replica + `"} `
	for _, line := range strings.Split(b.String(), "\n") {
		if strings.HasPrefix(line, prefix) {
			v, err := strconv.ParseFloat(line[len(prefix):], 64)
			if err != nil {
				t.Fatalf("bad gauge line %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("no replication-lag gauge for %s in scrape:\n%s", replica, b.String())
	return 0
}

// TestReplicationLagGaugeConvergesToZero: writes on the master open a
// lag visible through the gauge; CatchUp drives it back to zero.
func TestReplicationLagGaugeConvergesToZero(t *testing.T) {
	reg := telemetry.NewRegistry()
	master := newTestDBOn(t, reg)
	rep := NewReplica(master, "replica.test")

	// The replica has applied nothing: schema entries alone open a lag.
	if lag := lagGauge(t, reg, "replica.test"); lag == 0 {
		t.Fatal("lag gauge = 0 before any catch-up")
	}
	if err := rep.CatchUp(); err != nil {
		t.Fatal(err)
	}
	if lag := lagGauge(t, reg, "replica.test"); lag != 0 {
		t.Fatalf("lag gauge = %v after catch-up, want 0", lag)
	}
	// New master writes reopen the lag by exactly the entry count...
	insertDevice(t, master, "psw1")
	insertDevice(t, master, "psw2")
	if lag := lagGauge(t, reg, "replica.test"); lag != 2 {
		t.Fatalf("lag gauge = %v after 2 master writes, want 2", lag)
	}
	if got, want := lagGauge(t, reg, "replica.test"), float64(rep.Lag()); got != want {
		t.Fatalf("gauge %v disagrees with Lag() %v", got, want)
	}
	// ...and partial application shrinks it before converging to zero.
	if err := rep.ApplyN(1); err != nil {
		t.Fatal(err)
	}
	if lag := lagGauge(t, reg, "replica.test"); lag != 1 {
		t.Fatalf("lag gauge = %v after partial apply, want 1", lag)
	}
	if err := rep.CatchUp(); err != nil {
		t.Fatal(err)
	}
	if lag := lagGauge(t, reg, "replica.test"); lag != 0 {
		t.Fatalf("lag gauge = %v after full catch-up, want 0", lag)
	}
}

// TestReplicaHealthCheck: the replica's health check, on its master's
// registry, carries the lag detail and fails when the replica goes down.
func TestReplicaHealthCheck(t *testing.T) {
	reg := telemetry.NewRegistry()
	master := newTestDBOn(t, reg)
	rep := NewReplica(master, "replica.hc")
	statuses, ok := reg.Health()
	if !ok || len(statuses) != 1 || !strings.Contains(statuses[0].Detail, "lag=") {
		t.Fatalf("health = %+v ok=%v", statuses, ok)
	}
	rep.DB().SetDown(true)
	if _, ok := reg.Health(); ok {
		t.Error("health should fail with the replica down")
	}
}

// TestTxCountersOnRegistry: commits and rollbacks are counted per
// server under the existing db.mu critical sections.
func TestTxCountersOnRegistry(t *testing.T) {
	reg := telemetry.NewRegistry()
	db := newTestDBOn(t, reg)
	insertDevice(t, db, "psw1")
	insertDevice(t, db, "psw2")
	_ = db.WithTx(func(tx *Tx) error {
		if _, err := tx.Insert("device", map[string]any{"name": "psw3", "role": "psw"}); err != nil {
			return err
		}
		return errors.New("abort")
	})
	server := telemetry.Label{Key: "server", Value: "master.test"}
	if v := reg.Counter("robotron_relstore_tx_commits_total", server).Value(); v != 2 {
		t.Errorf("commits = %d, want 2", v)
	}
	if v := reg.Counter("robotron_relstore_tx_rollbacks_total", server).Value(); v != 1 {
		t.Errorf("rollbacks = %d, want 1", v)
	}
	// The binlog-seq gauge tracks db.Seq() live.
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `robotron_relstore_binlog_seq{server="master.test"}`) {
		t.Errorf("scrape missing binlog seq gauge:\n%s", b.String())
	}
}

// TestPromotedReplicaCountsOnItsMastersRegistry: a replica's server counts
// into its master's registry from construction, so once promoted its
// commits count with nothing registered again; it exports its binlog
// sequence from the promotion on.
func TestPromotedReplicaCountsOnItsMastersRegistry(t *testing.T) {
	reg := telemetry.NewRegistry()
	master := newTestDBOn(t, reg)
	rep := NewReplica(master, "replica.promo")
	server := telemetry.L("server", "replica.promo")
	if _, ok := reg.Value("robotron_relstore_binlog_seq", server...); ok {
		t.Error("a replica exports a binlog_seq before it is promoted")
	}
	promoted := rep.Promote()
	if seq, ok := reg.Value("robotron_relstore_binlog_seq", server...); !ok || seq != float64(promoted.Seq()) {
		t.Errorf("promoted binlog_seq = %v (registered %v), want %d", seq, ok, promoted.Seq())
	}
	insertDevice(t, promoted, "psw1")
	if v, _ := reg.Value("robotron_relstore_tx_commits_total", server...); v != 1 {
		t.Errorf("promoted server's commits = %v, want 1", v)
	}
}
