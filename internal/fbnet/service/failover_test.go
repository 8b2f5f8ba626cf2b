package service

import (
	"strings"
	"testing"
	"time"

	"github.com/robotron-net/robotron/internal/telemetry"
)

// renderMetrics scrapes the registry into the Prometheus text format.
func renderMetrics(t *testing.T, reg *telemetry.Registry) string {
	t.Helper()
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func metricLine(body, name string) string {
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, name+" ") || strings.HasPrefix(line, name+"{") {
			return line
		}
	}
	return ""
}

// TestMasterDeathDegradedReadsThenPromotion is the acceptance path: the
// master dies mid-run, reads keep serving replicated state while the
// degraded gauge goes to 1 and writes fail cleanly; promotion restores
// writes and clears the gauge. The promoted master counts its commits, and
// the replicas the promotion rebuilt report their lag and health, on the
// registry the deployment was built with.
func TestMasterDeathDegradedReadsThenPromotion(t *testing.T) {
	reg := telemetry.NewRegistry()
	d, c := newDeploymentOn(t, reg)
	seedDevices(t, d, c)

	d.KillMaster()
	if !d.Degraded() {
		t.Fatal("deployment should be degraded after master death")
	}
	if line := metricLine(renderMetrics(t, reg), "robotron_service_degraded"); !strings.HasSuffix(line, " 1") {
		t.Errorf("degraded gauge line = %q, want value 1", line)
	}

	// Reads keep serving the last replicated (transaction-consistent)
	// state from the local replica.
	res, err := c.Get(ctx(), "Device", []string{"name"}, All())
	if err != nil || len(res) != 3 {
		t.Fatalf("degraded read: %v, %d rows (want 3)", err, len(res))
	}
	// Writes fail cleanly rather than hanging or corrupting.
	if _, err := c.Write(ctx(), []WriteOp{CreateOp("Region", map[string]any{"name": "doomed"})}); err == nil {
		t.Fatal("write against a dead master should error")
	}

	promoted, err := d.PromoteBest()
	if err != nil {
		t.Fatal(err)
	}
	if promoted == "ash" {
		t.Fatalf("promoted %q, want a replica region", promoted)
	}
	if d.Degraded() {
		t.Error("promotion should end degraded mode")
	}
	body := renderMetrics(t, reg)
	if line := metricLine(body, "robotron_service_degraded"); !strings.HasSuffix(line, " 0") {
		t.Errorf("degraded gauge line = %q, want value 0 after promotion", line)
	}
	if line := metricLine(body, "robotron_service_promotions_total"); !strings.HasSuffix(line, " 1") {
		t.Errorf("promotions counter line = %q, want value 1", line)
	}

	// Writes resume against the new master and replicate out.
	commits := telemetry.L("server", "db."+promoted)
	before, _ := reg.Value("robotron_relstore_tx_commits_total", commits...)
	c.RefreshTopology(d)
	if _, err := c.Write(ctx(), []WriteOp{CreateOp("Region", map[string]any{"name": "revived"})}); err != nil {
		t.Fatalf("write after promotion: %v", err)
	}
	if after, ok := reg.Value("robotron_relstore_tx_commits_total", commits...); !ok || after != before+1 {
		t.Errorf("new master's tx_commits_total = %v (registered %v), want %v", after, ok, before+1)
	}
	if err := d.Replicate(); err != nil {
		t.Fatal(err)
	}
	res, err = c.Get(ctx(), "Region", []string{"name"}, Eq("name", "revived"))
	if err != nil || len(res) != 1 {
		t.Errorf("post-promotion replicated read: %v, %d rows", err, len(res))
	}
	// Every replica the promotion rebuilt follows the new master: its lag
	// gauge reads 0 once replicated, and its health check answers.
	statuses, _ := reg.Health()
	rebuilt := 0
	for region := range d.Lag() {
		rebuilt++
		name := "db." + region
		if lag, ok := reg.Value("robotron_relstore_replication_lag", telemetry.L("replica", name)...); !ok || lag != 0 {
			t.Errorf("%s lag gauge = %v (registered %v), want 0", name, lag, ok)
		}
		found := false
		for _, st := range statuses {
			if st.Name == "relstore-replica-"+name {
				found = true
				if !st.OK || st.Detail != "lag=0" {
					t.Errorf("%s health = %+v, want healthy at lag=0", name, st)
				}
			}
		}
		if !found {
			t.Errorf("no health check for %s", name)
		}
	}
	if rebuilt != 1 {
		t.Errorf("%d rebuilt replicas, want 1", rebuilt)
	}
}

// TestFailoverWatchAutoPromotes kills the master database out from under
// the deployment (no explicit KillMaster call) and expects the watcher to
// detect the death, enter degraded mode, and promote a replica on its own.
func TestFailoverWatchAutoPromotes(t *testing.T) {
	reg := telemetry.NewRegistry()
	d, c := newDeploymentOn(t, reg)
	seedDevices(t, d, c)

	d.StartFailoverWatch(5 * time.Millisecond)
	defer d.StopFailoverWatch()

	// The database dies; nobody tells the deployment.
	d.MasterStore().DB().SetDown(true)

	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if d.MasterRegion() != "ash" && !d.Degraded() {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if d.MasterRegion() == "ash" || d.Degraded() {
		t.Fatalf("watcher did not fail over: master=%s degraded=%v", d.MasterRegion(), d.Degraded())
	}
	if got := reg.Counter("robotron_service_promotions_total").Value(); got != 1 {
		t.Errorf("promotions = %d, want 1", got)
	}

	c.RefreshTopology(d)
	if _, err := c.Write(ctx(), []WriteOp{CreateOp("Region", map[string]any{"name": "auto-promoted"})}); err != nil {
		t.Fatalf("write after auto-promotion: %v", err)
	}
	res, err := c.Get(ctx(), "Device", []string{"name"}, All())
	if err != nil || len(res) != 3 {
		t.Errorf("read after auto-promotion: %v, %d rows", err, len(res))
	}
}
