package audit

import (
	"strings"
	"testing"

	"github.com/robotron-net/robotron/internal/fbnet"
	"github.com/robotron-net/robotron/internal/relstore"
	"github.com/robotron-net/robotron/internal/verify"
)

// seed builds a two-device design with one production circuit, plus
// matching Derived state (everything healthy).
func seed(t testing.TB) *fbnet.Store {
	t.Helper()
	db := relstore.NewDB("m")
	store, err := fbnet.Open(db, fbnet.NewCatalog())
	if err != nil {
		t.Fatal(err)
	}
	_, err = store.Mutate(func(m *fbnet.Mutation) error {
		region, _ := m.Create("Region", map[string]any{"name": "r"})
		site, _ := m.Create("Site", map[string]any{"name": "pop1", "kind": "pop", "region": region})
		v, _ := m.Create("Vendor", map[string]any{"name": "v1", "syntax": "vendor1"})
		hw, _ := m.Create("HardwareProfile", map[string]any{
			"name": "p", "vendor": v, "num_slots": 1, "ports_per_linecard": 4, "port_speed_mbps": 10000})
		mk := func(name string) (int64, int64) {
			dev, _ := m.Create("Device", map[string]any{
				"name": name, "role": "psw", "site": site, "hw_profile": hw, "drain_state": "undrained"})
			lc, _ := m.Create("Linecard", map[string]any{"slot": 1, "device": dev})
			pif, _ := m.Create("PhysicalInterface", map[string]any{
				"name": "et1/1", "speed_mbps": 10000, "linecard": lc})
			return dev, pif
		}
		devA, pifA := mk("devA")
		devB, pifB := mk("devB")
		if _, err := m.Create("Circuit", map[string]any{
			"circuit_id": "c1", "a_interface": pifA, "z_interface": pifB, "status": "production"}); err != nil {
			return err
		}
		// Desired eBGP session over explicit addresses.
		if _, err := m.Create("BgpV6Session", map[string]any{
			"local_device": devA, "remote_device": devB, "remote_addr": "2401:db00::2",
			"local_as": 65001, "remote_as": 65002, "session_type": "ebgp"}); err != nil {
			return err
		}
		// Healthy Derived state.
		for _, name := range []string{"devA", "devB"} {
			if _, err := m.Create("DerivedDevice", map[string]any{
				"name": name, "uptime_s": 1000, "last_seen_unix": 1}); err != nil {
				return err
			}
			if _, err := m.Create("DerivedInterface", map[string]any{
				"device_name": name, "name": "et1/1", "oper_status": "up",
				"speed_mbps": 10000, "last_change_unix": 1}); err != nil {
				return err
			}
		}
		if _, err := m.Create("DerivedCircuit", map[string]any{
			"a_device": "devA", "a_interface": "et1/1",
			"z_device": "devB", "z_interface": "et1/1", "source": "lldp"}); err != nil {
			return err
		}
		if _, err := m.Create("DerivedBgpSession", map[string]any{
			"device_name": "devA", "peer_addr": "2401:db00::2", "family": "v6", "state": "Established"}); err != nil {
			return err
		}
		_, err := m.Create("DerivedConfig", map[string]any{
			"device_name": "devA", "config_hash": "h", "collected_unix": 1, "conforms": true})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return store
}

func mutate(t *testing.T, store *fbnet.Store, fn func(*fbnet.Mutation) error) {
	t.Helper()
	if _, err := store.Mutate(fn); err != nil {
		t.Fatal(err)
	}
}

// run audits the store through a fresh checker's view of it.
func run(store *fbnet.Store) (Report, error) {
	return Run(store, verify.NewChecker(store, nil))
}

func TestHealthyNetworkIsClean(t *testing.T) {
	store := seed(t)
	rep, err := run(store)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Errorf("healthy network has anomalies: %v", rep.Anomalies)
	}
}

func TestDeviceSilent(t *testing.T) {
	store := seed(t)
	mutate(t, store, func(m *fbnet.Mutation) error {
		obj, _ := m.FindOne("DerivedDevice", fbnet.Eq("name", "devB"))
		return m.Delete("DerivedDevice", obj.ID)
	})
	rep, _ := run(store)
	if rep.ByKind()[DeviceSilent] != 1 {
		t.Errorf("anomalies = %v", rep.Anomalies)
	}
	if rep.Anomalies[0].Device != "devB" {
		t.Errorf("wrong device: %v", rep.Anomalies)
	}
}

func TestCircuitMissing(t *testing.T) {
	store := seed(t)
	// Fiber cut: the LLDP-derived circuit disappears.
	mutate(t, store, func(m *fbnet.Mutation) error {
		obj, _ := m.FindOne("DerivedCircuit", nil)
		return m.Delete("DerivedCircuit", obj.ID)
	})
	rep, _ := run(store)
	if rep.ByKind()[CircuitMissing] != 1 {
		t.Errorf("anomalies = %v", rep.Anomalies)
	}
	if !strings.Contains(rep.Anomalies[0].Detail, "c1") {
		t.Errorf("detail = %q", rep.Anomalies[0].Detail)
	}
}

func TestCircuitUnexpected(t *testing.T) {
	store := seed(t)
	// Someone cabled an undesigned link.
	mutate(t, store, func(m *fbnet.Mutation) error {
		_, err := m.Create("DerivedCircuit", map[string]any{
			"a_device": "devA", "a_interface": "et1/9",
			"z_device": "rogue", "z_interface": "et1/1", "source": "lldp"})
		return err
	})
	rep, _ := run(store)
	if rep.ByKind()[CircuitUnexpected] != 1 {
		t.Errorf("anomalies = %v", rep.Anomalies)
	}
}

func TestCircuitOrientationIndependent(t *testing.T) {
	store := seed(t)
	// Replace the derived circuit with the reversed orientation: still
	// the same circuit, no anomaly.
	mutate(t, store, func(m *fbnet.Mutation) error {
		obj, _ := m.FindOne("DerivedCircuit", nil)
		if err := m.Delete("DerivedCircuit", obj.ID); err != nil {
			return err
		}
		_, err := m.Create("DerivedCircuit", map[string]any{
			"a_device": "devB", "a_interface": "et1/1",
			"z_device": "devA", "z_interface": "et1/1", "source": "lldp"})
		return err
	})
	rep, _ := run(store)
	if !rep.Clean() {
		t.Errorf("reversed orientation flagged: %v", rep.Anomalies)
	}
}

func TestInterfaceDown(t *testing.T) {
	store := seed(t)
	mutate(t, store, func(m *fbnet.Mutation) error {
		obj, _ := m.FindOne("DerivedInterface", fbnet.Eq("device_name", "devA"))
		return m.Update("DerivedInterface", obj.ID, map[string]any{"oper_status": "down"})
	})
	rep, _ := run(store)
	if rep.ByKind()[InterfaceDown] != 1 {
		t.Errorf("anomalies = %v", rep.Anomalies)
	}
}

func TestBGPDown(t *testing.T) {
	store := seed(t)
	mutate(t, store, func(m *fbnet.Mutation) error {
		obj, _ := m.FindOne("DerivedBgpSession", nil)
		return m.Update("DerivedBgpSession", obj.ID, map[string]any{"state": "Active"})
	})
	rep, _ := run(store)
	if rep.ByKind()[BGPDown] != 1 {
		t.Errorf("anomalies = %v", rep.Anomalies)
	}
}

func TestConfigDeviates(t *testing.T) {
	store := seed(t)
	mutate(t, store, func(m *fbnet.Mutation) error {
		obj, _ := m.FindOne("DerivedConfig", nil)
		return m.Update("DerivedConfig", obj.ID, map[string]any{"conforms": false})
	})
	rep, _ := run(store)
	if rep.ByKind()[ConfigDeviates] != 1 {
		t.Errorf("anomalies = %v", rep.Anomalies)
	}
}

func TestPlannedCircuitNotAudited(t *testing.T) {
	store := seed(t)
	// Planned (not yet production) circuits are expected to be absent.
	mutate(t, store, func(m *fbnet.Mutation) error {
		cir, _ := m.FindOne("Circuit", nil)
		if err := m.Update("Circuit", cir.ID, map[string]any{"status": "planned"}); err != nil {
			return err
		}
		// Remove the derived circuit too: no longer unexpected because no
		// anomaly should fire either way for a planned design.
		obj, _ := m.FindOne("DerivedCircuit", nil)
		return m.Delete("DerivedCircuit", obj.ID)
	})
	rep, _ := run(store)
	if rep.ByKind()[CircuitMissing] != 0 {
		t.Errorf("planned circuit audited as missing: %v", rep.Anomalies)
	}
}

func TestUnpolledInterfaceNotFlagged(t *testing.T) {
	store := seed(t)
	// Remove the derived interface rows entirely: no poll data, no claim.
	mutate(t, store, func(m *fbnet.Mutation) error {
		objs, _ := m.Find("DerivedInterface", nil)
		for _, o := range objs {
			if err := m.Delete("DerivedInterface", o.ID); err != nil {
				return err
			}
		}
		return nil
	})
	rep, _ := run(store)
	if rep.ByKind()[InterfaceDown] != 0 {
		t.Errorf("unpolled interfaces flagged: %v", rep.Anomalies)
	}
}

func TestReportOrderingDeterministic(t *testing.T) {
	store := seed(t)
	mutate(t, store, func(m *fbnet.Mutation) error {
		for _, name := range []string{"devA", "devB"} {
			obj, _ := m.FindOne("DerivedDevice", fbnet.Eq("name", name))
			if err := m.Delete("DerivedDevice", obj.ID); err != nil {
				return err
			}
		}
		return nil
	})
	rep1, _ := run(store)
	rep2, _ := run(store)
	if len(rep1.Anomalies) != 2 || len(rep2.Anomalies) != 2 {
		t.Fatalf("anomalies = %d/%d", len(rep1.Anomalies), len(rep2.Anomalies))
	}
	for i := range rep1.Anomalies {
		if rep1.Anomalies[i] != rep2.Anomalies[i] {
			t.Error("audit order is not deterministic")
		}
	}
	if rep1.Anomalies[0].Device != "devA" {
		t.Errorf("ordering = %v", rep1.Anomalies)
	}
}
