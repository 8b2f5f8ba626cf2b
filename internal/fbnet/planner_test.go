package fbnet

import (
	"fmt"
	"testing"

	"github.com/robotron-net/robotron/internal/relstore"
	"github.com/robotron-net/robotron/internal/telemetry"
)

// bigStore seeds n devices for planner benchmarks/tests.
func bigStore(t testing.TB, n int) *Store {
	t.Helper()
	return bigStoreOn(t, n, nil)
}

// bigStoreOn is bigStore counting into reg.
func bigStoreOn(t testing.TB, n int, reg *telemetry.Registry) *Store {
	t.Helper()
	s := newTestStoreOn(t, reg)
	_, err := s.Mutate(func(m *Mutation) error {
		region, _ := m.Create("Region", map[string]any{"name": "r"})
		site, _ := m.Create("Site", map[string]any{"name": "pop1", "kind": "pop", "region": region})
		v, _ := m.Create("Vendor", map[string]any{"name": "v1", "syntax": "vendor1"})
		hw, _ := m.Create("HardwareProfile", map[string]any{
			"name": "p", "vendor": v, "num_slots": 2, "ports_per_linecard": 8, "port_speed_mbps": 10000})
		for i := 0; i < n; i++ {
			if _, err := m.Create("Device", map[string]any{
				"name": fmt.Sprintf("dev%05d", i), "role": "psw", "site": site,
				"hw_profile": hw, "drain_state": "undrained", "mgmt_ip": "10.9.9.9",
			}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// scan is q answered by the full scan: an Or with a branch no index
// answers (Not) is planned as a scan, and Not(All()) matches nothing.
func scan(q Query) Query { return Or(q, Not(All())) }

// TestPlannerMatchesScan: the indexed fast path returns exactly what the
// scan would, including misses, And-composition and Or-composition.
func TestPlannerMatchesScan(t *testing.T) {
	s := bigStore(t, 200)
	cases := []Query{
		Eq("name", "dev00042"),
		Eq("name", "missing"),
		Eq("id", int64(5)),
		Eq("id", int64(999999)),
		Eq("id", "not-an-id"),
		And(Eq("name", "dev00042"), Eq("role", "psw")),
		And(Eq("name", "dev00042"), Eq("role", "pr")),  // name hits, role filters out
		And(Eq("role", "psw"), Eq("name", "dev00007")), // indexable conjunct second
		// secondary index
		Eq("role", "psw"),
		Eq("role", "pr"),
		Eq("drain_state", "drained"),
		// In over unique / secondary / id indexes
		In("name", "dev00001", "dev00002", "missing"),
		In("name"),
		In("id", int64(1), 2, int64(999999)),
		In("role", "psw", "pr"),
		// dotted paths answered backward through ref indexes
		Eq("site.name", "pop1"),
		Eq("site.name", "nope"),
		Eq("site.region.name", "r"),
		Eq("site.kind", "pop"),
		Eq("hw_profile.vendor.name", "v1"),
		// Or of indexable branches: the union of their candidates
		Or(Eq("name", "dev00042"), Eq("name", "dev00007")),
		Or(Eq("name", "dev00042"), Eq("name", "dev00042")),
		Or(Eq("id", int64(5)), Eq("name", "dev00001"), Eq("name", "missing")),
		Or(Eq("role", "pr"), Eq("name", "dev00003")),
		Or(And(Eq("name", "dev00042"), Eq("role", "psw")), And(Eq("name", "dev00043"), Eq("role", "pr"))),
		Or(Eq("site.name", "nope"), In("name", "dev00010", "dev00011")),
		Or(Or(Eq("name", "dev00001"), Eq("name", "dev00002")), Eq("id", int64(9))),
		Or(),
		// Or with one branch no index answers: the scan
		Or(Eq("name", "dev00042"), Eq("mgmt_ip", "10.9.9.9")),
		Or(Eq("name", "dev00042"), Contains("name", "0019")),
		Or(Not(Eq("role", "psw")), Eq("name", "dev00005")),
	}
	for _, q := range cases {
		planned, err := s.Find("Device", q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		scanned, err := s.Find("Device", scan(q))
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if len(planned) != len(scanned) {
			t.Errorf("%s: planned %d rows, scan %d", q, len(planned), len(scanned))
			continue
		}
		for i := range planned {
			if planned[i].ID != scanned[i].ID {
				t.Errorf("%s: row %d differs: %d vs %d", q, i, planned[i].ID, scanned[i].ID)
			}
		}
	}
}

// TestPlannerPlansOrByUnion: an Or whose every branch an index answers is
// planned, however deep the branches nest; one branch the planner cannot
// answer sends the whole Or to the scan, once.
func TestPlannerPlansOrByUnion(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := bigStoreOn(t, 50, reg)
	count := func(strategy string) float64 {
		v, _ := reg.Value("robotron_fbnet_queries_planned_total", telemetry.L("strategy", strategy)...)
		return v
	}
	for _, c := range []struct {
		q        Query
		strategy string
		found    int
	}{
		{Or(Eq("name", "dev00042"), Eq("name", "dev00007")), "indexed", 2},
		{Or(And(Eq("name", "dev00042"), Eq("role", "psw")), And(Eq("role", "pr"), Eq("name", "dev00043"))), "indexed", 1},
		{Or(Eq("site.name", "pop1"), Eq("id", int64(1))), "indexed", 50},
		{Or(Eq("name", "dev00042"), Eq("mgmt_ip", "10.9.9.9")), "scan", 50},
		{Or(Eq("name", "dev00042"), Or(Eq("name", "dev00001"), Contains("name", "dev0000"))), "scan", 11},
	} {
		indexed, scanned := count("indexed"), count("scan")
		objs, err := s.Find("Device", c.q)
		if err != nil || len(objs) != c.found {
			t.Fatalf("%s: found %d (%v), want %d", c.q, len(objs), err, c.found)
		}
		want := map[string][2]float64{"indexed": {1, 0}, "scan": {0, 1}}[c.strategy]
		if got := [2]float64{count("indexed") - indexed, count("scan") - scanned}; got != want {
			t.Errorf("%s: planned %v indexed and %v scanned, want the one query %s", c.q, got[0], got[1], c.strategy)
		}
	}
}

// TestPlannerInsideMutation: the fast path also works against uncommitted
// transaction state.
func TestPlannerInsideMutation(t *testing.T) {
	s := bigStore(t, 10)
	_, err := s.Mutate(func(m *Mutation) error {
		id, err := m.Create("Region", map[string]any{"name": "fresh"})
		if err != nil {
			return err
		}
		obj, err := m.FindOne("Region", Eq("name", "fresh"))
		if err != nil {
			return err
		}
		if obj.ID != id {
			return fmt.Errorf("planner missed uncommitted unique row")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPlannerUnindexedFallsBack: Eq on a field with no index of any kind
// (mgmt_ip) scans and finds everything.
func TestPlannerUnindexedFallsBack(t *testing.T) {
	s := bigStore(t, 50)
	objs, err := s.Find("Device", Eq("mgmt_ip", "10.9.9.9"))
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != 50 {
		t.Errorf("unindexed Eq found %d rows, want 50", len(objs))
	}
}

// TestPlannerRelationEq: Eq on a relation field is answered from the fk
// refIndex, including inside a mutation seeing uncommitted rows.
func TestPlannerRelationEq(t *testing.T) {
	s := bigStore(t, 20)
	site, err := s.FindOne("Site", Eq("name", "pop1"))
	if err != nil {
		t.Fatal(err)
	}
	objs, err := s.Find("Device", Eq("site", site.ID))
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != 20 {
		t.Fatalf("Eq(site) found %d devices, want 20", len(objs))
	}
	scanned, err := s.Find("Device", scan(Eq("site", site.ID)))
	if err != nil {
		t.Fatal(err)
	}
	if len(scanned) != len(objs) {
		t.Fatalf("planned %d != scanned %d", len(objs), len(scanned))
	}
	_, err = s.Mutate(func(m *Mutation) error {
		hw, err := m.FindOne("HardwareProfile", Eq("name", "p"))
		if err != nil {
			return err
		}
		if _, err := m.Create("Device", map[string]any{
			"name": "fresh", "role": "psw", "site": site.ID,
			"hw_profile": hw.ID, "drain_state": "undrained",
		}); err != nil {
			return err
		}
		in, err := m.Find("Device", Eq("site", site.ID))
		if err != nil {
			return err
		}
		if len(in) != 21 {
			return fmt.Errorf("planner missed uncommitted fk row: got %d, want 21", len(in))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

var sinkObjs []Object

func BenchmarkFindOneIndexed(b *testing.B) {
	s := bigStore(b, 5000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		objs, err := s.Find("Device", Eq("name", "dev02500"))
		if err != nil || len(objs) != 1 {
			b.Fatalf("%v %d", err, len(objs))
		}
		sinkObjs = objs
	}
}

func BenchmarkFindOneScan(b *testing.B) {
	s := bigStore(b, 5000)
	q := scan(Eq("name", "dev02500"))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		objs, err := s.Find("Device", q)
		if err != nil || len(objs) != 1 {
			b.Fatalf("%v %d", err, len(objs))
		}
		sinkObjs = objs
	}
}

// multiSiteStore seeds many sites of fixed size so relationship lookups
// have a constant-size answer while the tables grow: devsPerSite devices
// per site, 2 linecards per device.
func multiSiteStore(tb testing.TB, sites, devsPerSite int) *Store {
	tb.Helper()
	s := newTestStore(tb)
	_, err := s.Mutate(func(m *Mutation) error {
		region, _ := m.Create("Region", map[string]any{"name": "r"})
		v, _ := m.Create("Vendor", map[string]any{"name": "v1", "syntax": "vendor1"})
		hw, _ := m.Create("HardwareProfile", map[string]any{
			"name": "p", "vendor": v, "num_slots": 2, "ports_per_linecard": 8, "port_speed_mbps": 10000})
		for si := 0; si < sites; si++ {
			site, err := m.Create("Site", map[string]any{
				"name": fmt.Sprintf("site%05d", si), "kind": "pop", "region": region})
			if err != nil {
				return err
			}
			for di := 0; di < devsPerSite; di++ {
				dev, err := m.Create("Device", map[string]any{
					"name": fmt.Sprintf("dev%05d.%05d", di, si), "role": "psw",
					"site": site, "hw_profile": hw, "drain_state": "undrained",
				})
				if err != nil {
					return err
				}
				for slot := 0; slot < 2; slot++ {
					if _, err := m.Create("Linecard", map[string]any{"slot": slot, "device": dev}); err != nil {
						return err
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// BenchmarkPlannerSiteDevices measures Eq("site.name", x) — a backward
// ref-index plan returning a constant 8 devices — against the scan, at
// growing table sizes. The indexed time should stay flat while the scan
// grows linearly.
func BenchmarkPlannerSiteDevices(b *testing.B) {
	for _, sites := range []int{50, 500} {
		s := multiSiteStore(b, sites, 8)
		q := Eq("site.name", "site00000")
		b.Run(fmt.Sprintf("indexed/sites=%d", sites), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				objs, err := s.Find("Device", q)
				if err != nil || len(objs) != 8 {
					b.Fatalf("%v %d", err, len(objs))
				}
				sinkObjs = objs
			}
		})
		b.Run(fmt.Sprintf("scan/sites=%d", sites), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				objs, err := s.Find("Device", scan(q))
				if err != nil || len(objs) != 8 {
					b.Fatalf("%v %d", err, len(objs))
				}
				sinkObjs = objs
			}
		})
	}
}

// BenchmarkPlannerDeviceLinecards measures the Eq("device.name", x)
// relationship lookup on Linecard — the paper's "linecards of device X"
// access — indexed vs scan at growing table sizes.
func BenchmarkPlannerDeviceLinecards(b *testing.B) {
	for _, sites := range []int{50, 500} {
		s := multiSiteStore(b, sites, 8)
		q := Eq("device.name", "dev00000.00000")
		b.Run(fmt.Sprintf("indexed/sites=%d", sites), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				objs, err := s.Find("Linecard", q)
				if err != nil || len(objs) != 2 {
					b.Fatalf("%v %d", err, len(objs))
				}
				sinkObjs = objs
			}
		})
		b.Run(fmt.Sprintf("scan/sites=%d", sites), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				objs, err := s.Find("Linecard", scan(q))
				if err != nil || len(objs) != 2 {
					b.Fatalf("%v %d", err, len(objs))
				}
				sinkObjs = objs
			}
		})
	}
}

// Guard against relstore.ErrNoRow leaking through the planner as a result.
func TestPlannerIdMissVsDownServer(t *testing.T) {
	s := bigStore(t, 5)
	objs, err := s.Find("Device", Eq("id", int64(12345)))
	if err != nil || len(objs) != 0 {
		t.Errorf("missing id: %v, %d rows", err, len(objs))
	}
	s.DB().SetDown(true)
	_, err = s.Find("Device", Eq("id", int64(1)))
	if err == nil {
		t.Error("down server should error, not return empty")
	}
	s.DB().SetDown(false)
	_ = relstore.ErrNoRow
}
