package fbnet

import (
	"fmt"
	"strings"
	"testing"

	"github.com/robotron-net/robotron/internal/relstore"
	"github.com/robotron-net/robotron/internal/telemetry"
)

func newTestStore(t testing.TB) *Store {
	t.Helper()
	return newTestStoreOn(t, nil)
}

// newTestStoreOn is newTestStore counting into reg.
func newTestStoreOn(t testing.TB, reg *telemetry.Registry) *Store {
	t.Helper()
	db := relstore.NewDB("master", reg)
	s, err := Open(db, NewCatalog())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// seedFig4 builds the PSWa-PR1 portmap of the paper's Figure 4: two
// devices, a 20G link group of two circuits, aggregated interfaces with
// /127 prefixes, and an eBGP session.
func seedFig4(t testing.TB, s *Store) map[string]int64 {
	t.Helper()
	ids := map[string]int64{}
	_, err := s.Mutate(func(m *Mutation) error {
		region, err := m.Create("Region", map[string]any{"name": "apac"})
		if err != nil {
			return err
		}
		site, err := m.Create("Site", map[string]any{"name": "pop1", "kind": "pop", "region": region})
		if err != nil {
			return err
		}
		v1, err := m.Create("Vendor", map[string]any{"name": "vendorA", "syntax": "vendor1"})
		if err != nil {
			return err
		}
		hw, err := m.Create("HardwareProfile", map[string]any{
			"name": "Router_Vendor1", "vendor": v1, "num_slots": 4, "ports_per_linecard": 8, "port_speed_mbps": 10000,
		})
		if err != nil {
			return err
		}
		psw, err := m.Create("Device", map[string]any{
			"name": "psw-a.pop1", "role": "psw", "site": site, "hw_profile": hw, "drain_state": "undrained",
		})
		if err != nil {
			return err
		}
		pr, err := m.Create("Device", map[string]any{
			"name": "pr1.pop1", "role": "pr", "site": site, "hw_profile": hw, "drain_state": "undrained",
		})
		if err != nil {
			return err
		}
		ids["psw"], ids["pr"] = psw, pr

		mkIfaces := func(dev int64, devTag string) (agg int64, pifs []int64, err error) {
			lc, err := m.Create("Linecard", map[string]any{"slot": 1, "device": dev})
			if err != nil {
				return 0, nil, err
			}
			agg, err = m.Create("AggregatedInterface", map[string]any{
				"name": "ae0", "number": 0, "mtu": 9192, "device": dev,
			})
			if err != nil {
				return 0, nil, err
			}
			for p := 1; p <= 2; p++ {
				pif, err := m.Create("PhysicalInterface", map[string]any{
					"name": fmt.Sprintf("et1/%d", p), "speed_mbps": 10000,
					"linecard": lc, "agg_interface": agg,
				})
				if err != nil {
					return 0, nil, err
				}
				pifs = append(pifs, pif)
				ids[fmt.Sprintf("%s_pif%d", devTag, p)] = pif
			}
			return agg, pifs, nil
		}
		pswAgg, pswPifs, err := mkIfaces(psw, "psw")
		if err != nil {
			return err
		}
		prAgg, prPifs, err := mkIfaces(pr, "pr")
		if err != nil {
			return err
		}
		ids["psw_agg"], ids["pr_agg"] = pswAgg, prAgg

		lg, err := m.Create("LinkGroup", map[string]any{
			"name": "psw-a.pop1--pr1.pop1", "a_device": psw, "z_device": pr, "capacity_mbps": 20000,
		})
		if err != nil {
			return err
		}
		ids["lg"] = lg
		for i := 0; i < 2; i++ {
			cir, err := m.Create("Circuit", map[string]any{
				"circuit_id":  fmt.Sprintf("cir-%d", i+1),
				"a_interface": pswPifs[i], "z_interface": prPifs[i],
				"link_group": lg, "status": "production",
			})
			if err != nil {
				return err
			}
			ids[fmt.Sprintf("cir%d", i+1)] = cir
		}
		pswPfx, err := m.Create("V6Prefix", map[string]any{
			"prefix": "2401:db00::/127", "interface": pswAgg, "purpose": "p2p",
		})
		if err != nil {
			return err
		}
		prPfx, err := m.Create("V6Prefix", map[string]any{
			"prefix": "2401:db00::1/127", "interface": prAgg, "purpose": "p2p",
		})
		if err != nil {
			return err
		}
		ids["psw_pfx"], ids["pr_pfx"] = pswPfx, prPfx
		bgp, err := m.Create("BgpV6Session", map[string]any{
			"local_device": psw, "remote_device": pr, "local_prefix": pswPfx,
			"remote_addr": "2401:db00::1", "local_as": 65001, "remote_as": 65000,
			"session_type": "ebgp",
		})
		if err != nil {
			return err
		}
		ids["bgp"] = bgp
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return ids
}

func TestRegistryReverseNames(t *testing.T) {
	reg := NewCatalog()
	// Linecard.device -> Device gains reverse "linecards" (the paper's
	// §4.2.1 example).
	var found bool
	for _, rv := range reg.Reverses("Device") {
		if rv.name == "linecards" && rv.model == "Linecard" {
			found = true
		}
	}
	if !found {
		t.Error(`Device should expose reverse connection "linecards"`)
	}
}

func TestRegistryRejectsBadModels(t *testing.T) {
	r := NewRegistry()
	if err := r.Register(Model{Name: ""}); err == nil {
		t.Error("empty name should fail")
	}
	r.MustRegister(Model{Name: "A", Fields: []Field{{Name: "x", Type: relstore.ColString}}})
	if err := r.Register(Model{Name: "A"}); err == nil {
		t.Error("duplicate model should fail")
	}
	if err := r.Register(Model{Name: "B", Fields: []Field{
		{Name: "r", Kind: RelationField, Target: "Missing"},
	}}); err == nil {
		t.Error("unknown target should fail")
	}
	if err := r.Register(Model{Name: "C", Fields: []Field{
		{Name: "r1", Kind: RelationField, Target: "A"},
		{Name: "r2", Kind: RelationField, Target: "A"},
	}}); err == nil || !strings.Contains(err.Error(), "reverse name") {
		t.Errorf("ambiguous reverse names should fail, got %v", err)
	}
	if err := r.Register(Model{Name: "D", Fields: []Field{
		{Name: "x", Type: relstore.ColString}, {Name: "x", Type: relstore.ColInt},
	}}); err == nil {
		t.Error("duplicate field should fail")
	}
}

func TestToSnakeAndReverseNames(t *testing.T) {
	cases := map[string]string{
		"PhysicalInterface": "physical_interface",
		"BgpV6Session":      "bgp_v6_session",
		"Device":            "device",
		"ASN":               "asn",
	}
	for in, want := range cases {
		if got := toSnake(in); got != want {
			t.Errorf("toSnake(%s) = %s, want %s", in, got, want)
		}
	}
	if got := defaultReverseName("PhysicalInterface"); got != "physical_interfaces" {
		t.Errorf("defaultReverseName = %s", got)
	}
	if got := defaultReverseName("RoutingPolicy"); got != "routing_policies" {
		t.Errorf("plural of y = %s", got)
	}
}

func TestCatalogRegisters(t *testing.T) {
	reg := NewCatalog()
	nDesired := len(reg.ModelsInGroup(Desired))
	nDerived := len(reg.ModelsInGroup(Derived))
	if nDesired < 25 {
		t.Errorf("Desired catalog has only %d models", nDesired)
	}
	if nDerived < 6 {
		t.Errorf("Derived catalog has only %d models", nDerived)
	}
	// Principle 2 (§4.1.2): PhysicalInterface has Desired and Derived
	// counterparts; only the Derived one carries oper_status.
	des, _ := reg.Model("PhysicalInterface")
	if _, has := des.Field("oper_status"); has {
		t.Error("Desired PhysicalInterface must not have oper_status")
	}
	der, _ := reg.Model("DerivedInterface")
	if _, has := der.Field("oper_status"); !has {
		t.Error("DerivedInterface must have oper_status")
	}
}

func TestFig4PortmapObjectGraph(t *testing.T) {
	s := newTestStore(t)
	ids := seedFig4(t, s)
	// Indirect read: linecard slot + device name (the paper's read-API
	// example).
	res, err := s.Get("Linecard", []string{"slot", "device.name"}, Eq("device.name", "psw-a.pop1"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("got %d linecards, want 1", len(res))
	}
	if res[0].Fields["device.name"] != "psw-a.pop1" || res[0].Fields["slot"] != int64(1) {
		t.Errorf("result = %+v", res[0].Fields)
	}
	// Reverse connection: device.linecards.
	res, err = s.Get("Device", []string{"name", "linecards"}, Eq("id", ids["psw"]))
	if err != nil {
		t.Fatal(err)
	}
	lcs, ok := res[0].Fields["linecards"].([]any)
	if !ok || len(lcs) != 1 {
		t.Errorf("linecards reverse = %#v", res[0].Fields["linecards"])
	}
	// Deep path: circuit -> a_interface -> linecard -> device -> name.
	res, err = s.Get("Circuit", []string{"circuit_id", "a_interface.linecard.device.name"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("got %d circuits", len(res))
	}
	for _, r := range res {
		if r.Fields["a_interface.linecard.device.name"] != "psw-a.pop1" {
			t.Errorf("deep path = %v", r.Fields)
		}
	}
}

func TestQueryOperators(t *testing.T) {
	s := newTestStore(t)
	seedFig4(t, s)
	cases := []struct {
		name string
		q    Query
		want int
	}{
		{"eq", Eq("role", "psw"), 1},
		{"ne", Ne("role", "psw"), 1},
		{"in", In("role", "psw", "pr"), 2},
		{"regexp", Regexp("name", `^pr\d+\.`), 1},
		{"contains", Contains("name", "pop1"), 2},
		{"and", And(Eq("role", "psw"), Contains("name", "pop1")), 1},
		{"or", Or(Eq("role", "psw"), Eq("role", "pr")), 2},
		{"not", Not(Eq("role", "psw")), 1},
		{"all", All(), 2},
		{"nil query", nil, 2},
		{"indirect eq", Eq("site.name", "pop1"), 2},
		{"indirect through region", Eq("site.region.name", "apac"), 2},
		{"no match", Eq("name", "missing"), 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			objs, err := s.Find("Device", c.q)
			if err != nil {
				t.Fatal(err)
			}
			if len(objs) != c.want {
				t.Errorf("got %d devices, want %d", len(objs), c.want)
			}
		})
	}
}

func TestQueryNumericComparisons(t *testing.T) {
	s := newTestStore(t)
	seedFig4(t, s)
	for _, c := range []struct {
		q    Query
		want int
	}{
		{Gt("speed_mbps", 1000), 4},
		{Gt("speed_mbps", 10000), 0},
		{Ge("speed_mbps", 10000), 4},
		{Lt("speed_mbps", 10000), 0},
		{Le("speed_mbps", 10000), 4},
	} {
		objs, err := s.Find("PhysicalInterface", c.q)
		if err != nil {
			t.Fatal(err)
		}
		if len(objs) != c.want {
			t.Errorf("%s: got %d, want %d", c.q, len(objs), c.want)
		}
	}
}

func TestQueryThroughReverseConnection(t *testing.T) {
	s := newTestStore(t)
	seedFig4(t, s)
	// Devices that have a linecard in slot 1: both.
	objs, err := s.Find("Device", Eq("linecards.slot", 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != 2 {
		t.Errorf("reverse query matched %d devices, want 2", len(objs))
	}
	// Devices owning aggregated interface ae0 with a /127 v6 prefix.
	objs, err = s.Find("Device", Contains("aggregated_interfaces.v6_prefixes.prefix", "/127"))
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != 2 {
		t.Errorf("deep reverse query matched %d devices, want 2", len(objs))
	}
}

func TestQueryIsNull(t *testing.T) {
	s := newTestStore(t)
	ids := seedFig4(t, s)
	objs, err := s.Find("Circuit", IsNull("provider"))
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != 2 {
		t.Errorf("IsNull matched %d circuits, want 2", len(objs))
	}
	_ = ids
}

func TestQueryErrors(t *testing.T) {
	s := newTestStore(t)
	seedFig4(t, s)
	if _, err := s.Find("NoSuchModel", All()); err == nil {
		t.Error("unknown model should fail")
	}
	if _, err := s.Find("Device", Eq("bogus_field", 1)); err == nil {
		t.Error("unknown field should fail")
	}
	if _, err := s.Find("Device", Eq("site.bogus", 1)); err == nil {
		t.Error("unknown indirect field should fail")
	}
	if _, err := s.Find("Device", Regexp("name", "(unclosed")); err == nil {
		t.Error("bad regexp should fail")
	}
	if _, err := s.Find("Device", Eq("role.x", 1)); err == nil {
		t.Error("path through value field should fail")
	}
}

func TestMutationRollsBackAtomically(t *testing.T) {
	s := newTestStore(t)
	seedFig4(t, s)
	before, _ := s.Count("Device")
	_, err := s.Mutate(func(m *Mutation) error {
		if _, err := m.Create("Region", map[string]any{"name": "emea"}); err != nil {
			return err
		}
		return fmt.Errorf("simulated failure")
	})
	if err == nil {
		t.Fatal("expected error")
	}
	after, _ := s.Count("Device")
	if before != after {
		t.Error("device count changed despite rollback")
	}
	if n, _ := s.Count("Region"); n != 1 {
		t.Errorf("region count = %d after rollback, want 1", n)
	}
}

func TestMutationChangeStats(t *testing.T) {
	s := newTestStore(t)
	ids := seedFig4(t, s)
	stats, err := s.Mutate(func(m *Mutation) error {
		if err := m.Update("Device", ids["psw"], map[string]any{"drain_state": "drained"}); err != nil {
			return err
		}
		_, err := m.Create("Region", map[string]any{"name": "emea"})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Created) != 1 || len(stats.Modified) != 1 || len(stats.Deleted) != 0 {
		t.Errorf("stats = %+v", stats)
	}
	if stats.Total() != 2 {
		t.Errorf("Total = %d", stats.Total())
	}
	by := stats.ByModel()
	if by["Region"] != 1 || by["Device"] != 1 {
		t.Errorf("ByModel = %v", by)
	}
}

func TestDeleteDeviceCascades(t *testing.T) {
	s := newTestStore(t)
	ids := seedFig4(t, s)
	stats, err := s.Mutate(func(m *Mutation) error {
		return m.Delete("Device", ids["psw"])
	})
	if err != nil {
		t.Fatal(err)
	}
	// Cascade: device + linecard + 2 pifs + agg + v6 prefix + bgp session
	// + link group (+ its circuits) are all deleted.
	if len(stats.Deleted) < 7 {
		t.Errorf("cascade deleted only %d objects: %+v", len(stats.Deleted), stats.Deleted)
	}
	if n, _ := s.Count("BgpV6Session"); n != 0 {
		t.Error("BGP session should cascade with its local device")
	}
	if n, _ := s.Count("LinkGroup"); n != 0 {
		t.Error("link group should cascade with its device")
	}
	if n, _ := s.Count("Circuit"); n != 0 {
		t.Error("circuits should cascade with their link group")
	}
	// The PR and its interfaces survive.
	if _, err := s.GetByID("Device", ids["pr"]); err != nil {
		t.Errorf("pr should survive: %v", err)
	}
}

func TestValidatorsEnforced(t *testing.T) {
	s := newTestStore(t)
	ids := seedFig4(t, s)
	cases := []struct {
		name   string
		model  string
		fields map[string]any
	}{
		{"bad v6 prefix", "V6Prefix", map[string]any{"prefix": "10.0.0.0/8", "purpose": "p2p"}},
		{"bad v4 prefix", "V4Prefix", map[string]any{"prefix": "2401:db00::/64", "purpose": "p2p"}},
		{"bad role", "Device", map[string]any{"name": "x", "role": "spine", "site": ids["psw"], "hw_profile": int64(1), "drain_state": "undrained"}},
		{"empty name", "Region", map[string]any{"name": ""}},
		{"bad ip", "Device", map[string]any{"name": "y", "role": "pr", "site": int64(1), "hw_profile": int64(1), "drain_state": "undrained", "mgmt_ip": "not-an-ip"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := s.Mutate(func(m *Mutation) error {
				_, err := m.Create(c.model, c.fields)
				return err
			})
			if err == nil {
				t.Errorf("Create(%s, %v) should fail validation", c.model, c.fields)
			}
		})
	}
}

func TestDuplicatePrefixRejected(t *testing.T) {
	s := newTestStore(t)
	seedFig4(t, s)
	_, err := s.Mutate(func(m *Mutation) error {
		_, err := m.Create("V6Prefix", map[string]any{"prefix": "2401:db00::/127", "purpose": "p2p"})
		return err
	})
	if err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("duplicate prefix should be rejected, got %v", err)
	}
}

func TestFindOne(t *testing.T) {
	s := newTestStore(t)
	seedFig4(t, s)
	obj, err := s.FindOne("Device", Eq("role", "pr"))
	if err != nil {
		t.Fatal(err)
	}
	if obj.String("name") != "pr1.pop1" {
		t.Errorf("FindOne = %+v", obj)
	}
	if _, err := s.FindOne("Device", Eq("role", "bb")); err == nil {
		t.Error("zero matches should fail")
	}
	if _, err := s.FindOne("Device", All()); err == nil {
		t.Error("many matches should fail")
	}
}

func TestMutationSeesUncommitted(t *testing.T) {
	s := newTestStore(t)
	seedFig4(t, s)
	_, err := s.Mutate(func(m *Mutation) error {
		id, err := m.Create("Region", map[string]any{"name": "emea"})
		if err != nil {
			return err
		}
		obj, err := m.FindOne("Region", Eq("name", "emea"))
		if err != nil {
			return fmt.Errorf("uncommitted object invisible inside mutation: %w", err)
		}
		if obj.ID != id {
			return fmt.Errorf("id mismatch")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRelatedModelsFig13(t *testing.T) {
	reg := NewCatalog()
	// Device is the hub: many models relate to it.
	rel := reg.RelatedModels("Device")
	if len(rel) < 8 {
		t.Errorf("Device related models = %d (%v), want >= 8", len(rel), rel)
	}
	// Circuit relates to PhysicalInterface (Fig. 5).
	var hasPif bool
	for _, m := range reg.RelatedModels("Circuit") {
		if m == "PhysicalInterface" {
			hasPif = true
		}
	}
	if !hasPif {
		t.Error("Circuit should relate to PhysicalInterface")
	}
	// Self-relations don't count.
	for _, m := range reg.RelatedModels("Device") {
		if m == "Device" {
			t.Error("RelatedModels must exclude the model itself")
		}
	}
}

func TestReadOnlyViewOnReplica(t *testing.T) {
	s := newTestStore(t)
	ids := seedFig4(t, s)
	rep := relstore.NewReplica(s.DB(), "replica1")
	if err := rep.CatchUp(); err != nil {
		t.Fatal(err)
	}
	view := s.ReadOnlyView(rep.DB())
	obj, err := view.GetByID("Device", ids["psw"])
	if err != nil {
		t.Fatal(err)
	}
	if obj.String("name") != "psw-a.pop1" {
		t.Errorf("replica view = %+v", obj)
	}
	res, err := view.Get("Circuit", []string{"a_interface.linecard.device.name"}, nil)
	if err != nil || len(res) != 2 {
		t.Errorf("replica deep query: %v, %d results", err, len(res))
	}
}

func BenchmarkFindIndirect(b *testing.B) {
	s := newTestStore(b)
	seedFig4(b, s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		objs, err := s.Find("PhysicalInterface", Eq("linecard.device.name", "psw-a.pop1"))
		if err != nil || len(objs) != 2 {
			b.Fatalf("%v %d", err, len(objs))
		}
	}
}

func BenchmarkMutateCreateObjects(b *testing.B) {
	s := newTestStore(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, err := s.Mutate(func(m *Mutation) error {
			_, err := m.Create("Region", map[string]any{"name": fmt.Sprintf("r%d", i)})
			return err
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}
