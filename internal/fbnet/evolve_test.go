package fbnet

import (
	"fmt"
	"strings"
	"testing"

	"github.com/robotron-net/robotron/internal/relstore"
)

// TestAddFieldLiveEvolution covers the §6.1 model-churn mechanics: a new
// nullable attribute lands on a model with existing objects.
func TestAddFieldLiveEvolution(t *testing.T) {
	s := newTestStore(t)
	ids := seedFig4(t, s)

	err := s.AddField("Device", Field{
		Name: "asset_url", Type: relstore.ColString, Nullable: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Existing objects read the new field as NULL.
	obj, err := s.GetByID("Device", ids["psw"])
	if err != nil {
		t.Fatal(err)
	}
	if obj.Value("asset_url") != nil {
		t.Errorf("pre-existing object has non-NULL new field: %v", obj.Value("asset_url"))
	}
	// The field is writable and queryable.
	if _, err := s.Mutate(func(m *Mutation) error {
		return m.Update("Device", ids["psw"], map[string]any{"asset_url": "https://assets/psw-a"})
	}); err != nil {
		t.Fatal(err)
	}
	objs, err := s.Find("Device", Eq("asset_url", "https://assets/psw-a"))
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != 1 || objs[0].ID != ids["psw"] {
		t.Errorf("query on new field = %v", objs)
	}
	// And visible in the registry.
	m, _ := s.Registry().Model("Device")
	if _, ok := m.Field("asset_url"); !ok {
		t.Error("registry does not show the new field")
	}
}

func TestAddFieldValidatorEnforced(t *testing.T) {
	s := newTestStore(t)
	ids := seedFig4(t, s)
	err := s.AddField("Device", Field{
		Name: "serial", Type: relstore.ColString, Nullable: true,
		Validate: func(v any) error {
			if !strings.HasPrefix(v.(string), "SN-") {
				return fmt.Errorf("serials start with SN-")
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Mutate(func(m *Mutation) error {
		return m.Update("Device", ids["psw"], map[string]any{"serial": "bogus"})
	})
	if err == nil {
		t.Error("validator on evolved field not enforced")
	}
	if _, err := s.Mutate(func(m *Mutation) error {
		return m.Update("Device", ids["psw"], map[string]any{"serial": "SN-123"})
	}); err != nil {
		t.Errorf("valid value rejected: %v", err)
	}
}

func TestAddFieldRejections(t *testing.T) {
	s := newTestStore(t)
	seedFig4(t, s)
	cases := []struct {
		name  string
		model string
		f     Field
	}{
		{"unknown model", "Ghost", Field{Name: "x", Type: relstore.ColString, Nullable: true}},
		{"relation field", "Device", Field{Name: "rack", Kind: RelationField, Target: "Rack", Nullable: true}},
		{"non-nullable", "Device", Field{Name: "x", Type: relstore.ColString}},
		{"duplicate", "Device", Field{Name: "role", Type: relstore.ColString, Nullable: true}},
		{"reverse-name collision", "Device", Field{Name: "linecards", Type: relstore.ColString, Nullable: true}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := s.AddField(c.model, c.f); err == nil {
				t.Errorf("AddField(%s, %+v) should fail", c.model, c.f)
			}
		})
	}
}

// TestAddFieldReplicates: schema evolution rides the binlog like any
// write, so replicas (and promoted masters) converge.
func TestAddFieldReplicates(t *testing.T) {
	s := newTestStore(t)
	ids := seedFig4(t, s)
	rep := relstore.NewReplica(s.DB(), "replica")
	if err := rep.CatchUp(); err != nil {
		t.Fatal(err)
	}
	if err := s.AddField("Device", Field{Name: "asset_url", Type: relstore.ColString, Nullable: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Mutate(func(m *Mutation) error {
		return m.Update("Device", ids["psw"], map[string]any{"asset_url": "https://x"})
	}); err != nil {
		t.Fatal(err)
	}
	if err := rep.CatchUp(); err != nil {
		t.Fatal(err)
	}
	view := s.ReadOnlyView(rep.DB())
	obj, err := view.GetByID("Device", ids["psw"])
	if err != nil {
		t.Fatal(err)
	}
	if obj.String("asset_url") != "https://x" {
		t.Errorf("replica value = %q", obj.String("asset_url"))
	}
}

// TestComputedFields covers the §6.1 asset_url mechanic: derived on the
// fly, readable through the read API, and re-registrable as the logic
// evolves.
func TestComputedFields(t *testing.T) {
	s := newTestStore(t)
	ids := seedFig4(t, s)
	res, err := s.Get("Device", []string{"name", "asset_url"}, Eq("id", ids["psw"]))
	if err != nil {
		t.Fatal(err)
	}
	if got := res[0].Fields["asset_url"]; got != "https://assets.example.com/device/psw-a.pop1" {
		t.Errorf("asset_url = %v", got)
	}
	// Computed fields participate in queries.
	objs, err := s.Find("Device", Contains("asset_url", "psw-a"))
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != 1 {
		t.Errorf("query on computed field matched %d", len(objs))
	}
	// Indirect access through a relation works; traversal through the
	// computed field does not.
	res, err = s.Get("Linecard", []string{"device.asset_url"}, nil)
	if err != nil || len(res) == 0 {
		t.Fatalf("indirect computed: %v", err)
	}
	if _, err := s.Get("Device", []string{"asset_url.x"}, nil); err == nil {
		t.Error("traversing a computed field should fail")
	}
	// The derivation logic changes (§6.1 "Logic Changes").
	if err := s.Registry().RegisterComputed("Device", "asset_url", func(o Object) any {
		return "https://assets-v2.example.com/" + o.String("name")
	}); err != nil {
		t.Fatal(err)
	}
	res, _ = s.Get("Device", []string{"asset_url"}, Eq("id", ids["psw"]))
	if got := res[0].Fields["asset_url"]; got != "https://assets-v2.example.com/psw-a.pop1" {
		t.Errorf("evolved asset_url = %v", got)
	}
	// Collisions are rejected.
	if err := s.Registry().RegisterComputed("Device", "name", func(o Object) any { return "" }); err == nil {
		t.Error("collision with stored field should fail")
	}
	if err := s.Registry().RegisterComputed("Device", "linecards", func(o Object) any { return "" }); err == nil {
		t.Error("collision with reverse connection should fail")
	}
	if err := s.Registry().RegisterComputed("Ghost", "x", func(o Object) any { return "" }); err == nil {
		t.Error("unknown model should fail")
	}
}
