package configgen

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"github.com/robotron-net/robotron/internal/fbnet"
	"github.com/robotron-net/robotron/internal/relstore"
	"github.com/robotron-net/robotron/internal/verify"
)

// The memo is as exact as the intent model's device stamps: a column a
// derivation reads that the model does not stamp leaves configs stale, and
// one it stamps too widely costs re-derivations. The stamp test walks the
// schema, so a read added to derive later is covered without a new case.

// coldData derives every named device afresh: its data, or its error.
func coldData(g *Generator, names []string) map[string]any {
	out := make(map[string]any, len(names))
	for _, name := range names {
		if d, err := g.DeriveDeviceData(name); err != nil {
			out[name] = err.Error()
		} else {
			out[name] = d
		}
	}
	return out
}

// stampWorld is the memo histories' world plus an MPLS tunnel from a mesh
// router to a device with no sessions, a device with neither, and a V4
// session with both policies that speaks from a bundle's V4 prefix.
func stampWorld(t *testing.T) *memoHistory {
	t.Helper()
	h := newMemoHistory(t, 1)
	err := h.mutate(func(m *fbnet.Mutation) error {
		site, err := m.FindOne("Site", fbnet.Eq("name", "bb1"))
		if err != nil {
			return err
		}
		hw, err := m.FindOne("HardwareProfile", fbnet.Eq("name", "Backbone_Vendor2"))
		if err != nil {
			return err
		}
		head, err := m.FindOne("Device", fbnet.Eq("name", "bb1.bb1"))
		if err != nil {
			return err
		}
		var tail int64
		for i, name := range []string{"dr8.bb1", "dr9.bb1"} {
			id, err := m.Create("Device", map[string]any{
				"name": name, "role": "dr", "site": site.ID, "hw_profile": hw.ID, "drain_state": "undrained",
				"loopback_v6": fmt.Sprintf("2401:db00:eeee::%d/128", i), "mgmt_ip": fmt.Sprintf("10.9.0.%d", i),
			})
			if err != nil {
				return err
			}
			tail = id
		}
		if _, err = m.Create("MplsTunnel", map[string]any{
			"name": "te-stamp", "head_device": head.ID, "tail_device": tail, "bandwidth_mbps": int64(1000),
		}); err != nil {
			return err
		}
		pfxs, err := m.Find("V4Prefix", fbnet.Not(fbnet.IsNull("interface")))
		if err != nil || len(pfxs) == 0 {
			return fmt.Errorf("no V4 prefix on a bundle: %v", err)
		}
		pfx := pfxs[0]
		agg, err := m.Get("AggregatedInterface", pfx.Ref("interface"))
		if err != nil {
			return err
		}
		policy, err := m.FindOne("RoutingPolicy", fbnet.Eq("name", "isp-one-in"))
		if err != nil {
			return err
		}
		_, err = m.Create("BgpV4Session", map[string]any{
			"local_device": agg.Ref("device"), "remote_device": head.ID, "local_prefix": pfx.ID,
			"remote_addr": "10.9.9.1", "local_as": int64(65001), "remote_as": int64(65002), "session_type": "ebgp",
			"import_policy": policy.ID, "export_policy": policy.ID,
		})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestModelStampsWhatDerivationsRead flips, one at a time, every column of
// every row of every model that has rows (the first rowsPerModel of them),
// and cold-derives every device after each flip. Each flip sets the column
// to a value its validator accepts — another row's value or reference, a
// fresh name, address or number, or null. The model stamps rows, not
// columns (a device row's change stamps its peers' configs, a session's
// both ends, whatever column moved), so the test holds it to two rules:
// the names it hands the memo after a flip include every device whose
// derived data the flip changed, and, over all the flips of one row, they
// are exactly the devices some flip of that row changed. A flip that makes
// the model rebuild drops every derivation and exempts its row. A derive
// that starts reading a column the model drops, or a relation it does not
// stamp, fails the first rule; a stamp of a device no column of the row
// reaches fails the second.
func TestModelStampsWhatDerivationsRead(t *testing.T) {
	const rowsPerModel = 40
	h := stampWorld(t)
	intent := h.g.intent.(*verify.Checker)
	reg := h.g.store.Registry()
	stamp, _, _, err := intent.DevicesSince(0)
	if err != nil {
		t.Fatal(err)
	}
	beforeNames := h.deviceNames(t)
	before := coldData(h.g, beforeNames)
	fresh := 0
	// flip sets column f of row id to another value and returns the
	// sorted names the model stamped and those whose derived data changed;
	// ok is false when the store takes no other value.
	flip := func(model string, id int64, f fbnet.Field) (stamped, changed []string, all, ok bool) {
		row, err := h.g.store.GetByID(model, id)
		if err != nil {
			t.Fatal(err)
		}
		fresh++
		values, err := flipValues(h.g.store, model, f, row, fresh)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.ContainsFunc(values, func(v any) bool {
			return h.mutate(func(m *fbnet.Mutation) error { return m.Update(model, id, map[string]any{f.Name: v}) }) == nil
		}) {
			return nil, nil, false, false // a unique or required column
		}
		now, all, stamped, err := intent.DevicesSince(stamp)
		if err != nil {
			t.Fatal(err)
		}
		stamp = now
		names := h.deviceNames(t)
		after := coldData(h.g, names)
		for _, name := range append(names, beforeNames...) {
			if !reflect.DeepEqual(before[name], after[name]) {
				changed = append(changed, name)
			}
		}
		before, beforeNames = after, names
		slices.Sort(changed)
		slices.Sort(stamped)
		return slices.Compact(stamped), slices.Compact(changed), all, true
	}
	flipped, read := map[string]int{}, []string{}
	for _, model := range reg.Models() {
		md, _ := reg.Model(model)
		rows, err := h.g.store.Find(model, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range rows[:min(len(rows), rowsPerModel)] {
			var rowStamped, rowChanged []string
			rowRebuilt := false
			for _, f := range md.Fields {
				stamped, changed, all, ok := flip(model, row.ID, f)
				if !ok {
					continue
				}
				flipped[model]++
				if col := model + "." + f.Name; len(changed) > 0 && !slices.Contains(read, col) {
					read = append(read, col)
				}
				if missing := without(changed, stamped); len(missing) > 0 && !all {
					t.Errorf("%s %d %s: the derived data of %v changed, and the model did not stamp them (it stamped %v)",
						model, row.ID, f.Name, missing, stamped)
				}
				rowRebuilt = rowRebuilt || all
				rowStamped, rowChanged = append(rowStamped, stamped...), append(rowChanged, changed...)
			}
			slices.Sort(rowStamped)
			slices.Sort(rowChanged)
			if extra := without(slices.Compact(rowStamped), rowChanged); len(extra) > 0 && !rowRebuilt {
				t.Errorf("%s %d: the model stamped %v, whose derived data no flip of the row changed", model, row.ID, extra)
			}
		}
	}
	for _, model := range []string{"BgpV4Session", "V4Prefix", "MplsTunnel", "PolicyTerm", "FirewallRule", "DeviceFirewall"} {
		if flipped[model] == 0 {
			t.Errorf("the world has no %s row to flip", model)
		}
	}
	t.Logf("%d models flipped; columns some derivation reads: %v", len(flipped), read)
}

// without returns the names of a not in b.
func without(a, b []string) (out []string) {
	for _, name := range a {
		if !slices.Contains(b, name) {
			out = append(out, name)
		}
	}
	return out
}

// flipValues returns values to try, in order, for column f of row: other
// values a validator accepts, then null. fresh makes a fresh name,
// address or number unique among the calls.
func flipValues(store *fbnet.Store, model string, f fbnet.Field, row fbnet.Object, fresh int) ([]any, error) {
	cur := row.Value(f.Name)
	var out []any
	add := func(v any) {
		if v != nil && v != cur && !slices.Contains(out, v) && (f.Validate == nil || f.Validate(v) == nil) {
			out = append(out, v)
		}
	}
	if f.Kind == fbnet.RelationField {
		if f.Nullable && cur != nil {
			out = append(out, nil) // detaching keeps a one-to-one relation one-to-one
		}
		targets, err := store.Find(f.Target, nil)
		if err != nil {
			return nil, err
		}
		for i := range targets {
			add(targets[(i+fresh)%len(targets)].ID) // a different target each flip
		}
	} else {
		switch f.Type {
		case relstore.ColInt:
			add(row.Int(f.Name) + 1)
			add(row.Int(f.Name) + int64(1000+fresh))
		case relstore.ColBool:
			add(!row.Bool(f.Name))
		case relstore.ColFloat:
			v, _ := cur.(float64)
			add(v + 1)
		case relstore.ColString:
			add(row.String(f.Name) + "x")
			add(fmt.Sprintf("10.253.%d.%d", fresh/256, fresh%256))
			add(fmt.Sprintf("10.252.%d.%d/31", fresh/128, 2*(fresh%128)))
			add(fmt.Sprintf("2401:db00:ffff:%x::/127", fresh))
			others, err := store.Find(model, nil)
			if err != nil {
				return nil, err
			}
			for _, o := range others {
				add(o.Value(f.Name))
			}
			for _, word := range enumWords {
				add(word)
			}
		}
		if f.Nullable && cur != nil {
			out = append(out, nil)
		}
	}
	return out, nil
}

// enumWords are the values the catalog's one-of columns allow.
var enumWords = []string{
	"pop", "dc", "backbone", "planned", "provisioning", "production", "decommissioned",
	"vendor1", "vendor2", "pr", "bb", "dr", "psw", "fsw", "ssw", "tor", "drained", "undrained",
	"p2p", "loopback", "rack", "external", "accept", "reject", "prepend", "ebgp", "ibgp",
	"in", "out", "permit", "deny", "any", "tcp", "udp", "icmp6", "peering", "transit",
	"create", "modify", "delete",
}

// localPrefix returns a V6 prefix some session speaks from.
func (h *memoHistory) localPrefix(t *testing.T) string {
	t.Helper()
	sessions, err := h.g.store.Find("BgpV6Session", fbnet.Not(fbnet.IsNull("local_prefix")))
	if err != nil || len(sessions) == 0 {
		t.Fatalf("no session with a local prefix: %v", err)
	}
	p, err := h.g.store.GetByID("V6Prefix", sessions[0].Ref("local_prefix"))
	if err != nil {
		t.Fatal(err)
	}
	return p.String("prefix")
}
