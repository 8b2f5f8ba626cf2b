package fbnet

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// Property tests over the query algebra: for any generated predicates and
// any object population, the boolean identities hold — De Morgan, double
// negation, and And/Or idempotence — so composed expressions behave like
// their truth tables (§4.2.1: "multiple expressions can be composed using
// logical operators to form a large, complex query").

// seedPopulation creates devices with varied roles/sites for querying.
func seedPopulation(t testing.TB, s *Store, r *rand.Rand, n int) {
	t.Helper()
	_, err := s.Mutate(func(m *Mutation) error {
		region, err := m.Create("Region", map[string]any{"name": "r1"})
		if err != nil {
			return err
		}
		var sites []int64
		for _, name := range []string{"pop1", "pop2", "dc1"} {
			kind := "pop"
			if name == "dc1" {
				kind = "dc"
			}
			id, err := m.Create("Site", map[string]any{"name": name, "kind": kind, "region": region})
			if err != nil {
				return err
			}
			sites = append(sites, id)
		}
		v, err := m.Create("Vendor", map[string]any{"name": "v1", "syntax": "vendor1"})
		if err != nil {
			return err
		}
		hw, err := m.Create("HardwareProfile", map[string]any{
			"name": "p", "vendor": v, "num_slots": 2, "ports_per_linecard": 8, "port_speed_mbps": 10000})
		if err != nil {
			return err
		}
		roles := []string{"pr", "psw", "tor", "dr"}
		for i := 0; i < n; i++ {
			fields := map[string]any{
				"name":        fmt.Sprintf("dev%03d", i),
				"role":        roles[r.Intn(len(roles))],
				"site":        sites[r.Intn(len(sites))],
				"hw_profile":  hw,
				"drain_state": []string{"drained", "undrained"}[r.Intn(2)],
			}
			if r.Intn(2) == 0 {
				fields["mgmt_ip"] = fmt.Sprintf("10.0.%d.%d", r.Intn(4), r.Intn(250)+1)
			}
			if _, err := m.Create("Device", fields); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// randPredicate builds a random atomic query over Device fields.
func randPredicate(r *rand.Rand) Query {
	switch r.Intn(7) {
	case 0:
		return Eq("role", []string{"pr", "psw", "tor", "dr"}[r.Intn(4)])
	case 1:
		return Ne("drain_state", "drained")
	case 2:
		return Contains("name", fmt.Sprintf("%d", r.Intn(10)))
	case 3:
		return Eq("site.kind", []string{"pop", "dc"}[r.Intn(2)])
	case 4:
		return IsNull("mgmt_ip")
	case 5:
		return Gt("id", int64(r.Intn(40)))
	default:
		return Regexp("name", fmt.Sprintf("dev0%d.", r.Intn(10)))
	}
}

func idsOfFind(t *testing.T, s *Store, q Query) map[int64]bool {
	t.Helper()
	objs, err := s.Find("Device", q)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[int64]bool, len(objs))
	for _, o := range objs {
		out[o.ID] = true
	}
	return out
}

func sameIDs(a, b map[int64]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for id := range a {
		if !b[id] {
			return false
		}
	}
	return true
}

// randPlannable builds a random query the planner can answer from an
// index: id literals, the unique name index, the role/drain_state
// secondary indexes, the site fk refIndex, dotted ref-index paths, and
// And- and Or-compositions of those — every strategy planIndexed
// implements.
func randPlannable(r *rand.Rand, siteIDs []int64) Query {
	roles := []string{"pr", "psw", "tor", "dr", "bb"}
	name := func() string { return fmt.Sprintf("dev%03d", r.Intn(90)) }
	switch r.Intn(11) {
	case 0:
		return Eq("id", int64(r.Intn(90)))
	case 1:
		return In("id", int64(r.Intn(90)), r.Intn(90), "bogus")
	case 2:
		return Eq("name", name())
	case 3:
		return In("name", name(), name(), "missing")
	case 4:
		return Eq("role", roles[r.Intn(len(roles))])
	case 5:
		return In("role", roles[r.Intn(len(roles))], roles[r.Intn(len(roles))])
	case 6:
		return Eq("site", siteIDs[r.Intn(len(siteIDs))])
	case 7:
		return Eq("site.name", []string{"pop1", "pop2", "dc1", "nope"}[r.Intn(4)])
	case 8:
		return Eq("site.region.name", []string{"r1", "r2"}[r.Intn(2)])
	case 9:
		return Or(randPlannable(r, siteIDs), randPlannable(r, siteIDs))
	default:
		return And(randPlannable(r, siteIDs), randPredicate(r))
	}
}

// orderedIDsOfFind returns matching ids in result order.
func orderedIDsOfFind(t *testing.T, s *Store, q Query) []int64 {
	t.Helper()
	objs, err := s.Find("Device", q)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]int64, len(objs))
	for i, o := range objs {
		out[i] = o.ID
	}
	return out
}

// TestQuickPlannerEquivalence: on randomized populations, every planned
// query path returns exactly the rows — in the same id order — that the
// full scan returns, before and after random mutations that exercise
// index maintenance; so does an Or of a planned query and an atomic
// predicate, which may or may not be plannable.
func TestQuickPlannerEquivalence(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		r := rand.New(rand.NewSource(seed))
		s := newTestStore(t)
		seedPopulation(t, s, r, 40+r.Intn(40))
		sites, err := s.Find("Site", All())
		if err != nil {
			t.Fatal(err)
		}
		siteIDs := make([]int64, len(sites))
		for i, o := range sites {
			siteIDs[i] = o.ID
		}
		check := func(round string) {
			for trial := 0; trial < 60; trial++ {
				q := randPlannable(r, siteIDs)
				if trial%3 == 2 {
					q = Or(q, randPredicate(r))
				}
				planned := orderedIDsOfFind(t, s, q)
				scanned := orderedIDsOfFind(t, s, scan(q))
				if !slices.Equal(planned, scanned) {
					t.Fatalf("seed %d %s trial %d: %s: planned %v, scan %v", seed, round, trial, q, planned, scanned)
				}
			}
		}
		check("fresh")
		// Random churn: moves in the unique, secondary, and ref indexes.
		devs, err := s.Find("Device", All())
		if err != nil {
			t.Fatal(err)
		}
		gone := map[int64]bool{}
		_, err = s.Mutate(func(m *Mutation) error {
			for i := 0; i < 15 && i < len(devs); i++ {
				d := devs[r.Intn(len(devs))]
				if gone[d.ID] {
					continue
				}
				switch r.Intn(3) {
				case 0:
					if err := m.Update("Device", d.ID, map[string]any{
						"role": []string{"pr", "psw", "tor", "dr"}[r.Intn(4)]}); err != nil {
						return err
					}
				case 1:
					if err := m.Update("Device", d.ID, map[string]any{
						"site": siteIDs[r.Intn(len(siteIDs))]}); err != nil {
						return err
					}
				case 2:
					if err := m.Delete("Device", d.ID); err != nil {
						return err
					}
					gone[d.ID] = true
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		check("churned")
	}
}

func TestQuickQueryAlgebra(t *testing.T) {
	s := newTestStore(t)
	r := rand.New(rand.NewSource(42))
	seedPopulation(t, s, r, 60)
	total := idsOfFind(t, s, All())
	for trial := 0; trial < 60; trial++ {
		p := randPredicate(r)
		q := randPredicate(r)
		// De Morgan: !(p || q) == !p && !q
		left := idsOfFind(t, s, Not(Or(p, q)))
		right := idsOfFind(t, s, And(Not(p), Not(q)))
		if !sameIDs(left, right) {
			t.Fatalf("trial %d: De Morgan broken for %s / %s", trial, p, q)
		}
		// De Morgan dual: !(p && q) == !p || !q
		left = idsOfFind(t, s, Not(And(p, q)))
		right = idsOfFind(t, s, Or(Not(p), Not(q)))
		if !sameIDs(left, right) {
			t.Fatalf("trial %d: dual De Morgan broken for %s / %s", trial, p, q)
		}
		// Double negation.
		if !sameIDs(idsOfFind(t, s, p), idsOfFind(t, s, Not(Not(p)))) {
			t.Fatalf("trial %d: double negation broken for %s", trial, p)
		}
		// Idempotence.
		if !sameIDs(idsOfFind(t, s, p), idsOfFind(t, s, And(p, p))) {
			t.Fatalf("trial %d: And idempotence broken for %s", trial, p)
		}
		// Complement partitions the population.
		pSet := idsOfFind(t, s, p)
		notP := idsOfFind(t, s, Not(p))
		if len(pSet)+len(notP) != len(total) {
			t.Fatalf("trial %d: %s and its complement don't partition (%d + %d != %d)",
				trial, p, len(pSet), len(notP), len(total))
		}
		for id := range pSet {
			if notP[id] {
				t.Fatalf("trial %d: id %d in both %s and its complement", trial, id, p)
			}
		}
	}
}
