package design

import (
	"fmt"
	"sync"
	"testing"

	"github.com/robotron-net/robotron/internal/fbnet"
	"github.com/robotron-net/robotron/internal/relstore"
)

// TestConcurrentDesignChangesSerialize addresses the §8 "Stale Configs"
// discussion: "how to serialize concurrent design changes ... remains an
// open problem. At Facebook's scale, handling multiple writers with a
// lock-based mechanism can be challenging." At this reproduction's scale
// the single-writer store serializes concurrent changes safely: all
// succeed or fail atomically and the resulting design is valid.
func TestConcurrentDesignChangesSerialize(t *testing.T) {
	d := newTestDesigner(t)
	d.EnsureSite("pop1", "pop", "apac")
	d.EnsureSite("bb-site", "backbone", "nam")
	for _, n := range []string{"bb1", "bb2", "bb3", "bb4"} {
		if _, err := d.AddBackboneRouter(testCtx("backbone"), n, "bb-site", "Backbone_Vendor2", "bb"); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	// Cluster builds and backbone changes race.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := d.BuildCluster(testCtx("pop"), "pop1", fmt.Sprintf("c%d", i), POPGen1())
			errs <- err
		}(i)
	}
	pairs := [][2]string{{"bb1", "bb2"}, {"bb2", "bb3"}, {"bb3", "bb4"}, {"bb4", "bb1"}}
	for _, p := range pairs {
		wg.Add(1)
		go func(a, z string) {
			defer wg.Done()
			_, err := d.AddBackboneCircuit(testCtx("backbone"), a, z, 1)
			errs <- err
		}(p[0], p[1])
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	// Every change landed and the combined design is rule-clean.
	changes, _ := d.Store().Count("DesignChange")
	if changes != 4+4+4 { // router adds + builds + circuits
		t.Errorf("design changes = %d, want 12", changes)
	}
	if n, _ := d.Store().Count("Cluster"); n != 4 {
		t.Errorf("clusters = %d", n)
	}
	if violations := gateViolations(t, d.Store()); len(violations) != 0 {
		t.Errorf("violations after concurrent changes: %v", violations)
	}
	// No duplicate prefixes slipped through (uniqueness is transactional).
	prefixes, _ := d.Store().Find("V6Prefix", nil)
	seen := map[string]bool{}
	for _, p := range prefixes {
		if seen[p.String("prefix")] {
			t.Errorf("duplicate prefix %s", p.String("prefix"))
		}
		seen[p.String("prefix")] = true
	}
}

// TestEnsureRacesCreateOnce races two callers of each find-or-create on a
// name neither has seen: both must get the one object. A find outside the
// transaction that creates lets both miss, and the second create fails
// on the unique name.
func TestEnsureRacesCreateOnce(t *testing.T) {
	d := newTestDesigner(t)
	race := func(fn func() (int64, error)) [2]int64 {
		var ids [2]int64
		var errs [2]error
		var wg sync.WaitGroup
		for g := range ids {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ids[g], errs[g] = fn()
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		return ids
	}
	for i := 0; i < 200; i++ {
		site := fmt.Sprintf("site%d", i)
		region := fmt.Sprintf("region%d", i)
		if ids := race(func() (int64, error) { return d.EnsureSite(site, "pop", region) }); ids[0] != ids[1] {
			t.Fatalf("EnsureSite(%s) returned two objects: %v", site, ids)
		}
		if ids := race(func() (int64, error) { return d.EnsureRegion(region + "b") }); ids[0] != ids[1] {
			t.Fatalf("EnsureRegion(%sb) returned two objects: %v", region, ids)
		}
	}
	for i := 0; i < 50; i++ {
		store, err := fbnet.Open(relstore.NewDB("master", nil), fbnet.NewCatalog())
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := NewDesigner(store, DefaultPools())
		if err != nil {
			t.Fatal(err)
		}
		race(func() (int64, error) { return 0, fresh.EnsureStandardHardware() })
		if n, _ := store.Count("HardwareProfile"); n != 6 {
			t.Fatalf("EnsureStandardHardware raced to %d hardware profiles, want 6", n)
		}
	}
}
