package design

import (
	"fmt"
	"sync"
	"testing"
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
