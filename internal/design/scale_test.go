package design

import (
	"fmt"
	"testing"
	"time"
)

// TestTensOfThousandsWithinMinutes pins the §5.1.1 scale claim: "Robotron
// is able to translate these designs to tens of thousands of FBNet
// objects within minutes." Ten 48-rack Gen3 clusters materialize well
// over 30,000 objects; the claim allows minutes, we assert a far tighter
// bound.
func TestTensOfThousandsWithinMinutes(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test in -short mode")
	}
	d := newTestDesigner(t)
	if _, err := d.EnsureSite("dc1", "dc", "nam"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	total := 0
	for i := 0; i < 10; i++ {
		res, err := d.BuildCluster(testCtx("dc"), "dc1", fmt.Sprintf("dc1-big%d", i), DCGen3(48))
		if err != nil {
			t.Fatal(err)
		}
		total += len(res.Stats.Created)
	}
	elapsed := time.Since(start)
	if total < 30_000 {
		t.Errorf("materialized %d objects, want >= 30000", total)
	}
	if elapsed > 2*time.Minute {
		t.Errorf("materialization took %v, want well under minutes", elapsed)
	}
	t.Logf("materialized %d FBNet objects in %v", total, elapsed)
	// The resulting estate still passes every design rule.
	if violations := gateViolations(t, d.Store()); len(violations) != 0 {
		t.Errorf("%d violations at scale", len(violations))
	}
}
