package verify

import (
	"fmt"
	"testing"

	"github.com/robotron-net/robotron/internal/configgen"
	"github.com/robotron-net/robotron/internal/design"
	"github.com/robotron-net/robotron/internal/fbnet"
	"github.com/robotron-net/robotron/internal/relstore"
	"github.com/robotron-net/robotron/internal/revctl"
)

// The scale benchmark pins the property the resident model exists for:
// the gate's cost for the paper's commonest change — one rack added to one
// cluster (§2.2) — does not grow with the fleet around it.

// dcFleet is a fleet of DC sites, one DCGen3(40) cluster of 64 devices
// each, with every config committed as golden.
type dcFleet struct {
	store    *fbnet.Store
	d        *design.Designer
	g        *configgen.Generator
	clusters []string
}

func newDCFleet(tb testing.TB, devices int) *dcFleet {
	tb.Helper()
	store, err := fbnet.Open(relstore.NewDB("master"), fbnet.NewCatalog())
	if err != nil {
		tb.Fatal(err)
	}
	d, err := design.NewDesigner(store, design.DefaultPools())
	if err != nil {
		tb.Fatal(err)
	}
	if err := d.EnsureStandardHardware(); err != nil {
		tb.Fatal(err)
	}
	f := &dcFleet{store: store, d: d}
	for i := 1; i <= devices/64; i++ {
		site := fmt.Sprintf("dc%d", i)
		if _, err := d.EnsureSite(site, "dc", "nam"); err != nil {
			tb.Fatal(err)
		}
		if _, err := d.BuildCluster(testCtx("dc"), site, site+"-c1", design.DCGen3(40)); err != nil {
			tb.Fatal(err)
		}
		f.clusters = append(f.clusters, site+"-c1")
	}
	if f.g, err = configgen.NewGenerator(store, revctl.NewRepo(), NewChecker(store, nil)); err != nil {
		tb.Fatal(err)
	}
	return f
}

// addRack adds a rack to the i-th cluster (rotating) and renders the 17
// configs the change affects: the new TOR and the cluster's 16 fabric
// switches. undo deletes what the change created, so the fleet a
// benchmark measures does not grow while it is being measured.
func (f *dcFleet) addRack(tb testing.TB, i int) (configs map[string]string, undo func()) {
	tb.Helper()
	cluster := f.clusters[i%len(f.clusters)]
	cr, err := f.d.AddRack(testCtx("dc"), cluster, "TOR_Vendor1", "fsw", 4, true, false)
	if err != nil {
		tb.Fatal(err)
	}
	var names []string
	for _, ref := range cr.Stats.Created {
		if ref.Model == "Device" {
			tor, err := f.store.GetByID("Device", ref.ID)
			if err != nil {
				tb.Fatal(err)
			}
			names = append(names, tor.String("name"))
		}
	}
	for n := 1; n <= 16; n++ {
		names = append(names, fmt.Sprintf("fsw%d.%s", n, cluster))
	}
	if configs, err = f.g.GenerateMany(names, 0); err != nil {
		tb.Fatal(err)
	}
	return configs, func() {
		if _, err := f.store.Mutate(func(m *fbnet.Mutation) error {
			for j := len(cr.Stats.Created) - 1; j >= 0; j-- {
				ref := cr.Stats.Created[j]
				_ = m.Delete(ref.Model, ref.ID) // already gone when a cascade took it
			}
			return nil
		}); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkScaleVerifyCheck: one op is the gate run that vets one added
// rack — a warm checker absorbing the change's delta and checking the 17
// affected configs — in fleets of 256 to 4096 devices. Design, generation
// and the undo are not timed.
func BenchmarkScaleVerifyCheck(b *testing.B) {
	for _, n := range []int{256, 1024, 4096} {
		b.Run(fmt.Sprintf("fleet=%d", n), func(b *testing.B) {
			f := newDCFleet(b, n)
			c := NewChecker(f.store, f.g.Golden)
			if res, err := c.Check(nil); err != nil || !res.Pass() {
				b.Fatalf("warming check: res=%+v err=%v", res, err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				configs, undo := f.addRack(b, i)
				b.StartTimer()
				res, err := c.Check(configs)
				b.StopTimer()
				if err != nil || !res.Pass() || res.Rebuilt || len(configs) != 17 {
					b.Fatalf("check of %d configs: res=%+v err=%v", len(configs), res, err)
				}
				undo()
				if _, err := c.Check(nil); err != nil { // absorb the undo untimed
					b.Fatal(err)
				}
				b.StartTimer()
			}
		})
	}
}
