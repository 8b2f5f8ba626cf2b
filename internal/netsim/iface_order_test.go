package netsim

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// TestShowInterfacesOrderSurvivesReparses holds the interface order a
// device keeps across reparses — commits, rollbacks and out-of-band
// configs that add and drop ports — to a cold device's: after every step,
// ShowInterfaces and ifaceNames list, by name, exactly the interfaces a
// device that committed the same running config from scratch lists.
func TestShowInterfacesOrderSurvivesReparses(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		warm := NewDevice("psw1.pop1", Vendor1, "psw", "pop1")
		randomConfig := func() string {
			var b strings.Builder
			b.WriteString("hostname psw1.pop1\n")
			for slot := 1; slot <= 3; slot++ {
				for port := 1; port <= 12; port++ {
					if rng.Intn(3) == 0 {
						fmt.Fprintf(&b, "interface et%d/%d\n no shutdown\n", slot, port)
					}
				}
			}
			return b.String()
		}
		for step := 0; step < 30; step++ {
			switch rng.Intn(4) {
			case 0:
				if err := warm.Rollback(); err != nil {
					continue // nothing to roll back to yet
				}
			case 1:
				if err := warm.InjectRunningConfig(randomConfig()); err != nil {
					t.Fatal(err)
				}
			default:
				if err := warm.LoadConfig(randomConfig()); err != nil {
					t.Fatal(err)
				}
				if err := warm.Commit(); err != nil {
					t.Fatal(err)
				}
			}
			cold := NewDevice("psw1.pop1", Vendor1, "psw", "pop1")
			if err := cold.LoadConfig(warm.PeekRunningConfig()); err != nil {
				t.Fatal(err)
			}
			if err := cold.Commit(); err != nil {
				t.Fatal(err)
			}
			got, want := ifaceListing(t, warm), ifaceListing(t, cold)
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d step %d: ShowInterfaces lists %v, a cold device %v", seed, step, got, want)
			}
			if names := warm.ifaceNames(); !slices.Equal(names, want) {
				t.Fatalf("seed %d step %d: ifaceNames = %v, want %v", seed, step, names, want)
			}
		}
	}
}

func ifaceListing(t *testing.T, d *Device) []string {
	t.Helper()
	ifs, err := d.ShowInterfaces()
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(ifs))
	for i, s := range ifs {
		names[i] = s.Name
	}
	return names
}
