package fbnet_test

import (
	"fmt"

	"github.com/robotron-net/robotron/internal/fbnet"
	"github.com/robotron-net/robotron/internal/relstore"
)

// The §4.2 API shape: transactional writes, then reads with local and
// indirect fields.
func Example() {
	db := relstore.NewDB("example", nil)
	store, err := fbnet.Open(db, fbnet.NewCatalog())
	if err != nil {
		panic(err)
	}
	_, err = store.Mutate(func(m *fbnet.Mutation) error {
		region, err := m.Create("Region", map[string]any{"name": "apac"})
		if err != nil {
			return err
		}
		site, err := m.Create("Site", map[string]any{"name": "pop1", "kind": "pop", "region": region})
		if err != nil {
			return err
		}
		vendor, err := m.Create("Vendor", map[string]any{"name": "v1", "syntax": "vendor1"})
		if err != nil {
			return err
		}
		hw, err := m.Create("HardwareProfile", map[string]any{
			"name": "Router_Vendor1", "vendor": vendor,
			"num_slots": 4, "ports_per_linecard": 8, "port_speed_mbps": 10000,
		})
		if err != nil {
			return err
		}
		dev, err := m.Create("Device", map[string]any{
			"name": "pr1.pop1", "role": "pr", "site": site,
			"hw_profile": hw, "drain_state": "drained",
		})
		if err != nil {
			return err
		}
		_, err = m.Create("Linecard", map[string]any{"slot": 1, "device": dev})
		return err
	})
	if err != nil {
		panic(err)
	}
	// get<Linecard>(fields, query) with an indirect field (§4.2.1).
	rows, err := store.Get("Linecard",
		[]string{"slot", "device.name"},
		fbnet.Eq("device.name", "pr1.pop1"))
	if err != nil {
		panic(err)
	}
	for _, r := range rows {
		fmt.Printf("slot %v of %v\n", r.Fields["slot"], r.Fields["device.name"])
	}
	// Output: slot 1 of pr1.pop1
}
