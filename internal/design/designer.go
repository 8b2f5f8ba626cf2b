package design

import (
	"errors"
	"fmt"
	"net/netip"
	"strings"

	"github.com/robotron-net/robotron/internal/fbnet"
	"github.com/robotron-net/robotron/internal/ipam"
)

// Pools are the address pools design operations allocate from.
type Pools struct {
	V6P2P      *ipam.Pool
	V4P2P      *ipam.Pool
	V6Loopback *ipam.Pool
	V4Loopback *ipam.Pool
}

// DefaultPools returns a pool layout sized for a large simulated network.
func DefaultPools() Pools {
	return Pools{
		V6P2P:      ipam.MustPool("2401:db00:f000::/44"),
		V4P2P:      ipam.MustPool("10.128.0.0/10"),
		V6Loopback: ipam.MustPool("2401:db00:e000::/44"),
		V4Loopback: ipam.MustPool("10.0.0.0/12"),
	}
}

// ErrReviewRejected is returned when a change's reviewer declines it.
var ErrReviewRejected = errors.New("design: change rejected by reviewer")

// ChangeContext identifies and describes one design change; Robotron
// "requires employee ID and ticket ID to track design change history"
// (§5.1.3).
type ChangeContext struct {
	EmployeeID  string
	TicketID    string
	Description string
	Domain      string // "pop" | "dc" | "backbone"
	NowUnix     int64
	// Review, if set, receives the resulting object changes before the
	// transaction commits; returning false rolls everything back
	// ("Robotron displays the resulting design changes and requires users
	// to visually review and confirm before committing", §5.1.3).
	Review func(fbnet.ChangeStats) bool
}

func (c ChangeContext) validate() error {
	if c.EmployeeID == "" || c.TicketID == "" {
		return fmt.Errorf("design: employee ID and ticket ID are required for design changes")
	}
	switch c.Domain {
	case "pop", "dc", "backbone":
		return nil
	}
	return fmt.Errorf("design: unknown domain %q", c.Domain)
}

// ChangeResult reports one committed design change.
type ChangeResult struct {
	ChangeID int64
	Stats    fbnet.ChangeStats
}

// Designer drives design changes against an FBNet store.
type Designer struct {
	store *fbnet.Store
	pools Pools
}

// NewDesigner creates a designer, reserving every prefix already present
// in FBNet so pool allocations can never conflict with existing design
// state — the invariant whose absence caused "many circuits misconfigured
// with conflicting IPs" before automation (§7).
func NewDesigner(store *fbnet.Store, pools Pools) (*Designer, error) {
	d := &Designer{store: store, pools: pools}
	reserve := func(model string, pool6, pool4 *ipam.Pool) error {
		objs, err := store.Find(model, nil)
		if err != nil {
			return err
		}
		for _, o := range objs {
			pfxStr := o.String("prefix")
			pfx, err := netip.ParsePrefix(pfxStr)
			if err != nil {
				return fmt.Errorf("design: existing %s %q is invalid: %w", model, pfxStr, err)
			}
			pool := pool4
			if pfx.Addr().Is6() {
				pool = pool6
			}
			if pool == nil || !pool.Root().Overlaps(pfx) {
				continue // out-of-pool legacy space
			}
			if pool.Owner(pfx) != "" {
				continue // both /127 endpoints of one p2p subnet share a reservation
			}
			if err := pool.Reserve(pfx, fmt.Sprintf("%s/%d", model, o.ID)); err != nil {
				return err
			}
		}
		return nil
	}
	if err := reserve("V6Prefix", pools.V6P2P, nil); err != nil {
		return nil, err
	}
	if err := reserve("V4Prefix", nil, pools.V4P2P); err != nil {
		return nil, err
	}
	if err := reserveLoopbacks(store, pools); err != nil {
		return nil, err
	}
	return d, nil
}

func reserveLoopbacks(store *fbnet.Store, pools Pools) error {
	devs, err := store.Find("Device", nil)
	if err != nil {
		return err
	}
	for _, dev := range devs {
		for field, pool := range map[string]*ipam.Pool{
			"loopback_v6": pools.V6Loopback,
			"loopback_v4": pools.V4Loopback,
		} {
			s := dev.String(field)
			if s == "" || pool == nil {
				continue
			}
			pfx, err := netip.ParsePrefix(s)
			if err != nil {
				return fmt.Errorf("design: device %s has invalid %s %q", dev.String("name"), field, s)
			}
			if !pool.Root().Overlaps(pfx) {
				continue
			}
			if err := pool.Reserve(pfx, dev.String("name")); err != nil {
				return err
			}
		}
	}
	return nil
}

// Store exposes the underlying FBNet store.
func (d *Designer) Store() *fbnet.Store { return d.store }

// change wraps one design change: validation of the context, the mutation
// itself, atomic recording of the DesignChange object with per-object
// entries, and release of pool allocations if the change fails. The
// result's Stats are the committing transaction's own account of what it
// touched, the one the entries record.
func (d *Designer) change(ctx ChangeContext, fn func(*designTx) error) (ChangeResult, error) {
	if err := ctx.validate(); err != nil {
		return ChangeResult{}, err
	}
	t := &designTx{pools: d.pools}
	var res ChangeResult
	_, err := d.store.Mutate(func(m *fbnet.Mutation) error {
		t.Mutation = m
		if err := fn(t); err != nil {
			return err
		}
		stats := m.Stats()
		if ctx.Review != nil && !ctx.Review(stats) {
			return fmt.Errorf("%w (ticket %s)", ErrReviewRejected, ctx.TicketID)
		}
		changeID, err := m.Create("DesignChange", map[string]any{
			"employee_id":  ctx.EmployeeID,
			"ticket_id":    ctx.TicketID,
			"description":  ctx.Description,
			"domain":       ctx.Domain,
			"created_unix": ctx.NowUnix,
			"num_created":  len(stats.Created),
			"num_modified": len(stats.Modified),
			"num_deleted":  len(stats.Deleted),
		})
		if err != nil {
			return err
		}
		record := func(refs []fbnet.ObjectRef, action string) error {
			for _, r := range refs {
				if _, err := m.Create("DesignChangeEntry", map[string]any{
					"change": changeID, "model_name": r.Model,
					"object_id": r.ID, "action": action,
				}); err != nil {
					return err
				}
			}
			return nil
		}
		if err := record(stats.Created, "create"); err != nil {
			return err
		}
		if err := record(stats.Modified, "modify"); err != nil {
			return err
		}
		res = ChangeResult{ChangeID: changeID, Stats: stats}
		return record(stats.Deleted, "delete")
	})
	if err != nil {
		t.releaseAll()
		return ChangeResult{}, err
	}
	t.releaseFreed()
	return res, nil
}

// --- bootstrap helpers ---
//
// Each finds or creates inside one transaction, so two callers racing on
// one new name both get the one object.

// EnsureRegion returns the id of a region, creating it if needed.
func (d *Designer) EnsureRegion(name string) (id int64, err error) {
	_, err = d.store.Mutate(func(m *fbnet.Mutation) error {
		id, err = ensureRegion(m, name)
		return err
	})
	return id, err
}

func ensureRegion(m *fbnet.Mutation, name string) (int64, error) {
	return ensure(m, "Region", "name", name, func() (int64, error) {
		return m.Create("Region", map[string]any{"name": name})
	})
}

// EnsureSite returns the id of a site, creating it (and its region) if
// needed.
func (d *Designer) EnsureSite(name, kind, region string) (id int64, err error) {
	_, err = d.store.Mutate(func(m *fbnet.Mutation) error {
		id, err = ensure(m, "Site", "name", name, func() (int64, error) {
			regionID, err := ensureRegion(m, region)
			if err != nil {
				return 0, err
			}
			return m.Create("Site", map[string]any{"name": name, "kind": kind, "region": regionID})
		})
		return err
	})
	return id, err
}

// EnsureStandardHardware registers the two synthetic vendors and the
// hardware profiles the standard templates reference, unless vendor1
// exists already.
func (d *Designer) EnsureStandardHardware() error {
	_, err := d.store.Mutate(func(m *fbnet.Mutation) error {
		_, err := ensure(m, "Vendor", "name", "vendor1", func() (int64, error) {
			return createStandardHardware(m)
		})
		return err
	})
	return err
}

func createStandardHardware(m *fbnet.Mutation) (int64, error) {
	v1, err := m.Create("Vendor", map[string]any{"name": "vendor1", "syntax": "vendor1"})
	if err != nil {
		return 0, err
	}
	v2, err := m.Create("Vendor", map[string]any{"name": "vendor2", "syntax": "vendor2"})
	if err != nil {
		return 0, err
	}
	profiles := []struct {
		name   string
		vendor int64
		slots  int
		ports  int
		speed  int
	}{
		{"Router_Vendor1", v1, 8, 16, 10000},
		{"Router_Vendor2", v2, 8, 16, 10000},
		{"Switch_Vendor1", v1, 2, 32, 10000},
		{"Switch_Vendor2", v2, 2, 32, 10000},
		{"TOR_Vendor1", v1, 1, 48, 10000},
		{"Backbone_Vendor2", v2, 16, 16, 100000},
	}
	for _, p := range profiles {
		if _, err := m.Create("HardwareProfile", map[string]any{
			"name": p.name, "vendor": p.vendor, "num_slots": p.slots,
			"ports_per_linecard": p.ports, "port_speed_mbps": p.speed,
		}); err != nil {
			return 0, err
		}
	}
	return v1, nil
}

// deviceName composes a standard device name: role + index + cluster/site.
func deviceName(prefix string, n int, scope string) string {
	return fmt.Sprintf("%s%d.%s", prefix, n, scope)
}

// clusterScope returns the cluster short name used in device names.
func clusterScope(clusterName string) string {
	return strings.ReplaceAll(clusterName, "/", "-")
}
