package experiments

import (
	"fmt"
	"strings"

	"github.com/robotron-net/robotron/internal/design"
	"github.com/robotron-net/robotron/internal/fbnet"
	"github.com/robotron-net/robotron/internal/relstore"
)

// Fig. 15: "the number of changed FBNet objects, i.e., those that are
// created, modified, and deleted across all design changes over one year",
// split into (a) POP and DC networks versus (b) backbone, with a per-
// object-type breakdown. The paper's observations: design changes have
// high fan-out (a few to 10,000 objects); POP/DC changes are larger
// (median ≈120, dominated by one-time cluster builds) than backbone
// changes (median ≈20, incremental device/circuit work); interface objects
// change most frequently, then circuits, then v6 prefixes, then v4
// prefixes, then devices.
//
// This harness replays a scaled year of design changes through the real
// design engine and reads the counts back from the recorded DesignChange
// objects — the same bookkeeping the paper mined.

// Fig15Config controls the workload scale.
type Fig15Config struct {
	Months int
	Seed   int64
}

// DefaultFig15Config replays a full year.
func DefaultFig15Config() Fig15Config { return Fig15Config{Months: 12, Seed: 15} }

// Fig15Result aggregates change sizes per domain.
type Fig15Result struct {
	// Totals per change, by domain key "popdc" / "backbone".
	Totals map[string][]int
	// PerType[domain][objectType] = changed-object count summed over
	// changes, with PhysicalInterface+AggregatedInterface folded into
	// "interface" as in the paper.
	PerType map[string]map[string]int
	Changes int
}

// RunFig15 executes the year of design changes.
func RunFig15(cfg Fig15Config) (Fig15Result, error) {
	r := rng(cfg.Seed)
	db := relstore.NewDB("fig15", nil)
	store, err := fbnet.Open(db, fbnet.NewCatalog())
	if err != nil {
		return Fig15Result{}, err
	}
	d, err := design.NewDesigner(store, design.DefaultPools())
	if err != nil {
		return Fig15Result{}, err
	}
	if err := d.EnsureStandardHardware(); err != nil {
		return Fig15Result{}, err
	}
	for _, s := range []struct{ name, kind, region string }{
		{"pop1", "pop", "apac"}, {"pop2", "pop", "emea"},
		{"dc1", "dc", "nam"}, {"dc2", "dc", "nam"},
		{"bb-east", "backbone", "nam"}, {"bb-west", "backbone", "nam"},
	} {
		if _, err := d.EnsureSite(s.name, s.kind, s.region); err != nil {
			return Fig15Result{}, err
		}
	}
	res := Fig15Result{
		Totals:  map[string][]int{"popdc": {}, "backbone": {}},
		PerType: map[string]map[string]int{"popdc": {}, "backbone": {}},
	}
	record := func(domain string, cr design.ChangeResult, err error) error {
		if err != nil {
			return err
		}
		res.Changes++
		res.Totals[domain] = append(res.Totals[domain], cr.Stats.Total())
		for model, n := range cr.Stats.ByModel() {
			res.PerType[domain][foldType(model)] += n
		}
		return nil
	}
	ctx := func(domain string, month int) design.ChangeContext {
		return design.ChangeContext{
			EmployeeID:  fmt.Sprintf("e%d", 100+r.Intn(40)),
			TicketID:    fmt.Sprintf("T-%d", 1000+res.Changes),
			Description: "fig15 workload", Domain: domain,
			NowUnix: 1_700_000_000 + int64(month)*30*86400,
		}
	}

	// Backbone substrate: a starting mesh.
	var bbRouters []string
	addRouter := func(month int) error {
		name := fmt.Sprintf("bb%d", len(bbRouters)+1+r.Intn(1000)*1000)
		site := "bb-east"
		if r.Intn(2) == 0 {
			site = "bb-west"
		}
		cr, err := d.AddBackboneRouter(ctx("backbone", month), name, site, "Backbone_Vendor2", []string{"bb", "pr", "dr"}[r.Intn(3)])
		if err != nil {
			return err
		}
		bbRouters = append(bbRouters, name)
		return record("backbone", cr, nil)
	}
	for i := 0; i < 6; i++ {
		if err := addRouter(0); err != nil {
			return Fig15Result{}, err
		}
	}

	clusterN := 0
	var clusters []clusterInfo
	for month := 0; month < cfg.Months; month++ {
		// POP/DC: 1-3 cluster builds.
		for b := 1 + r.Intn(3); b > 0; b-- {
			clusterN++
			var tpl design.TopologyTemplate
			var site, domainSite string
			// Small Gen1 POPs dominate build volume (Fig. 12's rapid Gen1
			// growth); larger generations are rarer, keeping the size
			// distribution long-tailed as in the paper.
			switch r.Intn(10) {
			case 0, 1, 2, 3:
				tpl, domainSite = design.POPGen1(), "pop"
				site = []string{"pop1", "pop2"}[r.Intn(2)]
			case 4, 5:
				tpl, domainSite = design.POPGen2(), "pop"
				site = []string{"pop1", "pop2"}[r.Intn(2)]
			case 6, 7:
				tpl, domainSite = design.DCGen2(2+r.Intn(4)), "dc"
				site = []string{"dc1", "dc2"}[r.Intn(2)]
			default:
				tpl, domainSite = design.DCGen3(2+r.Intn(8)), "dc"
				site = []string{"dc1", "dc2"}[r.Intn(2)]
			}
			name := fmt.Sprintf("%s-c%d", site, clusterN)
			br, err := d.BuildCluster(ctx(domainSite, month), site, name, tpl)
			if err := record("popdc", br.ChangeResult, err); err != nil {
				return Fig15Result{}, err
			}
			clusters = append(clusters, clusterInfo{name: name, tpl: tpl})
		}
		// POP/DC: capacity upgrades (add racks to DC clusters).
		for u := 1 + r.Intn(2); u > 0; u-- {
			ci := pickDCCluster(r, clusters)
			if ci == nil {
				break
			}
			cr, err := d.AddRack(ctx("dc", month), ci.name, ci.tpl.RackTORProfle,
				ci.tpl.UplinkRole, ci.tpl.UplinksPerTOR, ci.tpl.Addressing.V6, ci.tpl.Addressing.V4)
			if err := record("popdc", cr, err); err != nil {
				return Fig15Result{}, err
			}
		}
		// POP/DC: occasional decommission of an old cluster.
		if len(clusters) > 6 && r.Float64() < 0.3 {
			idx := r.Intn(3) // an early cluster
			cr, err := d.DecommissionCluster(ctx("dc", month), clusters[idx].name)
			if err == nil {
				clusters = append(clusters[:idx], clusters[idx+1:]...)
				if err := record("popdc", cr, nil); err != nil {
					return Fig15Result{}, err
				}
			}
		}

		// Backbone: "tens of router additions and deletions, and hundreds
		// of circuit additions, migrations and deletions" per month,
		// scaled 1/10.
		for a := 2 + r.Intn(3); a > 0; a-- {
			if err := addRouter(month); err != nil {
				return Fig15Result{}, err
			}
		}
		if len(bbRouters) > 8 && r.Float64() < 0.7 {
			idx := r.Intn(len(bbRouters))
			cr, err := d.RemoveBackboneRouter(ctx("backbone", month), bbRouters[idx])
			if err == nil {
				bbRouters = append(bbRouters[:idx], bbRouters[idx+1:]...)
				if err := record("backbone", cr, nil); err != nil {
					return Fig15Result{}, err
				}
			}
		}
		for c := 10 + r.Intn(10); c > 0; c-- {
			// Half the circuit work lands on hot pairs — growing existing
			// bundles ("bundle membership"), which adds circuits without
			// new addressing.
			pool := bbRouters
			if len(bbRouters) > 6 && r.Intn(2) == 0 {
				pool = bbRouters[:6]
			}
			a, z := pickPair(r, pool)
			cr, err := d.AddBackboneCircuit(ctx("backbone", month), a, z, 1+r.Intn(2))
			if err != nil {
				continue // port exhaustion on a busy router: skip
			}
			if err := record("backbone", cr, nil); err != nil {
				return Fig15Result{}, err
			}
		}
		// Circuit migrations and deletions on single-circuit bundles.
		for mg := 2 + r.Intn(4); mg > 0; mg-- {
			cid, ok := pickSingleCircuit(store, r)
			if !ok {
				break
			}
			target := bbRouters[r.Intn(len(bbRouters))]
			if r.Float64() < 0.5 {
				cr, err := d.MigrateCircuit(ctx("backbone", month), cid, target)
				if err == nil {
					if err := record("backbone", cr, nil); err != nil {
						return Fig15Result{}, err
					}
				}
			} else {
				cr, err := d.DeleteCircuit(ctx("backbone", month), cid)
				if err == nil {
					if err := record("backbone", cr, nil); err != nil {
						return Fig15Result{}, err
					}
				}
			}
		}
	}
	return res, nil
}

type clusterInfo struct {
	name string
	tpl  design.TopologyTemplate
}

func pickDCCluster(r interface{ Intn(int) int }, clusters []clusterInfo) *clusterInfo {
	var dcs []*clusterInfo
	for i := range clusters {
		if clusters[i].tpl.Racks > 0 {
			dcs = append(dcs, &clusters[i])
		}
	}
	if len(dcs) == 0 {
		return nil
	}
	return dcs[r.Intn(len(dcs))]
}

func pickPair(r interface{ Intn(int) int }, xs []string) (string, string) {
	i := r.Intn(len(xs))
	j := r.Intn(len(xs) - 1)
	if j >= i {
		j++
	}
	return xs[i], xs[j]
}

// pickSingleCircuit finds a backbone circuit that is the only member of
// its link group (migratable).
func pickSingleCircuit(store *fbnet.Store, r interface{ Intn(int) int }) (string, bool) {
	lgs, err := store.Find("LinkGroup", nil)
	if err != nil || len(lgs) == 0 {
		return "", false
	}
	start := r.Intn(len(lgs))
	for k := 0; k < len(lgs); k++ {
		lg := lgs[(start+k)%len(lgs)]
		// Only consider backbone bundles (device names start with "bb").
		if !strings.HasPrefix(lg.String("name"), "bb") {
			continue
		}
		ids, err := store.DB().Referencing("Circuit", "link_group", lg.ID)
		if err != nil || len(ids) != 1 {
			continue
		}
		c, err := store.GetByID("Circuit", ids[0])
		if err != nil {
			continue
		}
		return c.String("circuit_id"), true
	}
	return "", false
}

// foldType maps FBNet models onto the paper's Fig. 15 object categories.
func foldType(model string) string {
	switch model {
	case "PhysicalInterface", "AggregatedInterface":
		return "interface"
	case "Circuit":
		return "circuit"
	case "V6Prefix":
		return "v6 prefix"
	case "V4Prefix":
		return "v4 prefix"
	case "Device":
		return "device"
	default:
		return "other"
	}
}

// Format renders the distribution summary.
func (r Fig15Result) Format() string {
	var b strings.Builder
	b.WriteString("Figure 15: changed FBNet objects per design change\n")
	fmt.Fprintf(&b, "total design changes: %d\n", r.Changes)
	for _, domain := range []string{"popdc", "backbone"} {
		label := "(a) POP and DC networks"
		if domain == "backbone" {
			label = "(b) backbone network"
		}
		xs := r.Totals[domain]
		fmt.Fprintf(&b, "%s: %d changes, median %d (paper: %s), %s\n",
			label, len(xs), percentile(xs, 50),
			map[string]string{"popdc": "120", "backbone": "20"}[domain],
			strings.Join(cdfPoints(xs, []float64{0.1, 0.5, 0.9, 1.0}), "  "))
		var rows [][]string
		for _, typ := range []string{"interface", "circuit", "v6 prefix", "v4 prefix", "device", "other"} {
			rows = append(rows, []string{typ, fmt.Sprintf("%d", r.PerType[domain][typ])})
		}
		b.WriteString(table([]string{"  object type", "changed"}, rows))
	}
	b.WriteString("paper ordering: interface > circuit > v6 prefix > v4 prefix > device\n")
	return b.String()
}
