package experiments

import (
	"fmt"
	"strings"

	"github.com/robotron-net/robotron/internal/design"
	"github.com/robotron-net/robotron/internal/fbnet"
	"github.com/robotron-net/robotron/internal/relstore"
)

// Fig. 12: "Evolution of cluster architectures" over two years. The
// paper's timeline: Gen1 POP clusters grow rapidly, then merge into
// bigger Gen2 POP clusters (in-place upgrades, since POPs are space/power
// constrained); DC clusters span three coexisting generations, with
// architectural shifts happening by building new-generation clusters and
// decommissioning old ones, and the newest generation IPv6-only.
//
// This harness replays that build/merge/decommission schedule through the
// real design engine and reads the weekly per-generation production
// cluster counts out of FBNet.

// Fig12Config controls the simulated horizon.
type Fig12Config struct {
	Weeks int
	Seed  int64
}

// DefaultFig12Config simulates the paper's two-year window.
func DefaultFig12Config() Fig12Config { return Fig12Config{Weeks: 104, Seed: 12} }

// Fig12Result holds weekly cluster counts per architecture generation.
type Fig12Result struct {
	Generations []string
	Weekly      map[string][]int // generation -> count per week
	Weeks       int
}

// RunFig12 replays the architecture evolution.
func RunFig12(cfg Fig12Config) (Fig12Result, error) {
	r := rng(cfg.Seed)
	db := relstore.NewDB("fig12", nil)
	store, err := fbnet.Open(db, fbnet.NewCatalog())
	if err != nil {
		return Fig12Result{}, err
	}
	d, err := design.NewDesigner(store, design.DefaultPools())
	if err != nil {
		return Fig12Result{}, err
	}
	if err := d.EnsureStandardHardware(); err != nil {
		return Fig12Result{}, err
	}
	if _, err := d.EnsureSite("pops", "pop", "global"); err != nil {
		return Fig12Result{}, err
	}
	if _, err := d.EnsureSite("dcs", "dc", "global"); err != nil {
		return Fig12Result{}, err
	}
	ctx := func(domain string, week, n int) design.ChangeContext {
		return design.ChangeContext{
			EmployeeID: "exp", TicketID: fmt.Sprintf("T12-%d-%d", week, n),
			Description: "fig12 evolution", Domain: domain,
			NowUnix: 1_600_000_000 + int64(week)*7*86400,
		}
	}
	type cl struct {
		name string
		gen  string
	}
	var pops, dcs []cl
	clusterN := 0
	build := func(week int, site, domain string, tpl design.TopologyTemplate) (cl, error) {
		clusterN++
		name := fmt.Sprintf("%s-c%d", site, clusterN)
		_, err := d.BuildCluster(ctx(domain, week, clusterN), site, name, tpl)
		if err != nil {
			return cl{}, err
		}
		if _, err := store.Mutate(func(m *fbnet.Mutation) error {
			c, err := m.FindOne("Cluster", fbnet.Eq("name", name))
			if err != nil {
				return err
			}
			return m.Update("Cluster", c.ID, map[string]any{"status": "production"})
		}); err != nil {
			return cl{}, err
		}
		return cl{name: name, gen: tpl.Generation}, nil
	}
	decom := func(week int, c cl, domain string) error {
		_, err := d.DecommissionCluster(ctx(domain, week, clusterN), c.name)
		return err
	}
	removeAt := func(xs []cl, i int) []cl { return append(xs[:i], xs[i+1:]...) }

	gens := []string{"pop-gen1", "pop-gen2", "dc-gen1", "dc-gen2", "dc-gen3"}
	res := Fig12Result{Generations: gens, Weekly: map[string][]int{}, Weeks: cfg.Weeks}

	// Starting estate: a few Gen1 DCs predate the window.
	for i := 0; i < 4; i++ {
		c, err := build(0, "dcs", "dc", design.DCGen1(2))
		if err != nil {
			return Fig12Result{}, err
		}
		dcs = append(dcs, c)
	}
	for week := 0; week < cfg.Weeks; week++ {
		frac := float64(week) / float64(cfg.Weeks)
		// POP Gen1: rapid growth in the first third.
		if frac < 0.33 && r.Float64() < 0.5 {
			c, err := build(week, "pops", "pop", design.POPGen1())
			if err != nil {
				return Fig12Result{}, err
			}
			pops = append(pops, c)
		}
		// POP merge window: Gen1 clusters merge pairwise into Gen2
		// in place ("architectural upgrades were completed in-place due
		// to space/power limitation in POPs").
		if frac >= 0.3 && frac < 0.65 {
			var gen1Idx []int
			for i, c := range pops {
				if c.gen == "pop-gen1" {
					gen1Idx = append(gen1Idx, i)
				}
			}
			if len(gen1Idx) >= 2 && r.Float64() < 0.6 {
				// Decommission two Gen1s, build one Gen2.
				a, b := gen1Idx[0], gen1Idx[1]
				if err := decom(week, pops[b], "pop"); err != nil {
					return Fig12Result{}, err
				}
				if err := decom(week, pops[a], "pop"); err != nil {
					return Fig12Result{}, err
				}
				pops = removeAt(pops, b)
				pops = removeAt(pops, a)
				c, err := build(week, "pops", "pop", design.POPGen2())
				if err != nil {
					return Fig12Result{}, err
				}
				pops = append(pops, c)
			}
		}
		// POP Gen2 organic growth late.
		if frac >= 0.65 && r.Float64() < 0.25 {
			c, err := build(week, "pops", "pop", design.POPGen2())
			if err != nil {
				return Fig12Result{}, err
			}
			pops = append(pops, c)
		}
		// DC Gen2 builds through the first two thirds.
		if frac < 0.66 && r.Float64() < 0.25 {
			c, err := build(week, "dcs", "dc", design.DCGen2(2))
			if err != nil {
				return Fig12Result{}, err
			}
			dcs = append(dcs, c)
		}
		// DC Gen3 (v6-only) from the halfway point.
		if frac >= 0.5 && r.Float64() < 0.3 {
			c, err := build(week, "dcs", "dc", design.DCGen3(2))
			if err != nil {
				return Fig12Result{}, err
			}
			dcs = append(dcs, c)
		}
		// DC Gen1 decommissions ("architectural shifts for DC clusters
		// took place by adding new and decommissioning previous
		// generations").
		if frac >= 0.25 && r.Float64() < 0.15 {
			for i, c := range dcs {
				if c.gen == "dc-gen1" {
					if err := decom(week, c, "dc"); err != nil {
						return Fig12Result{}, err
					}
					dcs = removeAt(dcs, i)
					break
				}
			}
		}
		// Count production clusters by generation from FBNet.
		clusters, err := store.Find("Cluster", fbnet.Eq("status", "production"))
		if err != nil {
			return Fig12Result{}, err
		}
		counts := map[string]int{}
		for _, c := range clusters {
			counts[c.String("generation")]++
		}
		for _, g := range gens {
			res.Weekly[g] = append(res.Weekly[g], counts[g])
		}
	}
	return res, nil
}

// Format renders the timeline as a text chart.
func (r Fig12Result) Format() string {
	var b strings.Builder
	b.WriteString("Figure 12: evolution of cluster architectures (production clusters per week)\n")
	fmt.Fprintf(&b, "%-10s", "week")
	for _, g := range r.Generations {
		fmt.Fprintf(&b, "%10s", g)
	}
	b.WriteByte('\n')
	step := r.Weeks / 13
	if step == 0 {
		step = 1
	}
	for w := 0; w < r.Weeks; w += step {
		fmt.Fprintf(&b, "%-10d", w)
		for _, g := range r.Generations {
			fmt.Fprintf(&b, "%10d", r.Weekly[g][w])
		}
		b.WriteByte('\n')
	}
	last := r.Weeks - 1
	fmt.Fprintf(&b, "%-10d", last)
	for _, g := range r.Generations {
		fmt.Fprintf(&b, "%10d", r.Weekly[g][last])
	}
	b.WriteString("\n(paper shape: pop-gen1 peaks then merges into pop-gen2; dc generations coexist;\n dc-gen3 is v6-only and appears late; dc-gen1 retires via decommissioning)\n")
	return b.String()
}
