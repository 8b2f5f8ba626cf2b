package verify

import (
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"github.com/robotron-net/robotron/internal/configgen"
	"github.com/robotron-net/robotron/internal/design"
	"github.com/robotron-net/robotron/internal/fbnet"
	"github.com/robotron-net/robotron/internal/ipam"
	"github.com/robotron-net/robotron/internal/relstore"
	"github.com/robotron-net/robotron/internal/revctl"
	"github.com/robotron-net/robotron/internal/telemetry"
)

func testCtx(domain string) design.ChangeContext {
	return design.ChangeContext{
		EmployeeID: "e1", TicketID: "T-1", Description: "test",
		Domain: domain, NowUnix: 1_700_000_000,
	}
}

// newFleet builds a known-good POP cluster, renders its configs, commits
// them as goldens (the diff baseline a later mutation is compared to),
// and returns the pieces a mutation test needs.
func newFleet(t *testing.T) (*design.Designer, *configgen.Generator, *Checker) {
	t.Helper()
	db := relstore.NewDB("master")
	store, err := fbnet.Open(db, fbnet.NewCatalog())
	if err != nil {
		t.Fatal(err)
	}
	d, err := design.NewDesigner(store, design.DefaultPools())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.EnsureStandardHardware(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.EnsureSite("pop1", "pop", "apac"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.BuildCluster(testCtx("pop"), "pop1", "pop1-c1", design.POPGen1()); err != nil {
		t.Fatal(err)
	}
	g, err := configgen.NewGenerator(store, revctl.NewRepo(), NewChecker(store, nil))
	if err != nil {
		t.Fatal(err)
	}
	for name, cfg := range renderSite(t, store, g) {
		if _, err := g.CommitGolden(name, cfg, "e1", "seed golden"); err != nil {
			t.Fatal(err)
		}
	}
	return d, g, NewChecker(store, g.Golden)
}

func renderSite(t *testing.T, store *fbnet.Store, g *configgen.Generator) map[string]string {
	t.Helper()
	devs, err := store.Find("Device", fbnet.Eq("site.name", "pop1"))
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(devs))
	for i, dev := range devs {
		names[i] = dev.String("name")
	}
	cfgs, err := g.GenerateMany(names, 0)
	if err != nil {
		t.Fatal(err)
	}
	return cfgs
}

func byInvariant(vs []Violation, inv Invariant) []Violation {
	var out []Violation
	for _, v := range vs {
		if v.Invariant == inv {
			out = append(out, v)
		}
	}
	return out
}

// eachChecker runs a case twice on a fresh fleet: through a cold checker,
// whose first run loads the store, and through a pre-warmed one, whose
// resident model has to follow the case's mutation through the binlog.
func eachChecker(t *testing.T, run func(t *testing.T, d *design.Designer, g *configgen.Generator, c *Checker)) {
	for _, warm := range []bool{false, true} {
		name := "cold"
		if warm {
			name = "warm"
		}
		t.Run(name, func(t *testing.T) {
			d, g, c := newFleet(t)
			if warm {
				if res, err := c.Check(renderSite(t, c.store, g)); err != nil || !res.Pass() {
					t.Fatalf("warming check: res=%+v err=%v", res, err)
				}
			}
			run(t, d, g, c)
		})
	}
}

// TestCleanFleetPasses: a freshly designed cluster has zero violations,
// and the gate records its run in telemetry.
func TestCleanFleetPasses(t *testing.T) {
	d, g, c := newFleet(t)
	reg := telemetry.NewRegistry()
	c.Instrument(reg)
	res, err := c.Check(renderSite(t, c.store, g))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Pass() {
		for _, v := range res.Violations {
			t.Errorf("clean fleet violation: %s", v)
		}
	}
	if res.Devices != 6 {
		t.Errorf("checked %d devices, want 6", res.Devices)
	}
	if got := reg.Counter("robotron_verify_runs_total").Value(); got != 1 {
		t.Errorf("runs counter = %d, want 1", got)
	}
	if got := reg.Counter("robotron_verify_rejections_total").Value(); got != 0 {
		t.Errorf("rejections counter = %d, want 0", got)
	}
	if got := reg.Histogram("robotron_verify_seconds").Count(); got != 1 {
		t.Errorf("latency histogram count = %d, want 1", got)
	}
	// The first run is a cold rebuild: it reads no delta and re-evaluates
	// every stored check. A second run over an unchanged store reads
	// nothing and re-evaluates nothing — what tells an operator that a
	// slow run was a rebuild.
	if !res.Rebuilt || res.DeltaEntries != 0 || res.Rechecked == 0 {
		t.Errorf("first run: rebuilt=%v delta=%d rechecked=%d, want a rebuild of every check",
			res.Rebuilt, res.DeltaEntries, res.Rechecked)
	}
	rechecked := func() (n int64) {
		for _, inv := range Invariants {
			v := reg.Counter("robotron_verify_rechecked_keys_total", telemetry.L("invariant", string(inv))...).Value()
			if v == 0 {
				t.Errorf("cold run rechecked no %s key", inv)
			}
			n += v
		}
		return n
	}
	cold := rechecked()
	if cold != int64(res.Rechecked) {
		t.Errorf("rechecked counters sum to %d, result says %d", cold, res.Rechecked)
	}
	if got := reg.Counter("robotron_verify_model_rebuilds_total").Value(); got != 1 {
		t.Errorf("rebuilds counter = %d, want 1", got)
	}
	if _, err := d.AddRack(testCtx("pop"), "pop1-c1", "TOR_Vendor1", "psw", 2, true, false); err != nil {
		t.Fatal(err)
	}
	res, err = c.Check(renderSite(t, c.store, g))
	if err != nil || !res.Pass() {
		t.Fatalf("check after add-rack: res=%+v err=%v", res, err)
	}
	if res.Rebuilt || res.DeltaEntries == 0 || res.Rechecked == 0 {
		t.Errorf("run after add-rack: rebuilt=%v delta=%d rechecked=%d, want a delta and no rebuild",
			res.Rebuilt, res.DeltaEntries, res.Rechecked)
	}
	if got := reg.Counter("robotron_verify_delta_entries_total").Value(); got != int64(res.DeltaEntries) {
		t.Errorf("delta entries counter = %d, want %d", got, res.DeltaEntries)
	}
	if got := rechecked() - cold; got != int64(res.Rechecked) || got >= cold {
		t.Errorf("warm run rechecked %d keys (result says %d), cold run %d: want fewer", got, res.Rechecked, cold)
	}
	if got := reg.Counter("robotron_verify_model_rebuilds_total").Value(); got != 1 {
		t.Errorf("rebuilds counter = %d after a warm run, want 1", got)
	}
}

// TestUninstrumentedCheckerWorks: the gate must not require telemetry.
func TestUninstrumentedCheckerWorks(t *testing.T) {
	_, g, c := newFleet(t)
	if res, err := c.Check(renderSite(t, c.store, g)); err != nil || !res.Pass() {
		t.Fatalf("uninstrumented check: res=%+v err=%v", res, err)
	}
}

// TestFlippedASNRejected: flip one session's remote AS and the gate must
// name the device now claiming two AS numbers, with the confdiff hunk of
// its pending change carrying the flipped value.
func TestFlippedASNRejected(t *testing.T) {
	eachChecker(t, testFlippedASNRejected)
}

func testFlippedASNRejected(t *testing.T, d *design.Designer, g *configgen.Generator, c *Checker) {
	store := d.Store()
	reg := telemetry.NewRegistry()
	c.Instrument(reg)
	ss, err := store.Find("BgpV6Session", fbnet.Eq("session_type", "ebgp"))
	if err != nil || len(ss) == 0 {
		t.Fatalf("no ebgp sessions: %v", err)
	}
	s := ss[0]
	victim, err := store.GetByID("Device", s.Ref("remote_device"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Mutate(func(m *fbnet.Mutation) error {
		return m.Update("BgpV6Session", s.ID, map[string]any{"remote_as": int64(65999)})
	}); err != nil {
		t.Fatal(err)
	}
	res, err := c.Check(renderSite(t, c.store, g))
	if err != nil {
		t.Fatal(err)
	}
	if res.Pass() {
		t.Fatal("flipped ASN passed the gate")
	}
	sym := byInvariant(res.Violations, BGPSymmetry)
	if len(sym) == 0 {
		t.Fatalf("no %s violation; got %v", BGPSymmetry, res.Violations)
	}
	found := false
	for _, v := range sym {
		if v.Device == victim.String("name") && strings.Contains(v.Detail, "65999") {
			found = true
			if v.Hunk == "" {
				t.Errorf("violation on %s has no counterexample hunk", v.Device)
			} else if !strings.Contains(v.Hunk, "65999") {
				t.Errorf("hunk does not show the flipped AS:\n%s", v.Hunk)
			}
		}
	}
	if !found {
		t.Errorf("no violation names %s with AS 65999: %v", victim.String("name"), sym)
	}
	if got := reg.Counter("robotron_verify_rejections_total").Value(); got != 1 {
		t.Errorf("rejections counter = %d, want 1", got)
	}
	if got := reg.Counter("robotron_verify_violations_total",
		telemetry.L("invariant", string(BGPSymmetry))...).Value(); got == 0 {
		t.Error("per-invariant violation counter not incremented")
	}
}

// TestLeakedSubnetRejected: re-address one end of a p2p link into a /126
// that swallows another link's subnet. Both the one-sided original subnet
// and the cross-circuit overlap must surface, naming the device.
func TestLeakedSubnetRejected(t *testing.T) {
	eachChecker(t, testLeakedSubnetRejected)
}

func testLeakedSubnetRejected(t *testing.T, d *design.Designer, g *configgen.Generator, c *Checker) {
	store := d.Store()
	pfxs, err := store.Find("V6Prefix", fbnet.Eq("purpose", "p2p"))
	if err != nil || len(pfxs) < 4 {
		t.Fatalf("p2p prefixes: %d, err %v", len(pfxs), err)
	}
	sort.Slice(pfxs, func(i, j int) bool { return pfxs[i].String("prefix") < pfxs[j].String("prefix") })
	victim := pfxs[0]
	victimPfx := netip.MustParsePrefix(victim.String("prefix"))
	// Find a prefix in a different /127 and widen the victim over it.
	var target netip.Prefix
	for _, p := range pfxs[1:] {
		cand := netip.MustParsePrefix(p.String("prefix"))
		if cand.Masked() != victimPfx.Masked() {
			target = cand
			break
		}
	}
	if !target.IsValid() {
		t.Fatal("no second p2p subnet in fleet")
	}
	leak := netip.PrefixFrom(target.Addr(), 126)
	if _, err := store.Mutate(func(m *fbnet.Mutation) error {
		return m.Update("V6Prefix", victim.ID, map[string]any{"prefix": leak.String()})
	}); err != nil {
		t.Fatal(err)
	}
	res, err := c.Check(renderSite(t, c.store, g))
	if err != nil {
		t.Fatal(err)
	}
	if res.Pass() {
		t.Fatal("leaked subnet passed the gate")
	}
	p2p := byInvariant(res.Violations, P2PConsistency)
	if len(p2p) == 0 {
		t.Fatalf("no %s violation; got %v", P2PConsistency, res.Violations)
	}
	overlap, hunked := false, false
	for _, v := range p2p {
		if v.Device == "" {
			t.Errorf("violation without a device: %s", v)
		}
		if strings.Contains(v.Detail, "overlaps") {
			overlap = true
		}
		if v.Hunk != "" && strings.Contains(v.Hunk, leak.Addr().String()) {
			hunked = true
		}
	}
	if !overlap {
		t.Errorf("cross-circuit overlap not reported: %v", p2p)
	}
	if !hunked {
		t.Errorf("no violation hunk shows the leaked address %s: %v", leak.Addr(), p2p)
	}
}

// TestOrphanedCircuitRejected: deleting a physical interface nulls its
// circuit endpoint; the gate must name the device and port recovered from
// the circuit id, and the hunk must show the port leaving the config.
func TestOrphanedCircuitRejected(t *testing.T) {
	eachChecker(t, testOrphanedCircuitRejected)
}

func testOrphanedCircuitRejected(t *testing.T, d *design.Designer, g *configgen.Generator, c *Checker) {
	store := d.Store()
	circuits, err := store.Find("Circuit", fbnet.Eq("status", "provisioning"))
	if err != nil || len(circuits) == 0 {
		t.Fatalf("no provisioning circuits: %v", err)
	}
	cir := circuits[0]
	pif, err := store.GetByID("PhysicalInterface", cir.Ref("a_interface"))
	if err != nil {
		t.Fatal(err)
	}
	wantDev, wantIface := parseCircuitEnd(cir.String("circuit_id"), true)
	if wantIface != pif.String("name") {
		t.Fatalf("circuit id %q does not encode a-side port %q", cir.String("circuit_id"), pif.String("name"))
	}
	if _, err := store.Mutate(func(m *fbnet.Mutation) error {
		return m.Delete("PhysicalInterface", pif.ID)
	}); err != nil {
		t.Fatal(err)
	}
	res, err := c.Check(renderSite(t, c.store, g))
	if err != nil {
		t.Fatal(err)
	}
	if res.Pass() {
		t.Fatal("orphaned circuit passed the gate")
	}
	orphans := byInvariant(res.Violations, OrphanRef)
	found := false
	for _, v := range orphans {
		if v.Device == wantDev && strings.Contains(v.Detail, cir.String("circuit_id")) {
			found = true
			if v.Hunk == "" || !strings.Contains(v.Hunk, wantIface) {
				t.Errorf("hunk does not show port %s leaving the config:\n%q", wantIface, v.Hunk)
			}
		}
	}
	if !found {
		t.Errorf("no orphan violation names %s / circuit %s: %v", wantDev, cir.String("circuit_id"), orphans)
	}
}

// TestCircuitOffItsLinkGroupRejected: re-pointing a link group at another
// device leaves its circuits running between devices the bundle does not
// join; only the link group's row changes, so a warm checker must re-mark
// the circuits through it.
func TestCircuitOffItsLinkGroupRejected(t *testing.T) {
	eachChecker(t, testCircuitOffItsLinkGroupRejected)
}

func testCircuitOffItsLinkGroupRejected(t *testing.T, d *design.Designer, _ *configgen.Generator, c *Checker) {
	store := d.Store()
	lgs, err := store.Find("LinkGroup", fbnet.Contains("name", "psw1.pop1-c1"))
	if err != nil || len(lgs) == 0 {
		t.Fatalf("no link group of psw1: %v", err)
	}
	lg := lgs[0]
	other, err := store.FindOne("Device", fbnet.Eq("name", "psw2.pop1-c1"))
	if err != nil {
		t.Fatal(err)
	}
	circuits, err := store.DB().Referencing("Circuit", "link_group", lg.ID)
	if err != nil || len(circuits) == 0 {
		t.Fatalf("link group %s has no circuits: %v", lg.String("name"), err)
	}
	if lg.Ref("a_device") == other.ID || lg.Ref("z_device") == other.ID {
		t.Fatalf("link group %s already ends on %s", lg.String("name"), other.String("name"))
	}
	if _, err := store.Mutate(func(m *fbnet.Mutation) error {
		return m.Update("LinkGroup", lg.ID, map[string]any{"a_device": other.ID})
	}); err != nil {
		t.Fatal(err)
	}
	res, err := c.Check(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range circuits {
		if !slices.ContainsFunc(res.Violations, func(v Violation) bool {
			return v.Invariant == OrphanRef && v.Model == "Circuit" && v.ID == id &&
				strings.Contains(v.Detail, "not the devices of its link group")
		}) {
			t.Errorf("circuit #%d off its link group not flagged: %v", id, res.Violations)
		}
	}
}

// TestPartitionedDeviceRejected: decommissioning every circuit of one
// switch strands it below its aggregation layer.
func TestPartitionedDeviceRejected(t *testing.T) {
	eachChecker(t, testPartitionedDeviceRejected)
}

func testPartitionedDeviceRejected(t *testing.T, d *design.Designer, g *configgen.Generator, c *Checker) {
	store := d.Store()
	victim, err := store.FindOne("Device", fbnet.Eq("name", "psw1.pop1-c1"))
	if err != nil {
		t.Fatal(err)
	}
	// Resolve each circuit's endpoint devices through pif → linecard.
	pifDev := func(pifID int64) int64 {
		p, err := store.GetByID("PhysicalInterface", pifID)
		if err != nil {
			return 0
		}
		lc, err := store.GetByID("Linecard", p.Ref("linecard"))
		if err != nil {
			return 0
		}
		return lc.Ref("device")
	}
	circuits, err := store.Find("Circuit", fbnet.Ne("status", "decommissioned"))
	if err != nil {
		t.Fatal(err)
	}
	var cut []int64
	for _, cir := range circuits {
		if pifDev(cir.Ref("a_interface")) == victim.ID || pifDev(cir.Ref("z_interface")) == victim.ID {
			cut = append(cut, cir.ID)
		}
	}
	if len(cut) == 0 {
		t.Fatal("victim had no circuits to cut")
	}
	if _, err := store.Mutate(func(m *fbnet.Mutation) error {
		for _, id := range cut {
			if err := m.Update("Circuit", id, map[string]any{"status": "decommissioned"}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	res, err := c.Check(renderSite(t, c.store, g))
	if err != nil {
		t.Fatal(err)
	}
	reach := byInvariant(res.Violations, Reachability)
	found := false
	for _, v := range reach {
		if v.Device == "psw1.pop1-c1" && strings.Contains(v.Detail, "aggregation layer") {
			found = true
		}
	}
	if !found {
		t.Errorf("partitioned psw1 not flagged; reachability violations: %v", reach)
	}
}

// TestRejectionError renders the violation count and first counterexample.
func TestRejectionError(t *testing.T) {
	err := &RejectionError{Result: Result{Violations: []Violation{
		{Invariant: BGPSymmetry, Device: "psw1", Detail: "AS flip"},
		{Invariant: OrphanRef, Device: "pr1", Detail: "gone"},
	}}}
	msg := err.Error()
	for _, want := range []string{"2 invariant violation", "bgp-symmetry", "psw1", "AS flip"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q missing %q", msg, want)
		}
	}
}

func TestContainsAddrBoundaries(t *testing.T) {
	cases := []struct {
		cfg, addr string
		want      bool
	}{
		{"neighbor 10.0.0.1 remote-as 1", "10.0.0.1", true},
		{"neighbor 10.0.0.10 remote-as 1", "10.0.0.1", false},
		{"neighbor 2401:db00::10 {", "2401:db00::1", false},
		{"neighbor 2401:db00::1 {", "2401:db00::1", true},
		{"addr 10.0.0.1/31", "10.0.0.1", false}, // /31 token, not the bare addr
		{"x10.0.0.1", "10.0.0.1", true},         // 'x' is not an address char
	}
	for _, tc := range cases {
		if got := containsAddr(tc.cfg, tc.addr); got != tc.want {
			t.Errorf("containsAddr(%q, %q) = %v, want %v", tc.cfg, tc.addr, got, tc.want)
		}
	}
}

func TestParseCircuitEnd(t *testing.T) {
	dev, iface := parseCircuitEnd("pr1.c1:et1/1--psw1.c1:et2/2", true)
	if dev != "pr1.c1" || iface != "et1/1" {
		t.Errorf("a side = %s:%s", dev, iface)
	}
	dev, iface = parseCircuitEnd("pr1.c1:et1/1--psw1.c1:et2/2", false)
	if dev != "psw1.c1" || iface != "et2/2" {
		t.Errorf("z side = %s:%s", dev, iface)
	}
}

// TestDownStoreFailsClosed: the gate never vouches for a store it cannot
// read. A cold checker fails on its view of the store; a warm one needs
// no rows, so it must notice for itself.
func TestDownStoreFailsClosed(t *testing.T) {
	eachChecker(t, func(t *testing.T, d *design.Designer, g *configgen.Generator, c *Checker) {
		configs := renderSite(t, c.store, g)
		db := d.Store().DB()
		db.SetDown(true)
		if res, err := c.Check(configs); err == nil {
			t.Fatalf("check against a down store returned no error (pass=%v)", res.Pass())
		}
		db.SetDown(false)
		if res, err := c.Check(configs); err != nil || !res.Pass() {
			t.Fatalf("check after recovery: res=%+v err=%v", res, err)
		}
	})
}

// TestWarmCheckReadsNoRows: a cold run rebuilds the model, reading its
// rows through one relstore view rather than FBNet queries; a warm run —
// even one that has a design change to absorb and a violation to find —
// rebuilds nothing and issues no store query at all.
func TestWarmCheckReadsNoRows(t *testing.T) {
	d, g, c := newFleet(t)
	store := d.Store()
	reg := telemetry.NewRegistry()
	store.Instrument(reg)
	queries := func() int64 {
		return reg.Counter("robotron_fbnet_queries_planned_total", telemetry.L("strategy", "indexed")...).Value() +
			reg.Counter("robotron_fbnet_queries_planned_total", telemetry.L("strategy", "scan")...).Value()
	}
	configs := renderSite(t, c.store, g)
	before := queries()
	if res, err := c.Check(configs); err != nil || !res.Rebuilt {
		t.Fatalf("cold check: rebuilt=%v err=%v, want a rebuild", res.Rebuilt, err)
	}
	if got := queries() - before; got != 0 {
		t.Errorf("cold check issued %d FBNet queries, want 0: it reads rows through one view", got)
	}
	s, err := store.FindOne("BgpV6Session", fbnet.Eq("id", int64(1)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Mutate(func(m *fbnet.Mutation) error {
		return m.Update("BgpV6Session", s.ID, map[string]any{"remote_as": int64(65999)})
	}); err != nil {
		t.Fatal(err)
	}
	before = queries()
	res, err := c.Check(configs)
	if err != nil {
		t.Fatal(err)
	}
	if got := queries() - before; got != 0 {
		t.Errorf("warm check issued %d store queries, want 0", got)
	}
	if res.Pass() || res.Rebuilt {
		t.Errorf("warm check: pass=%v rebuilt=%v, want a rejection from the delta alone", res.Pass(), res.Rebuilt)
	}
}

// TestThreeEndedSubnetRejected: widening three prefixes into one /126
// gives a "point-to-point" subnet three ends.
func TestThreeEndedSubnetRejected(t *testing.T) {
	eachChecker(t, func(t *testing.T, d *design.Designer, g *configgen.Generator, c *Checker) {
		store := d.Store()
		pfxs, err := store.Find("V6Prefix", fbnet.Eq("purpose", "p2p"))
		if err != nil {
			t.Fatal(err)
		}
		byQuad := map[netip.Prefix][]fbnet.Object{}
		var quad netip.Prefix
		for _, p := range pfxs {
			q := netip.PrefixFrom(netip.MustParsePrefix(p.String("prefix")).Addr(), 126).Masked()
			if byQuad[q] = append(byQuad[q], p); len(byQuad[q]) == 3 {
				quad = q
			}
		}
		if !quad.IsValid() {
			t.Fatal("no three p2p prefixes share a /126")
		}
		if _, err := store.Mutate(func(m *fbnet.Mutation) error {
			for _, p := range byQuad[quad][:3] {
				wide := netip.PrefixFrom(netip.MustParsePrefix(p.String("prefix")).Addr(), 126)
				if err := m.Update("V6Prefix", p.ID, map[string]any{"prefix": wide.String()}); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		res, err := c.Check(renderSite(t, c.store, g))
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, v := range byInvariant(res.Violations, P2PConsistency) {
			if strings.Contains(v.Detail, quad.String()+" is addressed on 3 interfaces") {
				found = true
			}
		}
		if !found {
			t.Errorf("three-ended %s not reported: %v", quad, res.Violations)
		}
	})
}

// ipamReplay is the oracle the nesting index replaced: every subnet
// replayed, in (address, length) order, into a fresh ipam pool per family;
// the ones the pool rejects, with the violation text the rejection gave.
func ipamReplay(subnets []netip.Prefix) map[netip.Prefix]string {
	subnets = slices.Clone(subnets)
	slices.SortFunc(subnets, compareSubnets)
	rejected := map[netip.Prefix]string{}
	pool4, pool6 := ipam.MustPool("0.0.0.0/0"), ipam.MustPool("::/0")
	for _, subnet := range slices.Compact(subnets) {
		pool := pool6
		if subnet.Addr().Is4() {
			pool = pool4
		}
		if err := pool.Reserve(subnet, "owner"); err != nil {
			rejected[subnet] = fmt.Sprintf("subnet %s overlaps another circuit's allocation: %v", subnet, err)
		}
	}
	return rejected
}

// TestNestingIndexMatchesIpamReplay pins the overlap verdicts, their text,
// and the dirtying rule of the nesting index over random prefix sets —
// both families, duplicates, mixed lengths, inserts and deletes.
func TestNestingIndexMatchesIpamReplay(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := newModel()
		live := map[rowKey]netip.Prefix{}
		nextID := int64(0)
		for step := 0; step < 60; step++ {
			m.recheck()
			var changed netip.Prefix
			before := len(m.subnets)
			if len(live) > 0 && rng.Intn(3) == 0 {
				var keys []rowKey
				for k := range live {
					keys = append(keys, k)
				}
				slices.SortFunc(keys, compareRowKeys)
				k := keys[rng.Intn(len(keys))]
				changed = live[k].Masked()
				delete(live, k)
				m.apply(&relstore.LogEntry{Op: relstore.OpDelete, Table: k.prefixModel(), RowID: k.id})
			} else {
				// A few bits of address under a long common prefix, so
				// that containment and duplicates are the common case.
				var p netip.Prefix
				if rng.Intn(3) == 0 {
					p = netip.PrefixFrom(netip.AddrFrom4([4]byte{10, 0, 0, byte(rng.Intn(32))}), 26+rng.Intn(7))
				} else {
					a := netip.MustParseAddr("2401:db00::").As16()
					a[15] = byte(rng.Intn(32))
					p = netip.PrefixFrom(netip.AddrFrom16(a), 122+rng.Intn(7))
				}
				nextID++
				k := rowKey{p.Addr().Is4(), nextID}
				live[k], changed = p, p.Masked()
				m.apply(&relstore.LogEntry{Op: relstore.OpInsert, Table: k.prefixModel(), RowID: k.id, Values: map[string]any{
					"prefix": p.String(), "purpose": []string{"p2p", "external"}[rng.Intn(2)],
				}})
			}
			var subnets []netip.Prefix
			for _, p := range live {
				subnets = append(subnets, p.Masked())
			}
			// Dirtying: the changed subnet itself and, when it appeared or
			// disappeared, exactly the tracked subnets it contains.
			wantDirty := map[netip.Prefix]bool{changed: true}
			if len(m.subnets) != before {
				for _, s := range subnets {
					if changed.Bits() < s.Bits() && changed.Contains(s.Addr()) {
						wantDirty[s] = true
					}
				}
			}
			gotDirty := map[netip.Prefix]bool{}
			for k := range m.dirty {
				if k.kind == checkSubnet {
					gotDirty[k.subnet] = true
				}
			}
			if !reflect.DeepEqual(gotDirty, wantDirty) {
				t.Fatalf("seed %d step %d: change of %s marked %v, want %v", seed, step, changed, gotDirty, wantDirty)
			}
			m.recheck()
			got := map[netip.Prefix]string{}
			for k, vs := range m.found {
				for _, v := range vs {
					if k.kind == checkSubnet && strings.Contains(v.Detail, "overlaps") {
						got[k.subnet] = v.Detail
					}
				}
			}
			if want := ipamReplay(subnets); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d step %d: nesting index and ipam replay disagree over %v\nindex: %v\nipam:  %v",
					seed, step, subnets, got, want)
			}
		}
	}
}
