package configgen

import (
	"strings"
	"testing"

	"github.com/robotron-net/robotron/internal/design"
	"github.com/robotron-net/robotron/internal/fbnet"
	"github.com/robotron-net/robotron/internal/netsim"
	"github.com/robotron-net/robotron/internal/relstore"
	"github.com/robotron-net/robotron/internal/revctl"
)

func testCtx(domain string) design.ChangeContext {
	return design.ChangeContext{
		EmployeeID: "e1", TicketID: "T-1", Description: "test",
		Domain: domain, NowUnix: 1_700_000_000,
	}
}

// newPOP builds a 4-post POP in FBNet and returns a generator over it.
func newPOP(t testing.TB) (*design.Designer, *Generator) {
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
	g, err := NewGenerator(store, revctl.NewRepo())
	if err != nil {
		t.Fatal(err)
	}
	return d, g
}

func TestDeriveDeviceData(t *testing.T) {
	_, g := newPOP(t)
	data, err := g.DeriveDeviceData("pr1.pop1-c1")
	if err != nil {
		t.Fatal(err)
	}
	if data.Role != "pr" || data.Vendor != "vendor1" || data.Site != "pop1" {
		t.Errorf("identity = %+v", data)
	}
	// A PR connects to 4 PSWs: 4 aggregates, each with 2 member ports and
	// a /127 v6 prefix (POPGen1 is v6-only).
	if len(data.Aggs) != 4 {
		t.Fatalf("aggs = %d, want 4", len(data.Aggs))
	}
	for _, agg := range data.Aggs {
		if len(agg.Pifs) != 2 {
			t.Errorf("agg %s has %d pifs, want 2", agg.Name, len(agg.Pifs))
		}
		if agg.V6Prefix == "" || !strings.HasSuffix(agg.V6Prefix, "/127") {
			t.Errorf("agg %s v6 prefix = %q", agg.Name, agg.V6Prefix)
		}
		if agg.V4Prefix != "" {
			t.Errorf("v6-only cluster has v4 prefix %q", agg.V4Prefix)
		}
		if agg.MTU != 9192 {
			t.Errorf("agg mtu = %d", agg.MTU)
		}
	}
	// 4 eBGP neighbors (one per PSW), with remote AS in the PSW range.
	if len(data.BGPNeighbors) != 4 {
		t.Fatalf("bgp neighbors = %d, want 4", len(data.BGPNeighbors))
	}
	for _, n := range data.BGPNeighbors {
		if n.SessionType != "ebgp" || n.Family != "v6" {
			t.Errorf("neighbor = %+v", n)
		}
		if n.RemoteAS < 65101 || n.RemoteAS > 65104 {
			t.Errorf("neighbor AS = %d, want PSW range", n.RemoteAS)
		}
	}
	if data.LocalAS < 65001 || data.LocalAS > 65002 {
		t.Errorf("local AS = %d", data.LocalAS)
	}
	if data.LoopbackV6 == "" {
		t.Error("missing v6 loopback")
	}
}

func TestBothSessionSidesRender(t *testing.T) {
	_, g := newPOP(t)
	// The PSW side of each session (remote side of the object) must also
	// derive a neighbor — toward the PR's prefix address.
	data, err := g.DeriveDeviceData("psw1.pop1-c1")
	if err != nil {
		t.Fatal(err)
	}
	if len(data.BGPNeighbors) != 2 { // one per PR
		t.Fatalf("psw bgp neighbors = %d, want 2", len(data.BGPNeighbors))
	}
	for _, n := range data.BGPNeighbors {
		if n.RemoteAS != 65001 && n.RemoteAS != 65002 {
			t.Errorf("psw neighbor AS = %d, want PR AS", n.RemoteAS)
		}
	}
	// The pair of configs must reference each other's addresses: take the
	// PR's first agg prefix and check some PSW neighbor matches it.
	prData, _ := g.DeriveDeviceData("pr1.pop1-c1")
	prAddrs := map[string]bool{}
	for _, agg := range prData.Aggs {
		prAddrs[addrOfPrefix(agg.V6Prefix)] = true
	}
	var matched bool
	for _, n := range data.BGPNeighbors {
		if prAddrs[n.Addr] {
			matched = true
		}
	}
	if !matched {
		t.Errorf("no PSW neighbor address matches a PR interface address:\npsw: %+v\npr aggs: %v",
			data.BGPNeighbors, prAddrs)
	}
}

func TestGenerateVendor1Config(t *testing.T) {
	_, g := newPOP(t)
	cfg, err := g.GenerateDevice("pr1.pop1-c1") // Router_Vendor1
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"hostname pr1.pop1-c1",
		"interface ae0",
		"channel-group ae0",
		"lacp rate fast",
		"ipv6 addr ",
		"router bgp 6500",
		"remote-as 6510",
		"interface lo0",
	} {
		if !strings.Contains(cfg, want) {
			t.Errorf("vendor1 config missing %q:\n%s", want, cfg[:min(len(cfg), 800)])
		}
	}
	if strings.Contains(cfg, "{") {
		t.Error("vendor1 config contains braces")
	}
	if strings.Contains(cfg, "{{") || strings.Contains(cfg, "{%") {
		t.Error("unrendered template markers in config")
	}
}

func TestGenerateVendor2Config(t *testing.T) {
	_, g := newPOP(t)
	cfg, err := g.GenerateDevice("psw1.pop1-c1") // Switch_Vendor2
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"host-name psw1.pop1-c1;",
		"ae0 {",
		"family inet6 {",
		"802.3ad ae0;",
		"replace: et-1/0/",
		"peer-as 6500",
		"local-as 6510",
	} {
		if !strings.Contains(cfg, want) {
			t.Errorf("vendor2 config missing %q:\n%s", want, cfg[:min(len(cfg), 800)])
		}
	}
	// Brace balance (the device's own syntax check enforces this too).
	if strings.Count(cfg, "{") != strings.Count(cfg, "}") {
		t.Errorf("unbalanced braces: %d vs %d", strings.Count(cfg, "{"), strings.Count(cfg, "}"))
	}
}

// TestGeneratedConfigsLoadOnDevices drives the full path: FBNet -> config
// -> netsim device commit, for both vendors.
func TestGeneratedConfigsLoadOnDevices(t *testing.T) {
	_, g := newPOP(t)
	fleet := netsim.NewFleet()
	for _, tc := range []struct {
		name   string
		vendor netsim.Vendor
	}{
		{"pr1.pop1-c1", netsim.Vendor1},
		{"psw1.pop1-c1", netsim.Vendor2},
	} {
		cfg, err := g.GenerateDevice(tc.name)
		if err != nil {
			t.Fatal(err)
		}
		dev, err := fleet.AddDevice(tc.name, tc.vendor, "x", "pop1")
		if err != nil {
			t.Fatal(err)
		}
		if err := dev.LoadConfig(cfg); err != nil {
			t.Fatalf("%s rejected generated config: %v", tc.name, err)
		}
		if err := dev.Commit(); err != nil {
			t.Fatal(err)
		}
		// The device parses the interfaces out of the generated config.
		ifaces, _ := dev.ShowInterfaces()
		var aggs, pifs int
		for _, st := range ifaces {
			if strings.HasPrefix(st.Name, "ae") {
				aggs++
			}
			if strings.HasPrefix(st.Name, "et") {
				pifs++
			}
		}
		if aggs == 0 || pifs == 0 {
			t.Errorf("%s: device parsed %d aggs, %d pifs from generated config", tc.name, aggs, pifs)
		}
		peers, _ := dev.ShowBGPSummary()
		if len(peers) == 0 {
			t.Errorf("%s: no BGP peers parsed from generated config", tc.name)
		}
	}
}

// generateSite generates configs for every device at a site ("for a given
// location such as a POP or DC, Robotron fetches all related objects from
// FBNet") by handing the site's device names to GenerateMany.
func generateSite(g *Generator, site string, parallelism int) (map[string]string, error) {
	devs, err := g.store.Find("Device", fbnet.Eq("site.name", site))
	if err != nil {
		return nil, err
	}
	names := make([]string, len(devs))
	for i, dev := range devs {
		names[i] = dev.String("name")
	}
	return g.GenerateMany(names, parallelism)
}

func TestGenerateSite(t *testing.T) {
	_, g := newPOP(t)
	cfgs, err := generateSite(g, "pop1", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfgs) != 6 {
		t.Errorf("site configs = %d, want 6", len(cfgs))
	}
}

func TestDeterministicGeneration(t *testing.T) {
	_, g := newPOP(t)
	a, err := g.GenerateDevice("pr1.pop1-c1")
	if err != nil {
		t.Fatal(err)
	}
	b, err := g.GenerateDevice("pr1.pop1-c1")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("generation is not deterministic")
	}
}

func TestGoldenLifecycle(t *testing.T) {
	_, g := newPOP(t)
	cfg, _ := g.GenerateDevice("pr1.pop1-c1")
	rev, err := g.CommitGolden("pr1.pop1-c1", cfg, "e1", "initial provision")
	if err != nil {
		t.Fatal(err)
	}
	if rev.Number != 1 {
		t.Errorf("rev = %+v", rev)
	}
	got, err := g.Golden("pr1.pop1-c1")
	if err != nil || got != cfg {
		t.Errorf("golden mismatch: %v", err)
	}
	if _, err := g.Golden("never-provisioned"); err == nil {
		t.Error("missing golden should fail")
	}
}

func TestTemplateUpdateTakesEffect(t *testing.T) {
	_, g := newPOP(t)
	before, _ := g.GenerateDevice("pr1.pop1-c1")
	if strings.Contains(before, "service unsupported-transceiver") {
		t.Fatal("marker already present")
	}
	// An engineer lands a reviewed template change in the config repo.
	body, _ := g.repo.GetHead(TemplatePath("vendor1"))
	body = strings.Replace(body, "hostname {{ device.name }}",
		"hostname {{ device.name }}\nservice unsupported-transceiver", 1)
	if _, err := g.repo.Commit(TemplatePath("vendor1"), body, "e2", "add transceiver service"); err != nil {
		t.Fatal(err)
	}
	after, _ := g.GenerateDevice("pr1.pop1-c1")
	if !strings.Contains(after, "service unsupported-transceiver") {
		t.Error("template update not picked up")
	}
}

func TestGenerateUnknownDevice(t *testing.T) {
	_, g := newPOP(t)
	if _, err := g.GenerateDevice("no-such-device"); err == nil {
		t.Error("unknown device should fail")
	}
}

func TestBackboneIBGPConfigs(t *testing.T) {
	d, g := newPOP(t)
	d.EnsureSite("bb1-site", "backbone", "nam")
	d.AddBackboneRouter(testCtx("backbone"), "bb1", "bb1-site", "Backbone_Vendor2", "bb")
	d.AddBackboneRouter(testCtx("backbone"), "bb2", "bb1-site", "Backbone_Vendor2", "bb")
	cfg1, err := g.GenerateDevice("bb1")
	if err != nil {
		t.Fatal(err)
	}
	cfg2, err := g.GenerateDevice("bb2")
	if err != nil {
		t.Fatal(err)
	}
	// Each router lists the other's loopback as an iBGP neighbor.
	d2, _ := g.DeriveDeviceData("bb2")
	if !strings.Contains(cfg1, addrOfPrefix(d2.LoopbackV6)) {
		t.Errorf("bb1 config missing bb2 loopback neighbor")
	}
	d1, _ := g.DeriveDeviceData("bb1")
	if !strings.Contains(cfg2, addrOfPrefix(d1.LoopbackV6)) {
		t.Errorf("bb2 config missing bb1 loopback neighbor")
	}
	if !strings.Contains(cfg1, "local-address lo0;") {
		t.Errorf("ibgp session not marked loopback-sourced")
	}
}

func BenchmarkGenerateDevice(b *testing.B) {
	_, g := newPOP(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.GenerateDevice("pr1.pop1-c1"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGenerateSite(b *testing.B) {
	_, g := newPOP(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := generateSite(g, "pop1", 0); err != nil {
			b.Fatal(err)
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// TestTemplateIncludeFromRepo: a reviewed common section lands in the
// repository and vendor templates pull it in with {% include %}.
func TestTemplateIncludeFromRepo(t *testing.T) {
	_, g := newPOP(t)
	if _, err := g.repo.Commit("templates/common/banner.tmpl",
		"banner motd ^ managed by robotron — {{ device.site }} ^\n", "e1", "shared banner"); err != nil {
		t.Fatal(err)
	}
	body, _ := g.repo.GetHead(TemplatePath("vendor1"))
	body = strings.Replace(body, "hostname {{ device.name }}\n",
		"hostname {{ device.name }}\n{% include 'templates/common/banner.tmpl' %}", 1)
	if _, err := g.repo.Commit(TemplatePath("vendor1"), body, "e1", "use shared banner"); err != nil {
		t.Fatal(err)
	}
	cfg, err := g.GenerateDevice("pr1.pop1-c1")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(cfg, "banner motd ^ managed by robotron — pop1 ^") {
		t.Errorf("included banner missing:\n%s", cfg[:min(len(cfg), 400)])
	}
	// Updating only the included file takes effect on the next render.
	if _, err := g.repo.Commit("templates/common/banner.tmpl",
		"banner motd ^ v2 banner ^\n", "e1", "new banner"); err != nil {
		t.Fatal(err)
	}
	// The outer template is unchanged, so the cache key matters: the
	// include is resolved at parse time, and the cache is keyed by the
	// outer body hash. Re-committing the outer template (a no-op change
	// plus whitespace) picks the new include up.
	body += "\n"
	if _, err := g.repo.Commit(TemplatePath("vendor1"), body, "e1", "bump"); err != nil {
		t.Fatal(err)
	}
	cfg, err = g.GenerateDevice("pr1.pop1-c1")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(cfg, "v2 banner") {
		t.Error("updated include not picked up after outer template bump")
	}
}
