package netsim

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"github.com/robotron-net/robotron/internal/configgen"
	"github.com/robotron-net/robotron/internal/tmpl"
)

// The regular expressions the running-config parse used before scanConfig
// replaced them. They are the scanner's oracle: FuzzReparse holds the two
// to the same answer on any input.
var (
	// vendor1: "interface et1/1"; vendor2: "et-0/0/1 {" or "replace: ae0 {".
	ifaceV1Re = regexp.MustCompile(`(?m)^interface +(\S+)`)
	ifaceV2Re = regexp.MustCompile(`(?m)^(?:replace: +)?((?:et|xe|ge|ae|lo)[-0-9/.]*\d\S*) +\{`)
	// vendor1: "neighbor 2401:db00::1 remote-as 65000"
	// vendor2: "neighbor 2401:db00::1 {"
	neighborRe = regexp.MustCompile(`(?m)^\s*neighbor +(\S+?)(?: +remote-as +(\d+))?(?: *\{)?\s*$`)
	speedRe    = regexp.MustCompile(`(?m)^\s*speed +(\d+)`)
)

// regexScan is the parse the regular expressions gave: the interface set
// after the tunnel filter, the peer set, and the speed.
func regexScan(v Vendor, cfg string) (ifaces, peers []string, speed int64) {
	re := ifaceV1Re
	if v == Vendor2 {
		re = ifaceV2Re
	}
	for _, m := range re.FindAllStringSubmatch(cfg, -1) {
		if !strings.HasPrefix(m[1], "tunnel") {
			ifaces = append(ifaces, m[1])
		}
	}
	for _, m := range neighborRe.FindAllStringSubmatch(cfg, -1) {
		peers = append(peers, m[1])
	}
	speed = 10000
	if m := speedRe.FindStringSubmatch(cfg); m != nil {
		fmt.Sscanf(m[1], "%d", &speed)
	}
	return set(ifaces), set(peers), speed
}

// set sorts and deduplicates.
func set(xs []string) []string {
	sort.Strings(xs)
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || x != xs[i-1] {
			out = append(out, x)
		}
	}
	return out
}

// scanEdgeCases are the lines where a hand-written scan and the regular
// expressions are most likely to part ways.
var scanEdgeCases = []string{
	"neighbor 10.0.0.1{\n",
	"neighbor 10.0.0.1 { \n",
	"neighbor 10.0.0.1 remote-as 65000 route-map Y\n",
	"neighbor 10.0.0.1 remote-as 65000 {\n",
	"neighbor 10.0.0.1 remote-as  65000{\n",
	"neighbor\t10.0.0.1 remote-as 65000\n",
	"neighbor 10.0.0.1\tremote-as 65000\n",
	"neighbor 10.0.0.1 remote-as\t65000\n",
	"neighbor 10.0.0.1\t{\n",
	"neighbor x{{\n",
	"neighbor {\n",
	"neighbor {{ \n",
	"interface\tet1/1\n",
	"interface \tet1/1\n",
	"interface  et1/1\n",
	" interface et1/1\n",
	"interface tunnel-te1\n",
	"interfaces {\n",
	"replace:  ae0 {\n",
	"replace:ae0 {\n",
	"replace: replace: ae0 {\n",
	"ae0\t{\n",
	"ae0{ {\n",
	"et-/.1x {\n",
	"etx1 {\n",
	"lo0 {x\n",
	" et-1/0/1 {\n",
	"class-of-service {\n",
	"  speed 40000\n",
	"speed 100\nspeed 200\n",
	"speed 99999999999999999999\nspeed 5\n",
	"\tspeed\t40000\n",
	"speedy 7\n",
	"neighbor 10.0.0.1 remote-as 65000\n\n\nneighbor 10.0.0.2 remote-as 65000\n",
	"neighbor 10.0.0.1 {\n \n\t\nneighbor 10.0.0.2 {\n",
	"interface et1/1\r\nneighbor 10.0.0.1 remote-as 65000\r\nspeed 100\r\n",
	"neighbor 10.0.0.1\r",
	"neighbor 10.0.0.1 \v\n",
	"\v neighbor 10.0.0.1\n",
	"x\rneighbor 10.0.0.1\n",
	"neighbor \xff\xfe remote-as 1\n",
}

// renderedTemplates renders both vendor templates for a device that fills
// every section they have.
func renderedTemplates(tb testing.TB) []string {
	device := &configgen.DeviceData{
		Name: "pr1.pop1-c1", Role: "pr", Site: "pop1",
		LoopbackV4: "10.0.0.1/32", LoopbackV6: "2401:db00::1/128", LocalAS: 65001,
		Aggs: []configgen.AggregatedInterfaceData{{
			Name: "ae0", V4Prefix: "10.128.0.0/31", V6Prefix: "2401:db00:f000::/127", MTU: 9192,
			Pifs: []configgen.PhysicalInterfaceData{{Name: "et1/1"}, {Name: "et-1/0/2"}},
		}},
		BGPNeighbors: []configgen.BGPNeighborData{
			{Addr: "2401:db00:f000::1", RemoteAS: 65002, SessionType: "ebgp", Description: "psw1.pop1-c1", ImportPolicy: "in"},
			{Addr: "10.0.0.2", RemoteAS: 65001, SessionType: "ibgp", Description: "pr2.pop1-c1"},
		},
		MplsTunnels: []configgen.MplsTunnelData{{Name: "tunnel-te1", TailLoopback: "2401:db00::2", BandwidthMbps: 1000}},
		Policies:    []configgen.PolicyData{{Name: "in", Terms: []configgen.PolicyTermData{{Seq: 10, Action: "accept"}}}},
		Firewalls: []configgen.FirewallData{{Name: "edge", Direction: "in",
			Rules: []configgen.FirewallRuleData{{Seq: 10, Action: "permit", Protocol: "tcp", DstPort: 22}}}},
	}
	var out []string
	for _, src := range []string{configgen.Vendor1FullTemplate, configgen.Vendor2FullTemplate} {
		tm, err := tmpl.Parse("device", src)
		if err != nil {
			tb.Fatal(err)
		}
		cfg, err := tm.Render(map[string]any{"device": device})
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, cfg)
	}
	return out
}

// testLiterals returns every string literal in the package's test files,
// the configs the netsim tests commit among them.
func testLiterals(tb testing.TB) []string {
	files, err := filepath.Glob("*_test.go")
	if err != nil {
		tb.Fatal(err)
	}
	var out []string
	for _, path := range files {
		file, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			tb.Fatal(err)
		}
		ast.Inspect(file, func(n ast.Node) bool {
			if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if s, err := strconv.Unquote(lit.Value); err == nil {
					out = append(out, s)
				}
			}
			return true
		})
	}
	return out
}

// FuzzReparse: for any input and both vendors, the one-pass scanner
// yields the interface set, the peer set and the speed the regular
// expressions did. Seeds: the edge cases above, both vendor templates
// rendered, the configs the tests build, and every string literal in the
// package's tests.
func FuzzReparse(f *testing.F) {
	seeds := append([]string{v1Config, v2Config, ringConfig(0, 4), meshConfig(0, 4, true)}, scanEdgeCases...)
	seeds = append(seeds, renderedTemplates(f)...)
	for _, cfg := range append(seeds, testLiterals(f)...) {
		f.Add(cfg)
	}
	f.Fuzz(func(t *testing.T, cfg string) {
		for _, v := range []Vendor{Vendor1, Vendor2} {
			wantIfaces, wantPeers, wantSpeed := regexScan(v, cfg)
			sc := scanConfig(v, cfg)
			gotIfaces, gotPeers := set(sc.ifaces), set(sc.peers)
			if !slices.Equal(gotIfaces, wantIfaces) || !slices.Equal(gotPeers, wantPeers) || sc.speed != wantSpeed {
				t.Fatalf("%s %q:\n scan:  ifaces=%q peers=%q speed=%d\n regex: ifaces=%q peers=%q speed=%d",
					v, cfg, gotIfaces, gotPeers, sc.speed, wantIfaces, wantPeers, wantSpeed)
			}
		}
	})
}
