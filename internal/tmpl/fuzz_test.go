package tmpl_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"strconv"
	"testing"

	"github.com/robotron-net/robotron/internal/configgen"
	"github.com/robotron-net/robotron/internal/tmpl"
)

// fuzzContext is the one context every fuzzed template renders against:
// a device shaped like the generator's, and the names tmpl_test.go's
// cases use. Every list holds one element, so a template's render cost
// stays linear in its length however deep its loops nest.
var fuzzContext = map[string]any{
	"device": &configgen.DeviceData{
		Name: "psw1.pop1-c1", Role: "psw", Vendor: "vendor1", Site: "pop1",
		LoopbackV4: "10.0.0.1/32", LoopbackV6: "2401:db00::1/128", LocalAS: 65001,
		Aggs: []configgen.AggregatedInterfaceData{{
			Name: "ae0", Number: 0, V4Prefix: "10.128.0.0/31", V6Prefix: "2401:db00:f000::/127",
			Pifs: []configgen.PhysicalInterfaceData{{Name: "et1/1"}}, MTU: 9192,
		}},
		BGPNeighbors: []configgen.BGPNeighborData{{
			Addr: "2401:db00:f000::1", RemoteAS: 65002, Family: "v6", SessionType: "ebgp",
			Description: "pr1.pop1-c1", ImportPolicy: "in",
		}},
		SyslogTarget: "2401:db00::514", MgmtIP: "10.255.0.1",
		MplsTunnels: []configgen.MplsTunnelData{{Name: "tunnel-te1", TailLoopback: "2401:db00::2", BandwidthMbps: 1000}},
		Policies:    []configgen.PolicyData{{Name: "in", Terms: []configgen.PolicyTermData{{Seq: 10, Action: "accept"}}}},
		Firewalls: []configgen.FirewallData{{Name: "edge", Direction: "in",
			Rules: []configgen.FirewallRuleData{{Seq: 10, Action: "permit", Protocol: "tcp", DstPort: 22}}}},
	},
	"name": "et1/1", "s": "psw", "n": 10, "f": 2.5, "ok": true, "x": true, "y": false, "v": "x",
	"xs": []string{"a"}, "m": map[string]int{"a": 1},
}

// literals returns every string literal in a Go source file.
func literals(f *testing.F, path string) []string {
	file, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
	if err != nil {
		f.Fatal(err)
	}
	var out []string
	ast.Inspect(file, func(n ast.Node) bool {
		if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
			if s, err := strconv.Unquote(lit.Value); err == nil {
				out = append(out, s)
			}
		}
		return true
	})
	return out
}

// FuzzParse: Parse never panics, and a template that parses renders the
// same bytes and the same error verdict every time it renders one context
// — what the generator's pooled render state must guarantee for goldens
// to be stable. Seeds are both vendor templates and every string in
// tmpl_test.go.
func FuzzParse(f *testing.F) {
	f.Add(configgen.Vendor1FullTemplate)
	f.Add(configgen.Vendor2FullTemplate)
	for _, s := range literals(f, "tmpl_test.go") {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		tm, err := tmpl.Parse("fuzz", src)
		if err != nil {
			return
		}
		first, err1 := tm.Render(fuzzContext)
		second, err2 := tm.Render(fuzzContext)
		if first != second || fmt.Sprint(err1) != fmt.Sprint(err2) {
			t.Fatalf("two renders of one template disagree:\n%q (%v)\n%q (%v)", first, err1, second, err2)
		}
	})
}
