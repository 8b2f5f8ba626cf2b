package verify

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

// Native fuzz targets for the gate's byte-facing helpers. Seed corpora
// are the configs the generator renders for a mixed vendor1/vendor2 world
// (what the golden repository would hold); `make fuzz-smoke` runs each
// target for a few seconds.

// renderedWorld renders every device of a history world and loads a model
// of it.
func renderedWorld(f *testing.F) (*model, map[string]string) {
	f.Helper()
	h := newHistory(f, 1)
	devs, err := h.store.Find("Device", nil)
	if err != nil {
		f.Fatal(err)
	}
	names := make([]string, len(devs))
	for i, d := range devs {
		names[i] = d.String("name")
	}
	configs, err := h.g.GenerateMany(names, 1)
	if err != nil {
		f.Fatal(err)
	}
	c := NewChecker(h.store, nil)
	if _, err := c.Check(nil); err != nil {
		f.Fatal(err)
	}
	return c.m, configs
}

// FuzzContainsAddr: for an address made of address characters,
// containsAddr is membership among the config's maximal runs of address
// characters; for anything else it must merely not panic.
func FuzzContainsAddr(f *testing.F) {
	_, configs := renderedWorld(f)
	for _, cfg := range configs {
		f.Add(cfg, "2401:db00::1")
		if i := strings.Index(cfg, "neighbor "); i >= 0 {
			f.Add(cfg, strings.Fields(cfg[i:])[1])
		}
	}
	f.Add("neighbor 10.0.0.10 remote-as 1", "10.0.0.1")
	f.Add("1", "")
	f.Fuzz(func(t *testing.T, cfg, addr string) {
		got := containsAddr(cfg, addr)
		if addr == "" || strings.ContainsFunc(addr, func(r rune) bool { return r > 127 || !addrChar(byte(r)) }) {
			return
		}
		tokens := strings.FieldsFunc(cfg, func(r rune) bool { return r > 127 || !addrChar(byte(r)) })
		if want := slices.Contains(tokens, addr); got != want {
			t.Errorf("containsAddr(%q, %q) = %v, tokens say %v", cfg, addr, got, want)
		}
	})
}

// FuzzParseCircuitEnd: never panics, and whatever it recovers is spelled
// in the circuit id.
func FuzzParseCircuitEnd(f *testing.F) {
	m, _ := renderedWorld(f)
	for _, c := range m.circs {
		f.Add(c.name, true)
		f.Add(c.name, false)
	}
	f.Add("", true)
	f.Add("--", false)
	f.Add("a:b:c--", false)
	f.Fuzz(func(t *testing.T, id string, aSide bool) {
		dev, iface := parseCircuitEnd(id, aSide)
		end := dev
		if iface != "" {
			end += ":" + iface
		}
		if !strings.Contains(id, end) {
			t.Errorf("parseCircuitEnd(%q, %v) = %q, %q: not part of the id", id, aSide, dev, iface)
		}
		if strings.Contains(dev, ":") {
			t.Errorf("parseCircuitEnd(%q, %v): device %q keeps a separator", id, aSide, dev)
		}
	})
}

// FuzzScanConfig: arbitrary config text never panics and every violation
// points at something the text contains; and a config assembled — in any
// order, with any repetition — from the device's own interfaces and
// designed neighbors yields no violation, in either vendor dialect.
func FuzzScanConfig(f *testing.F) {
	m, configs := renderedWorld(f)
	// One device per dialect, and what each may legitimately name.
	type target struct {
		dev    int64
		name   string
		vendor string
		own    []string // config lines naming its own interfaces and neighbors
	}
	var targets []target
	for _, vendor := range []string{"vendor1", "vendor2"} {
		var names []string
		for name, id := range m.devByName {
			if m.vendors[m.hws[m.devs[id].hw].vendor].syntax == vendor && len(m.sessByDev[id]) > 0 {
				names = append(names, name)
			}
		}
		if len(names) == 0 {
			f.Fatalf("world has no %s device with sessions", vendor)
		}
		slices.Sort(names)
		tg := target{dev: m.devByName[names[0]], name: names[0], vendor: vendor}
		ifaceLine, nbrLine := "interface %s", " neighbor %s remote-as 65000"
		if vendor == "vendor2" {
			ifaceLine, nbrLine = "%s {", "        neighbor %s {"
		}
		for _, port := range m.portNames[tg.dev] {
			tg.own = append(tg.own, fmt.Sprintf(ifaceLine, port))
		}
		for _, id := range m.aggsByDev[tg.dev] {
			tg.own = append(tg.own, fmt.Sprintf(ifaceLine, m.aggs[id].name))
		}
		for addr := range m.expectedNeighbors(tg.dev) {
			tg.own = append(tg.own, fmt.Sprintf(nbrLine, addr))
		}
		slices.Sort(tg.own)
		targets = append(targets, tg)
		f.Add(configs[tg.name])
	}
	f.Add("interface et9/9\n neighbor 2401:db00:dead::1 remote-as 65000\n")
	f.Add("replace: et-9/9/9 {\n    neighbor 2401:db00:dead::2 {\n")
	f.Fuzz(func(t *testing.T, cfg string) {
		for _, tg := range targets {
			for _, v := range m.scanConfig(tg.dev, tg.name, cfg) {
				if v.Invariant != OrphanRef || v.Device != tg.name || !strings.Contains(cfg, v.needle) {
					t.Errorf("%s: violation does not point into the config: %+v", tg.vendor, v)
				}
			}
			// The first bytes as a recipe: each picks one of the device's
			// own lines.
			var own strings.Builder
			for _, b := range []byte(cfg[:min(len(cfg), 64)]) {
				own.WriteString(tg.own[int(b)%len(tg.own)])
				own.WriteByte('\n')
			}
			if vs := m.scanConfig(tg.dev, tg.name, own.String()); len(vs) > 0 {
				t.Errorf("%s: config of the device's own interfaces and neighbors rejected: %v\n%s", tg.vendor, vs, own.String())
			}
		}
	})
}
