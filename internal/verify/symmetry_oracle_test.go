package verify

import (
	"fmt"
	"regexp"
	"slices"
	"strings"
	"testing"

	"github.com/robotron-net/robotron/internal/configgen"
	"github.com/robotron-net/robotron/internal/design"
	"github.com/robotron-net/robotron/internal/vendorcfg"
)

// containsAddr reports whether cfg contains addr as a whole token (not as
// a substring of a longer address: "10.0.0.1" must not match "10.0.0.10").
// It is how the symmetry check read a config before it read neighbor
// statements, kept as the oracle of TestSymmetryStatementsMatchTokenOracle:
// on a rendered config the two verdicts agree.
func containsAddr(cfg, addr string) bool {
	if addr == "" {
		return false
	}
	for i := 0; ; {
		j := strings.Index(cfg[i:], addr)
		if j < 0 {
			return false
		}
		j += i
		k := j + len(addr)
		before := j == 0 || !addrChar(cfg[j-1])
		after := k >= len(cfg) || !addrChar(cfg[k])
		if before && after {
			return true
		}
		i = j + 1
	}
}

func addrChar(b byte) bool {
	switch {
	case b >= '0' && b <= '9', b >= 'a' && b <= 'f', b >= 'A' && b <= 'F':
		return true
	case b == '.' || b == ':' || b == '/':
		return true
	}
	return false
}

// The per-dialect regular expressions the gate read a rendered config with
// before it read each line through vendorcfg, the grammar the device
// applies a config with. They are the oracle of
// TestSymmetryStatementsMatchTokenOracle: on a rendered config they read
// the ports and neighbor statements vendorcfg does.
var (
	ifaceV1Re    = regexp.MustCompile(`^interface +(\S+)$`)
	ifaceV2Re    = regexp.MustCompile(`^(?:replace: +)?((?:et|xe|ge|ae|lo)[-0-9/.]*\d\S*) +\{`)
	neighborV1Re = regexp.MustCompile(`^ neighbor +(\S+) +remote-as +\d+`)
	neighborV2Re = regexp.MustCompile(`^\s*neighbor +(\S+) +\{`)
)

// regexRead is what the regular expressions read in a config of the given
// dialect: the ports the gate checks (TE tunnels and loopbacks aside) and
// the neighbor statements, each sorted and unique.
func regexRead(syntax, cfg string) (ports, nbrs []string) {
	ifaceRe, nbrRe := ifaceV1Re, neighborV1Re
	if syntax == "vendor2" {
		ifaceRe, nbrRe = ifaceV2Re, neighborV2Re
	}
	for _, line := range strings.Split(cfg, "\n") {
		if m := ifaceRe.FindStringSubmatch(line); m != nil && !strings.HasPrefix(m[1], "tunnel-te") && !strings.HasPrefix(m[1], "lo") {
			ports = append(ports, m[1])
		}
		if m := nbrRe.FindStringSubmatch(line); m != nil {
			nbrs = append(nbrs, m[1])
		}
	}
	return sortedSet(ports), sortedSet(nbrs)
}

// sortedSet sorts xs and drops repeats, in place.
func sortedSet(xs []string) []string {
	slices.Sort(xs)
	return slices.Compact(xs)
}

// gatePorts is what the gate checks of the ports a scan read: those that
// are not loopbacks.
func gatePorts(ports []string) []string {
	return slices.DeleteFunc(slices.Clone(ports), func(p string) bool { return strings.HasPrefix(p, "lo") })
}

// TestGateRejectsDroppedNeighborStatement: a candidate that drops one
// internal session's neighbor statement but keeps the address in its
// description line must fail BGP symmetry. A check that looked for the
// address anywhere in the config passed it.
func TestGateRejectsDroppedNeighborStatement(t *testing.T) {
	eachChecker(t, func(t *testing.T, d *design.Designer, g *configgen.Generator, c *Checker) {
		const dev, addr = "pr1.pop1-c1", "2401:db00:f000::1"
		configs := renderSite(t, c.store, g)
		stmt, desc := " neighbor "+addr+" remote-as ", " neighbor "+addr+" description "
		var kept []string
		dropped := 0
		for _, line := range strings.Split(configs[dev], "\n") {
			if strings.HasPrefix(line, stmt) {
				dropped++
				continue
			}
			kept = append(kept, line)
		}
		candidate := strings.Join(kept, "\n")
		if dropped != 1 || !strings.Contains(candidate, desc) {
			t.Fatalf("%s's config does not state neighbor %s once with a description:\n%s", dev, addr, configs[dev])
		}
		configs[dev] = candidate
		res, err := c.Check(configs)
		if err != nil {
			t.Fatal(err)
		}
		var found []Violation
		for _, v := range byInvariant(res.Violations, BGPSymmetry) {
			if v.Device == dev && strings.Contains(v.Detail, "omits neighbor "+addr+" ") {
				found = append(found, v)
			}
		}
		if len(found) != 1 {
			t.Fatalf("dropping %s's statement of neighbor %s: %d matching %s violations, want 1; all: %v",
				dev, addr, len(found), BGPSymmetry, res.Violations)
		}
	})
}

// TestGateReadsConfigsAsTheDeviceDoes: three candidates the per-dialect
// regular expressions passed, each of which the device reads differently
// from them, are rejected for what the device would do with them: a
// neighbor statement with a trailing word peers with nobody (a one-sided
// session), a bare neighbor line peers with an undesigned address, and an
// interface line with a trailing space creates a port FBNet does not know.
func TestGateReadsConfigsAsTheDeviceDoes(t *testing.T) {
	const dev, addr = "pr1.pop1-c1", "2401:db00:f000::1"
	cases := []struct {
		name string
		edit func(cfg string) string
		// device is what vendorcfg.Scan, the scan the device applies a
		// config with, must read of the candidate.
		device    func(sc vendorcfg.Config) bool
		invariant Invariant
		detail    string
	}{{
		name: "trailing word",
		edit: func(cfg string) string {
			var lines []string
			for _, line := range strings.Split(cfg, "\n") {
				if strings.HasPrefix(line, " neighbor "+addr+" remote-as ") {
					line += " shutdown"
				}
				lines = append(lines, line)
			}
			return strings.Join(lines, "\n")
		},
		device:    func(sc vendorcfg.Config) bool { return !slices.Contains(sc.Peers, addr) },
		invariant: BGPSymmetry, detail: "omits neighbor " + addr + " ",
	}, {
		name:      "bare neighbor",
		edit:      func(cfg string) string { return cfg + " neighbor 2401:db00:dead::1\n" },
		device:    func(sc vendorcfg.Config) bool { return slices.Contains(sc.Peers, "2401:db00:dead::1") },
		invariant: OrphanRef, detail: "BGP neighbor 2401:db00:dead::1 ",
	}, {
		name:      "trailing space",
		edit:      func(cfg string) string { return cfg + "interface et9/9 \n" },
		device:    func(sc vendorcfg.Config) bool { return slices.Contains(sc.Ports, "et9/9") },
		invariant: OrphanRef, detail: "interface et9/9 ",
	}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eachChecker(t, func(t *testing.T, d *design.Designer, g *configgen.Generator, c *Checker) {
				configs := renderSite(t, c.store, g)
				candidate := tc.edit(configs[dev])
				if candidate == configs[dev] {
					t.Fatalf("the edit left %s's config as it was:\n%s", dev, candidate)
				}
				if !tc.device(vendorcfg.Scan("vendor1", candidate)) {
					t.Fatalf("the device does not read the candidate as the case expects:\n%s", candidate)
				}
				configs[dev] = candidate
				res, err := c.Check(configs)
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Violations) != 1 || res.Violations[0].Invariant != tc.invariant ||
					res.Violations[0].Device != dev || !strings.Contains(res.Violations[0].Detail, tc.detail) {
					t.Fatalf("want one %s violation on %s naming %q; got %v", tc.invariant, dev, tc.detail, res.Violations)
				}
			})
		})
	}
}

// TestSymmetryStatementsMatchTokenOracle: over the 200 seeded histories of
// the warm ≡ cold property, on every config the generator renders, each
// neighbor address the device's sessions expect is stated in a neighbor
// statement exactly when the token oracle finds it anywhere in the
// config. The statement check rejects only what the token check passed
// through a description or policy line, which a rendered config never
// lacks a statement for. And on every such config the gate's former
// regular expressions read the ports and neighbor statements vendorcfg
// reads: the shared grammar moved no verdict on what the generator
// renders.
func TestSymmetryStatementsMatchTokenOracle(t *testing.T) {
	histories, length := 200, 30
	if testing.Short() {
		histories = 20
	}
	configs, expected, unstated, read := 0, 0, 0, 0
	for seed := int64(1); seed <= int64(histories); seed++ {
		h := newHistory(t, seed)
		c := NewChecker(h.store, nil, nil)
		compare := func(step string) {
			t.Helper()
			if _, err := c.Check(nil); err != nil {
				t.Fatalf("seed %d %s: %v", seed, step, err)
			}
			devs, err := h.store.Find("Device", nil)
			if err != nil {
				t.Fatal(err)
			}
			names := make([]string, len(devs))
			for i, d := range devs {
				names[i] = d.String("name")
			}
			rendered, _ := h.g.GenerateMany(names, 1)
			for name, cfg := range rendered {
				dev, ok := c.m.devByName[name]
				if !ok {
					continue
				}
				configs++
				sc := vendorcfg.Scan(c.m.syntax(dev), cfg)
				ports, nbrs := regexRead(c.m.syntax(dev), cfg)
				if !slices.Equal(gatePorts(sc.Ports), ports) || !slices.Equal(sc.Peers, nbrs) {
					t.Fatalf("seed %d %s: %s: vendorcfg reads ports %q, neighbors %q; the regexes read %q, %q\n%s",
						seed, step, name, gatePorts(sc.Ports), sc.Peers, ports, nbrs, cfg)
				}
				read += len(ports) + len(nbrs)
				_, stated := c.m.scanConfig(dev, name, cfg)
				for addr, got := range stated {
					expected++
					if !got {
						unstated++
					}
					if want := containsAddr(cfg, addr); got != want {
						t.Fatalf("seed %d %s: %s neighbor %s: statement verdict %v, token verdict %v\n%s",
							seed, step, name, addr, got, want, cfg)
					}
				}
			}
		}
		compare("set-up")
		for i := 0; i < length; i++ {
			_ = steps[h.rng.Intn(len(steps))].run(h)
			if i%10 == 9 {
				compare(fmt.Sprintf("step %d", i))
			}
		}
	}
	t.Logf("%d expected neighbors in %d rendered configs agree (%d unstated); the regexes and vendorcfg read the same %d ports and neighbor statements",
		expected, configs, unstated, read)
	if expected < 1000 {
		t.Fatalf("only %d expected neighbors compared; the histories do not exercise the check", expected)
	}
}
