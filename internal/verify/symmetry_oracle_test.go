package verify

import (
	"fmt"
	"strings"
	"testing"

	"github.com/robotron-net/robotron/internal/configgen"
	"github.com/robotron-net/robotron/internal/design"
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

// TestSymmetryStatementsMatchTokenOracle: over the 200 seeded histories of
// the warm ≡ cold property, on every config the generator renders, each
// neighbor address the device's sessions expect is stated in a neighbor
// statement exactly when the token oracle finds it anywhere in the
// config. The statement check rejects only what the token check passed
// through a description or policy line, which a rendered config never
// lacks a statement for.
func TestSymmetryStatementsMatchTokenOracle(t *testing.T) {
	histories, length := 200, 30
	if testing.Short() {
		histories = 20
	}
	configs, expected, unstated := 0, 0, 0
	for seed := int64(1); seed <= int64(histories); seed++ {
		h := newHistory(t, seed)
		c := NewChecker(h.store, nil)
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
	t.Logf("%d expected neighbors in %d rendered configs agree (%d unstated)", expected, configs, unstated)
	if expected < 1000 {
		t.Fatalf("only %d expected neighbors compared; the histories do not exercise the check", expected)
	}
}
