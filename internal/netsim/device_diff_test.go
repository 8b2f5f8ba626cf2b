package netsim

import (
	"fmt"
	"strings"
	"testing"

	"github.com/robotron-net/robotron/internal/configgen"
	"github.com/robotron-net/robotron/internal/tmpl"
)

// simpleDiffOracle is simpleDiff as it was while it split both configs
// whole, kept verbatim as the oracle of FuzzDeviceDiff.
func simpleDiffOracle(old, new string) string {
	oldSet := map[string]int{}
	for _, l := range strings.Split(old, "\n") {
		oldSet[l]++
	}
	newSet := map[string]int{}
	for _, l := range strings.Split(new, "\n") {
		newSet[l]++
	}
	var b strings.Builder
	for _, l := range strings.Split(old, "\n") {
		if newSet[l] == 0 {
			fmt.Fprintf(&b, "- %s\n", l)
		}
	}
	for _, l := range strings.Split(new, "\n") {
		if oldSet[l] == 0 {
			fmt.Fprintf(&b, "+ %s\n", l)
		}
	}
	return b.String()
}

// vendorValidateOracle is Device.vendorValidate as it was while it split
// the config whole, kept verbatim (the receiver made a parameter) as the
// oracle of FuzzDeviceDiff.
func vendorValidateOracle(d *Device, cfg string) error {
	if d.vendor == Vendor2 {
		depth := 0
		for i, line := range strings.Split(cfg, "\n") {
			depth += strings.Count(line, "{") - strings.Count(line, "}")
			if depth < 0 {
				return fmt.Errorf("netsim: %s: syntax error at line %d: unbalanced '}'", d.name, i+1)
			}
		}
		if depth != 0 {
			return fmt.Errorf("netsim: %s: syntax error: %d unclosed '{' block(s)", d.name, depth)
		}
	}
	return nil
}

// FuzzDeviceDiff: for any running and candidate config, the native
// compare renders the diff its split-based oracle did, and the vendor-2
// syntax check returns the oracle's error, text and line number included,
// while vendor 1 checks nothing.
func FuzzDeviceDiff(f *testing.F) {
	seeds := append([]string{"", "\n", "}", "a {\n}", "a {\n}\n}\n", v1Config, v2Config, mesh2Config(4, 2)}, renderedTemplates(f)...)
	for i, s := range seeds {
		f.Add(s, seeds[(i+1)%len(seeds)])
		f.Add(s, s+"x {\n")
	}
	v1, v2 := NewDevice("a", Vendor1, "psw", "pop1"), NewDevice("b", Vendor2, "pr", "pop1")
	f.Fuzz(func(t *testing.T, running, candidate string) {
		if got, want := simpleDiff(running, candidate), simpleDiffOracle(running, candidate); got != want {
			t.Fatalf("simpleDiff(%q, %q)\n = %q\n want %q", running, candidate, got, want)
		}
		if err := v1.vendorValidate(candidate); err != nil {
			t.Fatalf("vendor 1 rejects %q: %v", candidate, err)
		}
		got, want := v2.vendorValidate(candidate), vendorValidateOracle(v2, candidate)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("vendorValidate(%q) = %v, want %v", candidate, got, want)
		}
	})
}

// mesh2Config renders the vendor-2 template for router i of an iBGP full
// mesh of n routers: one session to each other router.
func mesh2Config(n, i int) string {
	device := &configgen.DeviceData{
		Name: fmt.Sprintf("bb%03d", i), Role: "bb", Site: "bb",
		LoopbackV4: fmt.Sprintf("10.255.0.%d/32", i), LocalAS: 65000,
	}
	for j := 0; j < n; j++ {
		if j != i {
			device.BGPNeighbors = append(device.BGPNeighbors, configgen.BGPNeighborData{
				Addr: fmt.Sprintf("10.255.0.%d", j), RemoteAS: 65000, SessionType: "ibgp", Description: fmt.Sprintf("bb%03d", j)})
		}
	}
	tm, err := tmpl.Parse("device", configgen.Vendor2FullTemplate)
	if err != nil {
		panic(err)
	}
	cfg, err := tm.Render(map[string]any{"device": device})
	if err != nil {
		panic(err)
	}
	return cfg
}

// BenchmarkNativeDryrunDiff is a vendor-2 dryrun's device side: load the
// candidate (the syntax check) and compare it with the running config, for
// a mesh op that adds a 48th router to a router's iBGP mesh.
func BenchmarkNativeDryrunDiff(b *testing.B) {
	d := NewDevice("bb000", Vendor2, "bb", "bb")
	if err := d.LoadConfig(mesh2Config(47, 0)); err != nil {
		b.Fatal(err)
	}
	if err := d.Commit(); err != nil {
		b.Fatal(err)
	}
	candidate := mesh2Config(48, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.LoadConfig(candidate); err != nil {
			b.Fatal(err)
		}
		if diff, err := d.DryrunDiff(); err != nil || diff == "" {
			b.Fatalf("DryrunDiff = %q, %v", diff, err)
		}
	}
}
