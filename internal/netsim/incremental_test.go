package netsim

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// TestBGPExactAddressMatch pins the fix for the substring false-positive:
// the old recompute used strings.Contains, so a session to 10.0.0.1 was
// established by any device whose config merely contained 10.0.0.12 (the
// peer address is a prefix of it). Matching is now by exact address
// token.
func TestBGPExactAddressMatch(t *testing.T) {
	f := NewFleet()
	a, _ := f.AddDevice("a", Vendor1, "psw", "s")
	b, _ := f.AddDevice("b", Vendor1, "psw", "s")

	if err := b.LoadConfig("interface et1/1\n ip addr 10.0.0.12/31\n"); err != nil {
		t.Fatal(err)
	}
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	// a peers with 10.0.0.1 — a strict prefix of b's 10.0.0.12. No device
	// owns 10.0.0.1, so the session must stay Active.
	if err := a.LoadConfig("interface et1/1\n ip addr 10.0.0.13/31\nneighbor 10.0.0.1 remote-as 65000\n"); err != nil {
		t.Fatal(err)
	}
	if err := a.Commit(); err != nil {
		t.Fatal(err)
	}
	peers, err := a.ShowBGPSummary()
	if err != nil {
		t.Fatal(err)
	}
	if len(peers) != 1 || peers[0].State != "Active" {
		t.Fatalf("session to unowned 10.0.0.1 = %+v, want Active (substring false-positive)", peers)
	}
	// The reference full pass agrees.
	f.RecomputeFull()
	peers, _ = a.ShowBGPSummary()
	if peers[0].State != "Active" {
		t.Fatalf("RecomputeFull: session = %+v, want Active", peers)
	}

	// Peering with the exactly-owned address establishes.
	if err := a.LoadConfig("interface et1/1\n ip addr 10.0.0.13/31\nneighbor 10.0.0.12 remote-as 65000\n"); err != nil {
		t.Fatal(err)
	}
	if err := a.Commit(); err != nil {
		t.Fatal(err)
	}
	peers, _ = a.ShowBGPSummary()
	if len(peers) != 1 || peers[0].State != "Established" {
		t.Fatalf("session to owned 10.0.0.12 = %+v, want Established", peers)
	}
}

// devSnap is the derived operational state of one device.
type devSnap struct {
	lldp  map[string]LLDPNeighbor
	links map[string]bool
	bgp   map[string]string
}

// snapshotFleet captures every device's derived state (LLDP, link
// oper-status, BGP session states) for equality comparison.
func snapshotFleet(f *Fleet) map[string]devSnap {
	out := make(map[string]devSnap)
	for _, d := range f.Devices() {
		d.mu.Lock()
		s := devSnap{
			lldp:  make(map[string]LLDPNeighbor, len(d.lldp)),
			links: make(map[string]bool, len(d.ifaces)),
			bgp:   make(map[string]string, len(d.bgpPeers)),
		}
		for k, v := range d.lldp {
			s.lldp[k] = v
		}
		for name, st := range d.ifaces {
			s.links[name] = st.operUp
		}
		for addr, p := range d.bgpPeers {
			s.bgp[addr] = p.State
		}
		d.mu.Unlock()
		out[d.Name()] = s
	}
	return out
}

// historyShape is the fleet a random history runs on.
type historyShape struct {
	vendor2 bool // odd-numbered devices run vendor2 configs
	// mesh gives every device a loopback and sessions to the others'
	// loopbacks, so each loopback is a token of most configs and has
	// many owners.
	mesh bool
}

// TestIncrementalMatchesFullRecompute drives seed-reproducible random
// event sequences — commits, wiring changes, manual drift, reachability
// flaps, reboots, linecard pulls, and a health event followed by a commit
// on another device — through the incremental engine and asserts, at
// every settle point (an event that flushes), that the state is a fixed
// point of the retained reference full pass: running RecomputeFull
// changes nothing. The plain seeds run point-to-point vendor1 fleets; the
// named shapes add vendor2 configs and an iBGP-style mesh.
func TestIncrementalMatchesFullRecompute(t *testing.T) {
	seeds := []int64{1, 7, 42, 1337}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runRandomHistory(t, seed, historyShape{})
		})
	}
	for _, s := range []struct {
		name  string
		shape historyShape
	}{
		{"vendor2", historyShape{vendor2: true}},
		{"mesh", historyShape{mesh: true}},
		{"mesh-vendor2", historyShape{vendor2: true, mesh: true}},
	} {
		t.Run(s.name, func(t *testing.T) {
			for _, seed := range seeds {
				t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
					runRandomHistory(t, seed, s.shape)
				})
			}
		})
	}
}

func runRandomHistory(t *testing.T, seed int64, shape historyShape) {
	rng := rand.New(rand.NewSource(seed))
	f := NewFleet()
	const nDev = 12
	devs := make([]*Device, nDev)
	for i := range devs {
		v := Vendor1
		if shape.vendor2 && i%2 == 1 {
			v = Vendor2
		}
		d, err := f.AddDevice(fmt.Sprintf("dev%02d", i), v, "psw", "s")
		if err != nil {
			t.Fatal(err)
		}
		devs[i] = d
	}
	ports := func(d *Device) []string {
		if d.Vendor() == Vendor2 {
			return []string{"et-1/0/1", "et-1/0/2", "et-2/0/1", "et-2/0/2"}
		}
		return []string{"et1/1", "et1/2", "et2/1", "et2/2"}
	}
	port := func(d *Device) string { ps := ports(d); return ps[rng.Intn(len(ps))] }
	// Address pool with prefix collisions (10.0.0.1 vs 10.0.0.12
	// vs 10.0.0.102) so exact-token matching is exercised.
	addr := func() string { return fmt.Sprintf("10.0.0.%d", rng.Intn(20)) }
	loopback := func(i int) string { return fmt.Sprintf("10.255.0.%d", i) }

	randomConfig := func(i int) string {
		type iface struct{ name, prefix string }
		var ifaces []iface
		for _, p := range ports(devs[i]) {
			if rng.Intn(2) == 0 {
				ifaces = append(ifaces, iface{p, addr() + "/31"})
			}
		}
		if shape.mesh && rng.Intn(5) > 0 {
			ifaces = append(ifaces, iface{"lo0", loopback(i) + "/32"})
		}
		var peers []string
		for k := rng.Intn(3); k > 0; k-- {
			peers = append(peers, addr())
		}
		if shape.mesh {
			for j := range devs {
				if j != i && rng.Intn(5) > 0 {
					peers = append(peers, loopback(j))
				}
			}
		}
		var b strings.Builder
		if devs[i].Vendor() == Vendor2 {
			for _, ifc := range ifaces {
				fmt.Fprintf(&b, "%s {\n unit 0 {\n  family inet {\n   addr %s\n  }\n }\n}\n", ifc.name, ifc.prefix)
			}
			b.WriteString("protocols {\n bgp {\n")
			for _, a := range peers {
				fmt.Fprintf(&b, "  neighbor %s {\n  }\n", a)
			}
			b.WriteString(" }\n}\n")
			return b.String()
		}
		for _, ifc := range ifaces {
			fmt.Fprintf(&b, "interface %s\n ip addr %s\n", ifc.name, ifc.prefix)
		}
		for _, a := range peers {
			fmt.Fprintf(&b, "neighbor %s remote-as 65000\n", a)
		}
		return b.String()
	}
	commit := func(i int) bool {
		return devs[i].LoadConfig(randomConfig(i)) == nil && devs[i].Commit() == nil
	}

	check := func(step int) {
		t.Helper()
		before := snapshotFleet(f)
		f.RecomputeFull()
		after := snapshotFleet(f)
		if !reflect.DeepEqual(before, after) {
			for name := range before {
				if !reflect.DeepEqual(before[name], after[name]) {
					t.Errorf("step %d: %s diverged\n incremental: %+v\n full:        %+v",
						step, name, before[name], after[name])
				}
			}
			t.FailNow()
		}
	}

	for step := 0; step < 300; step++ {
		i := rng.Intn(nDev)
		d := devs[i]
		switch ev := rng.Intn(11); ev {
		case 0, 1, 2: // commit a fresh config (flushes)
			if commit(i) { // a down device neither commits nor flushes
				check(step)
			}
		case 3, 4: // wire two random ports (flushes)
			z := devs[rng.Intn(nDev)]
			if z == d {
				continue
			}
			if err := f.Wire(d.Name(), port(d), z.Name(), port(z)); err != nil {
				continue // port already cabled
			}
			check(step)
		case 5: // fiber cut (flushes)
			if f.Uncable(d.Name(), port(d)) {
				check(step)
			}
		case 6: // reachability flap (stale until next flush)
			d.SetDown(d.Reachable())
		case 7: // out-of-band drift (stale until next flush)
			_ = d.ApplyManualChange("neighbor " + addr() + " remote-as 65001")
		case 8: // reboot (stale until next flush)
			d.Reboot()
		case 9: // linecard pull (stale until next flush)
			d.RemoveLinecard(1 + rng.Intn(2))
		case 10: // a health event settled by another device's commit
			if rng.Intn(2) == 0 {
				d.SetDown(d.Reachable())
			} else {
				d.Reboot()
			}
			if j := rng.Intn(nDev); j != i && commit(j) {
				check(step)
			}
		}
	}
	// Settle any remaining dirt with a final commit and check.
	for _, d := range devs {
		d.SetDown(false)
	}
	if !commit(0) {
		t.Fatal("final commit failed")
	}
	check(-1)
}

// meshConfig is router i's vendor1 config in an n-router iBGP full mesh:
// its loopback (when withLoopback) and a session to every other router's
// loopback, so each loopback is an address token of all n configs.
func meshConfig(i, n int, withLoopback bool) string {
	var b strings.Builder
	fmt.Fprintf(&b, "hostname r%03d\n", i)
	if withLoopback {
		fmt.Fprintf(&b, "interface lo0\n ip addr 10.255.%d.%d/32\n", i/256, i%256)
	}
	for j := 0; j < n; j++ {
		if j != i {
			fmt.Fprintf(&b, "neighbor 10.255.%d.%d remote-as 65000\n", j/256, j%256)
		}
	}
	return b.String()
}

// buildMeshFleet commits meshConfig on n routers.
func buildMeshFleet(tb testing.TB, n int) *Fleet {
	tb.Helper()
	f := NewFleet()
	for i := 0; i < n; i++ {
		d, err := f.AddDevice(fmt.Sprintf("r%03d", i), Vendor1, "bb", "bench")
		if err != nil {
			tb.Fatal(err)
		}
		if err := d.LoadConfig(meshConfig(i, n, true)); err != nil {
			tb.Fatal(err)
		}
		if err := d.Commit(); err != nil {
			tb.Fatal(err)
		}
	}
	return f
}

// TestMeshCommitAllocsLinear: one router's commit in an n-router full
// mesh — toggling its loopback, an address all n configs name — costs
// that router's sessions plus one session per other holder of the
// address, so allocations grow at most linearly with n. Re-deriving every
// holder of any token of the committing router whole would grow them with
// n².
func TestMeshCommitAllocsLinear(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc guard skipped in -short")
	}
	measure := func(n int) float64 {
		f := buildMeshFleet(t, n)
		d, _ := f.Device("r000")
		cfgs := [2]string{meshConfig(0, n, false), meshConfig(0, n, true)}
		k := 0
		return testing.AllocsPerRun(20, func() {
			if err := d.LoadConfig(cfgs[k%2]); err != nil {
				t.Fatal(err)
			}
			if err := d.Commit(); err != nil {
				t.Fatal(err)
			}
			k++
		})
	}
	small, large := measure(16), measure(64)
	t.Logf("allocs per mesh commit: 16 routers %v, 64 routers %v", small, large)
	if ratio := large / small; ratio > 5 {
		t.Errorf("allocs per mesh commit grow faster than the mesh: 16 routers %v, 64 routers %v (ratio %.1f, want <= 5)",
			small, large, ratio)
	}
}

// TestFlushOrderDeterministic: two fleets fed the same Wire, commit and
// SetDown sequence emit the same syslog sequence. A flush that re-derives
// several devices takes its order from device names and addresses, not
// from map iteration.
func TestFlushOrderDeterministic(t *testing.T) {
	run := func() []string {
		f := NewFleet()
		var log []string
		add := func(name, cfg string) *Device {
			d, err := f.AddDevice(name, Vendor1, "psw", "s")
			if err != nil {
				t.Fatal(err)
			}
			d.SetSyslogSink(func(m SyslogMessage) { log = append(log, m.Host+" "+m.App+" "+m.Text) })
			if err := d.LoadConfig(cfg); err != nil {
				t.Fatal(err)
			}
			if err := d.Commit(); err != nil {
				t.Fatal(err)
			}
			return d
		}
		const spokes = 16
		var hubCfg strings.Builder
		for i := 0; i < spokes; i++ {
			fmt.Fprintf(&hubCfg, "interface et1/%d\n ip addr 10.0.%d.0/31\n", i, i)
		}
		hub := add("hub", hubCfg.String())
		spokeCfg := func(i int) string {
			return fmt.Sprintf("interface et1/1\n ip addr 10.0.%d.1/31\nneighbor 10.0.%d.0 remote-as 65000\n", i, i)
		}
		var s []*Device
		for i := 0; i < spokes; i++ {
			s = append(s, add(fmt.Sprintf("s%02d", i), spokeCfg(i)))
			if err := f.Wire(hub.Name(), fmt.Sprintf("et1/%d", i), s[i].Name(), "et1/1"); err != nil {
				t.Fatal(err)
			}
		}
		// The failures are settled by the next commit's flush: the hub,
		// the failed spokes and s00 re-derive whole, the other spokes
		// their one session each.
		hub.SetDown(true)
		for _, d := range s[spokes/2:] {
			d.SetDown(true)
		}
		if err := s[0].LoadConfig(spokeCfg(0)); err != nil {
			t.Fatal(err)
		}
		if err := s[0].Commit(); err != nil {
			t.Fatal(err)
		}
		return log
	}
	want := run()
	for i := 0; i < 5; i++ {
		if got := run(); !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d emitted a different syslog sequence:\n got:  %q\n want: %q", i+1, got, want)
		}
	}
}

// TestRecomputeAllocsFlat is the allocation-regression guard for the
// incremental hot path: the cost of a single-device commit (parse +
// dirty-set recompute) must be bounded and must not scale with fleet
// size.
func TestRecomputeAllocsFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc guard skipped in -short")
	}
	measure := func(n int) float64 {
		f := buildRingFleet(t, n)
		d, _ := f.Device("dev000000")
		cfg := ringConfig(0, n)
		return testing.AllocsPerRun(50, func() {
			if err := d.LoadConfig(cfg); err != nil {
				t.Fatal(err)
			}
			if err := d.Commit(); err != nil {
				t.Fatal(err)
			}
		})
	}
	small := measure(64)
	large := measure(1024)
	t.Logf("allocs per commit: fleet=64 %v, fleet=1024 %v", small, large)
	// 29 allocs at this writing; 40 leaves room for map growth, not for a
	// per-session or per-holder slip.
	if small > 40 {
		t.Errorf("single-device commit at fleet=64: %v allocs, want <= 40", small)
	}
	if large > small*2+20 {
		t.Errorf("allocs scale with fleet size: fleet=64 %v, fleet=1024 %v", small, large)
	}
}
