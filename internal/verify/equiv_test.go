package verify

import (
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"github.com/robotron-net/robotron/internal/configgen"
	"github.com/robotron-net/robotron/internal/design"
	"github.com/robotron-net/robotron/internal/fbnet"
	"github.com/robotron-net/robotron/internal/relstore"
	"github.com/robotron-net/robotron/internal/revctl"
)

// The warm ≡ cold property: after any history of design changes and raw
// mutations, a long-lived checker — whose model followed every step
// through the binlog — reports exactly what a fresh checker loading the
// store from scratch reports, and holds exactly the model the fresh one
// built. The four hand-picked mutation tests are instances of it.

// history is one seeded world plus the op generator's handle on it.
type history struct {
	t     testing.TB
	rng   *rand.Rand
	store *fbnet.Store
	d     *design.Designer
	g     *configgen.Generator
	n     int // names minted so far
}

// newHistory builds a POP cluster, a small DC cluster and a four-router
// backbone mesh with two circuits.
func newHistory(t testing.TB, seed int64) *history {
	t.Helper()
	store, err := fbnet.Open(relstore.NewDB("master", nil), fbnet.NewCatalog())
	if err != nil {
		t.Fatal(err)
	}
	d, err := design.NewDesigner(store, design.DefaultPools())
	if err != nil {
		t.Fatal(err)
	}
	h := &history{t: t, rng: rand.New(rand.NewSource(seed)), store: store, d: d}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(d.EnsureStandardHardware())
	for _, s := range [][2]string{{"pop1", "pop"}, {"dc1", "dc"}, {"bb1", "backbone"}} {
		_, err := d.EnsureSite(s[0], s[1], "nam")
		must(err)
	}
	_, err = d.BuildCluster(testCtx("pop"), "pop1", "pop1-c1", design.POPGen1())
	must(err)
	dc := design.DCGen3(2)
	dc.Devices = []design.DeviceSpec{
		{Role: "ssw", Count: 2, HwProfile: "Switch_Vendor2", NamePrefix: "ssw"},
		{Role: "fsw", Count: 2, HwProfile: "Switch_Vendor1", NamePrefix: "fsw"},
	}
	dc.Links = dc.Links[1:]
	dc.UplinksPerTOR = 2
	_, err = d.BuildCluster(testCtx("dc"), "dc1", "dc1-c1", dc)
	must(err)
	for i, role := range []string{"bb", "bb", "pr", "dr"} {
		_, err := d.AddBackboneRouter(testCtx("backbone"), fmt.Sprintf("%s%d.bb1", role, i), "bb1", "Backbone_Vendor2", role)
		must(err)
	}
	_, err = d.AddBackboneCircuit(testCtx("backbone"), "bb0.bb1", "bb1.bb1", 1)
	must(err)
	_, err = d.AddBackboneCircuit(testCtx("backbone"), "bb1.bb1", "pr2.bb1", 2)
	must(err)
	h.g, err = configgen.NewGenerator(store, revctl.NewRepo(), NewChecker(store, nil, nil), nil)
	must(err)
	return h
}

// pick returns a random object of the model matching q, or false.
func (h *history) pick(model string, q fbnet.Query) (fbnet.Object, bool) {
	objs, err := h.store.Find(model, q)
	if err != nil || len(objs) == 0 {
		return fbnet.Object{}, false
	}
	return objs[h.rng.Intn(len(objs))], true
}

func (h *history) update(model string, id int64, fields map[string]any) error {
	_, err := h.store.Mutate(func(m *fbnet.Mutation) error { return m.Update(model, id, fields) })
	return err
}

func (h *history) remove(model string, id int64) error {
	_, err := h.store.Mutate(func(m *fbnet.Mutation) error { return m.Delete(model, id) })
	return err
}

func (h *history) family() string {
	if h.rng.Intn(4) == 0 {
		return "V4"
	}
	return "V6"
}

// meshRouter picks a clusterless backbone router.
func (h *history) meshRouter() (fbnet.Object, bool) {
	return h.pick("Device", fbnet.And(fbnet.In("role", "bb", "pr", "dr"), fbnet.IsNull("cluster")))
}

// steps are the moves a history is made of. Each may fail — an earlier
// step can have broken what it needs, and a failed step rolls back — so
// errors are not fatal; what matters is that whatever did commit is seen
// identically by both checkers.
var steps = []struct {
	name string
	run  func(h *history) error
}{
	{"add-rack", func(h *history) error {
		_, err := h.d.AddRack(testCtx("dc"), "dc1-c1", "TOR_Vendor1", "fsw", 2, true, h.rng.Intn(2) == 0)
		return err
	}},
	{"remove-rack", func(h *history) error {
		tor, ok := h.pick("Device", fbnet.Eq("role", "tor"))
		if !ok {
			return nil
		}
		return h.remove("Device", tor.ID)
	}},
	{"add-circuit", func(h *history) error {
		a, aok := h.meshRouter()
		z, zok := h.meshRouter()
		if !aok || !zok {
			return nil
		}
		_, err := h.d.AddBackboneCircuit(testCtx("backbone"), a.String("name"), z.String("name"), 1+h.rng.Intn(2))
		return err
	}},
	{"migrate-circuit", func(h *history) error {
		cir, cok := h.pick("Circuit", fbnet.Contains("circuit_id", ".bb1:"))
		z, zok := h.meshRouter()
		if !cok || !zok {
			return nil
		}
		_, err := h.d.MigrateCircuit(testCtx("backbone"), cir.String("circuit_id"), z.String("name"))
		return err
	}},
	{"delete-circuit", func(h *history) error {
		cir, ok := h.pick("Circuit", nil)
		if !ok {
			return nil
		}
		_, err := h.d.DeleteCircuit(testCtx("backbone"), cir.String("circuit_id"))
		return err
	}},
	{"circuit-status", func(h *history) error {
		cir, ok := h.pick("Circuit", nil)
		if !ok {
			return nil
		}
		status := []string{"decommissioned", "decommissioned", "production", "provisioning", "planned"}[h.rng.Intn(5)]
		return h.update("Circuit", cir.ID, map[string]any{"status": status})
	}},
	{"add-mesh-router", func(h *history) error {
		h.n++
		role := []string{"bb", "pr", "dr"}[h.rng.Intn(3)]
		_, err := h.d.AddBackboneRouter(testCtx("backbone"), fmt.Sprintf("%s-x%d.bb1", role, h.n), "bb1", "Backbone_Vendor2", role)
		return err
	}},
	{"remove-mesh-router", func(h *history) error {
		r, ok := h.meshRouter()
		if !ok {
			return nil
		}
		_, err := h.d.RemoveBackboneRouter(testCtx("backbone"), r.String("name"))
		return err
	}},
	{"flip-asn", func(h *history) error {
		s, ok := h.pick("Bgp"+h.family()+"Session", nil)
		if !ok {
			return nil
		}
		field := []string{"local_as", "remote_as"}[h.rng.Intn(2)]
		as := []int64{65999, 64512, s.Int("local_as"), s.Int("remote_as")}[h.rng.Intn(4)]
		return h.update(s.Model, s.ID, map[string]any{field: as})
	}},
	{"session-type", func(h *history) error {
		s, ok := h.pick("Bgp"+h.family()+"Session", nil)
		if !ok {
			return nil
		}
		return h.update(s.Model, s.ID, map[string]any{"session_type": []string{"ibgp", "ebgp"}[h.rng.Intn(2)]})
	}},
	{"session-repoint", func(h *history) error {
		s, sok := h.pick("Bgp"+h.family()+"Session", nil)
		dev, dok := h.pick("Device", nil)
		if !sok || !dok {
			return nil
		}
		field := []string{"local_device", "remote_device"}[h.rng.Intn(2)]
		return h.update(s.Model, s.ID, map[string]any{field: dev.ID})
	}},
	{"edit-prefix", func(h *history) error {
		// Re-address one prefix: onto a neighbouring subnet, widened into
		// a /126 (v6) or /30 (v4) that swallows one, or back to a /127.
		fam := h.family()
		p, ok := h.pick(fam+"Prefix", fbnet.In("purpose", "p2p", "external"))
		other, ok2 := h.pick(fam+"Prefix", fbnet.Eq("purpose", "p2p"))
		if !ok || !ok2 {
			return nil
		}
		text := other.String("prefix")
		addr, bits, _ := strings.Cut(text, "/")
		switch h.rng.Intn(3) {
		case 0:
			text = addr + "/" + map[string]string{"127": "126", "31": "30", "126": "125", "30": "29"}[bits]
		case 1:
			text = addr + "/" + map[string]string{"126": "127", "30": "31", "127": "127", "31": "31"}[bits]
		}
		return h.update(p.Model, p.ID, map[string]any{"prefix": text})
	}},
	{"rehome-prefix", func(h *history) error {
		p, pok := h.pick(h.family()+"Prefix", nil)
		agg, aok := h.pick("AggregatedInterface", nil)
		if !pok || !aok {
			return nil
		}
		var to any = agg.ID
		if h.rng.Intn(4) == 0 {
			to = nil
		}
		return h.update(p.Model, p.ID, map[string]any{"interface": to})
	}},
	{"prefix-purpose", func(h *history) error {
		p, ok := h.pick(h.family()+"Prefix", nil)
		if !ok {
			return nil
		}
		purpose := []string{"p2p", "external", "rack"}[h.rng.Intn(3)]
		return h.update(p.Model, p.ID, map[string]any{"purpose": purpose})
	}},
	{"delete-port", func(h *history) error {
		// Out from under its circuit: the endpoint is nulled (SetNull).
		cir, ok := h.pick("Circuit", fbnet.Not(fbnet.IsNull("a_interface")))
		if !ok {
			return nil
		}
		return h.remove("PhysicalInterface", cir.Ref([]string{"a_interface", "z_interface"}[h.rng.Intn(2)]))
	}},
	{"delete-link-group", func(h *history) error {
		// Takes its circuits along but leaves both bundles addressed: the
		// subnets between them now span devices that share nothing.
		lg, ok := h.pick("LinkGroup", nil)
		if !ok {
			return nil
		}
		return h.remove("LinkGroup", lg.ID)
	}},
	{"repoint-link-group", func(h *history) error {
		// Moves the devices a bundle's circuits must end on, with no entry
		// of the circuits' own.
		lg, lok := h.pick("LinkGroup", nil)
		dev, dok := h.pick("Device", nil)
		if !lok || !dok {
			return nil
		}
		return h.update("LinkGroup", lg.ID, map[string]any{[]string{"a_device", "z_device"}[h.rng.Intn(2)]: dev.ID})
	}},
	{"delete-bundle", func(h *history) error {
		agg, ok := h.pick("AggregatedInterface", nil)
		if !ok {
			return nil
		}
		return h.remove("AggregatedInterface", agg.ID)
	}},
	{"move-bundle", func(h *history) error {
		agg, aok := h.pick("AggregatedInterface", nil)
		dev, dok := h.pick("Device", nil)
		if !aok || !dok {
			return nil
		}
		return h.update("AggregatedInterface", agg.ID, map[string]any{"device": dev.ID})
	}},
	{"move-linecard", func(h *history) error {
		lc, lok := h.pick("Linecard", nil)
		dev, dok := h.pick("Device", nil)
		if !lok || !dok {
			return nil
		}
		return h.update("Linecard", lc.ID, map[string]any{"device": dev.ID})
	}},
	{"rename-device", func(h *history) error {
		dev, ok := h.pick("Device", nil)
		if !ok {
			return nil
		}
		h.n++
		return h.update("Device", dev.ID, map[string]any{"name": fmt.Sprintf("renamed%d.%s", h.n, dev.String("role"))})
	}},
	{"rename-port", func(h *history) error {
		// Moves the name a circuit end resolves to, with no entry of the
		// circuit's own.
		cir, ok := h.pick("Circuit", fbnet.Not(fbnet.IsNull("a_interface")))
		if !ok {
			return nil
		}
		h.n++
		return h.update("PhysicalInterface", cir.Ref("a_interface"), map[string]any{"name": fmt.Sprintf("et%d/9", 10+h.n)})
	}},
	{"rename-site", func(h *history) error {
		s, ok := h.pick("Site", nil)
		if !ok {
			return nil
		}
		h.n++
		return h.update("Site", s.ID, map[string]any{"name": fmt.Sprintf("site%d", h.n)})
	}},
	{"device-role", func(h *history) error {
		dev, ok := h.pick("Device", nil)
		if !ok {
			return nil
		}
		role := []string{"tor", "fsw", "psw", "ssw", "pr", "bb"}[h.rng.Intn(6)]
		return h.update("Device", dev.ID, map[string]any{"role": role, "drain_state": "drained"})
	}},
	{"swap-vendor", func(h *history) error {
		hw, hok := h.pick("HardwareProfile", nil)
		v, vok := h.pick("Vendor", nil)
		if !hok || !vok {
			return nil
		}
		return h.update("HardwareProfile", hw.ID, map[string]any{"vendor": v.ID})
	}},
	{"vendor-syntax", func(h *history) error {
		v, ok := h.pick("Vendor", nil)
		if !ok {
			return nil
		}
		return h.update("Vendor", v.ID, map[string]any{"syntax": []string{"vendor1", "vendor2"}[h.rng.Intn(2)]})
	}},
	{"add-field", func(h *history) error {
		h.n++
		return h.store.AddField("Device", fbnet.Field{
			Name: fmt.Sprintf("note%d", h.n), Type: relstore.ColString, Nullable: true,
		})
	}},
	{"derived-writes", func(h *history) error {
		// What monitoring does between gate runs: the bulk of a real delta.
		_, err := h.store.Mutate(func(m *fbnet.Mutation) error {
			for i := 0; i < 1+h.rng.Intn(20); i++ {
				if _, err := m.Create("OperationalEvent", map[string]any{
					"device_name": "psw1.pop1-c1", "kind": "config-changed", "at_unix": int64(i),
				}); err != nil {
					return err
				}
			}
			return nil
		})
		return err
	}},
}

// candidates renders a random subset of the fleet — devices the broken
// design cannot render are simply absent — and sometimes doctors a config
// the way a stale or hand-edited one would look.
func (h *history) candidates() map[string]string {
	devs, err := h.store.Find("Device", nil)
	if err != nil {
		h.t.Fatal(err)
	}
	var names []string
	for _, d := range devs {
		if h.rng.Intn(3) == 0 {
			names = append(names, d.String("name"))
		}
	}
	configs, _ := h.g.GenerateMany(names, 1)
	for name, cfg := range configs {
		switch h.rng.Intn(8) {
		case 0:
			configs[name] = cfg + "\ninterface et9/9\n neighbor 2401:db00:dead::1 remote-as 65000\net-9/9/9 {\n    neighbor 2401:db00:dead::2 {\n"
		case 1:
			lines := strings.Split(cfg, "\n")
			configs[name] = strings.Join(lines[:len(lines)/2], "\n")
		}
	}
	if h.rng.Intn(10) == 0 {
		configs["ghost.nowhere"] = "interface et1/1\n"
	}
	return configs
}

// canonical puts a model's index slices, whose order depends on the order
// rows were linked in, into a comparable order. Stamps say when the rows
// changed, which a cold model cannot know, so the copy returned has none;
// what they are for — the changes a consumer is handed — is compared in
// AlsoEquivalent instead.
func canonical(m *model) model {
	for _, idx := range []map[int64][]int64{m.aggsByDev, m.circsByLG, m.tunsByTail, m.attachByFw} {
		for _, ids := range idx {
			slices.Sort(ids)
		}
	}
	for _, names := range m.portNames {
		slices.Sort(names)
	}
	for _, idx := range []map[int64][]rowKey{m.pfxByAgg, m.sessByDev, m.sessByPol} {
		for _, ks := range idx {
			slices.SortFunc(ks, compareRowKeys)
		}
	}
	for _, ks := range m.sessByPfx {
		slices.SortFunc(ks, compareRowKeys)
	}
	for _, ps := range m.peers {
		slices.SortFunc(ps, func(a, b peer) int { return cmp.Compare(a.dev, b.dev) })
	}
	if len(m.nest) == 0 {
		m.nest = nil
	}
	if len(m.reach) == 0 {
		m.reach = nil
	}
	c := *m
	c.st = stamps{}
	return c
}

// AlsoEquivalent extends assertEquivalent to what is derived from the
// model's view. intent_test.go sets it from package verify_test, which —
// unlike this package — may import internal/monitor, a client of the view.
var AlsoEquivalent func(t *testing.T, store *fbnet.Store, warm, cold *Checker, step string)

// assertEquivalent runs the long-lived checker and a fresh one over the
// same candidate set and requires identical violations, models and views.
func assertEquivalent(t *testing.T, h *history, warm *Checker, step string) {
	t.Helper()
	configs := h.candidates()
	got, err := warm.Check(configs)
	if err != nil {
		t.Fatalf("after %s: warm check: %v", step, err)
	}
	fresh := NewChecker(h.store, h.g.Golden, nil)
	want, err := fresh.Check(configs)
	if err != nil {
		t.Fatalf("after %s: cold check: %v", step, err)
	}
	if !want.Rebuilt || want.Rechecked == 0 {
		t.Fatalf("after %s: cold check did not rebuild: %+v", step, want)
	}
	if !reflect.DeepEqual(got.Violations, want.Violations) {
		t.Fatalf("after %s: warm and cold checkers disagree\nwarm (%d):\n%s\ncold (%d):\n%s", step,
			len(got.Violations), renderViolations(got.Violations), len(want.Violations), renderViolations(want.Violations))
	}
	if !reflect.DeepEqual(canonical(warm.m), canonical(fresh.m)) {
		t.Fatalf("after %s: resident model differs from a from-scratch load\nwarm: %+v\ncold: %+v", step, warm.m, fresh.m)
	}
	AlsoEquivalent(t, h.store, warm, fresh, step)
}

func renderViolations(vs []Violation) string {
	var b strings.Builder
	for _, v := range vs {
		fmt.Fprintf(&b, "  %s %s#%d needle=%q\n", v, v.Model, v.ID, v.needle)
	}
	return b.String()
}

// TestWarmEqualsColdOverRandomHistories is the universal form of the
// mutation tests: 200 seeded histories of 30 steps each.
func TestWarmEqualsColdOverRandomHistories(t *testing.T) {
	histories, length := 200, 30
	if testing.Short() {
		histories = 20
	}
	seen := map[Invariant]int{}
	ran := map[string]int{}
	for seed := int64(1); seed <= int64(histories); seed++ {
		h := newHistory(t, seed)
		warm := NewChecker(h.store, h.g.Golden, nil)
		assertEquivalent(t, h, warm, "set-up")
		for i := 0; i < length; i++ {
			s := steps[h.rng.Intn(len(steps))]
			if err := s.run(h); err == nil {
				ran[s.name]++
			}
			if h.rng.Intn(3) == 0 {
				continue // let deltas of several steps accumulate
			}
			assertEquivalent(t, h, warm, fmt.Sprintf("seed %d step %d (%s)", seed, i, s.name))
		}
		res, err := warm.Check(nil)
		if err != nil {
			t.Fatal(err)
		}
		for inv, n := range res.ByInvariant() {
			seen[inv] += n
		}
	}
	// The histories must actually exercise the checker: every step kind
	// commits sometimes and every invariant is violated somewhere.
	for _, s := range steps {
		if ran[s.name] == 0 {
			t.Errorf("step %s never committed", s.name)
		}
	}
	for _, inv := range Invariants {
		if seen[inv] == 0 {
			t.Errorf("no history ever violated %s", inv)
		}
	}
}

// TestStampLogStaysBounded: a long run of small changes keeps re-stamping
// the same rows while routers join and leave the mesh between them; the
// log is compacted to about one entry per row, and a consumer following
// Since still holds exactly the devices a cold model lists.
func TestStampLogStaysBounded(t *testing.T) {
	h := newHistory(t, 1)
	c := NewChecker(h.store, h.g.Golden, nil)
	var stamp uint64
	kept := map[string]Device{}
	follow := func() {
		if err := c.Intent(func(in Intent) error {
			ch := in.Since(stamp)
			for _, name := range ch.Gone {
				delete(kept, name)
			}
			for _, d := range ch.Devices {
				kept[d.Name] = d
			}
			stamp = ch.Stamp
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	follow()
	dev, ok := h.pick("Device", fbnet.Eq("role", "ssw"))
	if !ok {
		t.Fatal("no ssw to flip")
	}
	run := func(name string) {
		i := slices.IndexFunc(steps, func(s struct {
			name string
			run  func(h *history) error
		}) bool {
			return s.name == name
		})
		if err := steps[i].run(h); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 600; i++ {
		if err := h.update("Device", dev.ID, map[string]any{"role": []string{"ssw", "fsw"}[i%2]}); err != nil {
			t.Fatal(err)
		}
		switch i % 7 {
		case 0:
			run("add-mesh-router")
		case 3:
			run("remove-mesh-router")
		}
		follow()
	}
	// Compaction falling due on the stamp of a row being inserted, which is
	// linked before it is stored: a bare device, nothing else re-stamping
	// it, must still be handed out.
	st := &c.m.st
	st.log = append(make([]stamped, 2*(len(st.at)+1)+63-len(st.log)), st.log...)
	if _, err := h.store.Mutate(func(m *fbnet.Mutation) error {
		_, err := m.Create("Device", map[string]any{"name": "bare.bb1", "role": "bb",
			"site": dev.Ref("site"), "hw_profile": dev.Ref("hw_profile"), "drain_state": "drained"})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	follow()
	var cold []Device
	if err := NewChecker(h.store, nil, nil).Intent(func(in Intent) error { cold = in.Devices(); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(kept) != len(cold) {
		t.Fatalf("following Since kept %d devices, a cold model lists %d", len(kept), len(cold))
	}
	for _, d := range cold {
		if kept[d.Name] != d {
			t.Fatalf("following Since kept %+v for %s, a cold model lists %+v", kept[d.Name], d.Name, d)
		}
	}
	if n, rows := len(c.m.st.log), len(c.m.st.at); n > 2*rows+64 {
		t.Errorf("the stamp log holds %d entries for %d rows", n, rows)
	}
}

// TestConcurrentChecksFollowAWriter: gate runs from several goroutines
// share one resident model while design changes commit underneath them;
// every run sees the store at one sequence, and once the writer stops the
// long-lived checker still agrees with a fresh one.
func TestConcurrentChecksFollowAWriter(t *testing.T) {
	h := newHistory(t, 7)
	warm := NewChecker(h.store, h.g.Golden, nil)
	if _, err := warm.Check(nil); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var checkers sync.WaitGroup
	for i := 0; i < 4; i++ {
		checkers.Add(1)
		go func() {
			defer checkers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := warm.Check(nil); err != nil {
					t.Errorf("concurrent check: %v", err)
					return
				}
			}
		}()
	}
	for i := 0; i < 40; i++ {
		s := steps[h.rng.Intn(len(steps))]
		_ = s.run(h)
	}
	close(stop)
	checkers.Wait()
	assertEquivalent(t, h, warm, "concurrent writer")
}
