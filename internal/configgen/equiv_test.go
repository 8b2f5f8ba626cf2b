package configgen

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"github.com/robotron-net/robotron/internal/design"
	"github.com/robotron-net/robotron/internal/fbnet"
	"github.com/robotron-net/robotron/internal/relstore"
	"github.com/robotron-net/robotron/internal/revctl"
	"github.com/robotron-net/robotron/internal/telemetry"
	"github.com/robotron-net/robotron/internal/verify"
)

// The memo ≡ cold property: after any history of design changes, template
// recommits and monitoring writes, a long-lived generator — whose memo
// followed every step through the intent model's stamps — produces byte
// for byte what a generator that never saw any of it produces, re-derives
// every device whose derived data a step changed, and re-derives nothing
// on an immediate repeat. The hand-picked memo tests are instances of it.

// memoHistory is one seeded world plus the step generator's handle on it.
type memoHistory struct {
	rng *rand.Rand
	d   *design.Designer
	g   *Generator
	n   int // names minted so far

	// What the checks need of the last full generation: the memo as it
	// stood, and each device's data as a cold derive read it then (nil
	// when it did not derive).
	memo map[string]*deriveEntry
	data map[string]*DeviceData
}

// newMemoHistory builds a POP cluster, a small DC cluster and a four-router
// backbone mesh with two circuits, a peering with an import policy on a PR
// and a firewall policy attached to a device of each site.
func newMemoHistory(t *testing.T, seed int64) *memoHistory {
	t.Helper()
	store, err := fbnet.Open(relstore.NewDB("master"), fbnet.NewCatalog())
	if err != nil {
		t.Fatal(err)
	}
	d, err := design.NewDesigner(store, design.DefaultPools())
	if err != nil {
		t.Fatal(err)
	}
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
	_, _, err = d.AddPeering(testCtx("pop"), design.PeeringSpec{
		Device: "pr1.pop1-c1", Partner: "ISP-One", ASN: 3356, Kind: "peering", LocalAS: 32934,
		ImportPolicy: &design.PolicySpec{Name: "isp-one-in", Terms: []design.PolicyTermSpec{
			{MatchPrefix: "2001:db8:1::/48", Action: "accept"}, {Action: "reject"},
		}},
	})
	must(err)
	h := &memoHistory{rng: rand.New(rand.NewSource(seed)), d: d}
	must(h.firewall())
	_, err = d.AttachFirewall(testCtx("pop"), "edge-in", []string{"pr1.pop1-c1", "psw2.pop1-c1", "fsw1.dc1-c1", "bb0.bb1"})
	must(err)
	h.g, err = NewGenerator(store, revctl.NewRepo(), verify.NewChecker(store, nil))
	must(err)
	return h
}

// firewall replaces the edge-in policy with a random rule set.
func (h *memoHistory) firewall() error {
	spec := design.FirewallSpec{Name: "edge-in", Direction: "in"}
	for i := 0; i <= h.rng.Intn(3); i++ {
		spec.Rules = append(spec.Rules, design.FirewallRuleSpec{
			Action: []string{"permit", "deny"}[h.rng.Intn(2)], Protocol: "tcp", DstPort: int64(1 + h.rng.Intn(1024)),
		})
	}
	_, err := h.d.EnsureFirewallPolicy(testCtx("pop"), spec)
	return err
}

// pick returns a random object of the model matching q, or false.
func (h *memoHistory) pick(model string, q fbnet.Query) (fbnet.Object, bool) {
	objs, err := h.g.store.Find(model, q)
	if err != nil || len(objs) == 0 {
		return fbnet.Object{}, false
	}
	return objs[h.rng.Intn(len(objs))], true
}

func (h *memoHistory) mutate(fn func(m *fbnet.Mutation) error) error {
	_, err := h.g.store.Mutate(fn)
	return err
}

func (h *memoHistory) meshRouter() (fbnet.Object, bool) {
	return h.pick("Device", fbnet.And(fbnet.In("role", "bb", "pr", "dr"), fbnet.IsNull("cluster")))
}

// memoSteps are the moves a history is made of. A step may fail — an
// earlier one can have removed what it needs, and a failed design change
// rolls back — so errors are not fatal; whatever did commit must be seen
// identically by the memo and by a cold generator.
var memoSteps = []struct {
	name string
	run  func(h *memoHistory) error
}{
	{"add-rack", func(h *memoHistory) error {
		_, err := h.d.AddRack(testCtx("dc"), "dc1-c1", "TOR_Vendor1", "fsw", 2, true, h.rng.Intn(2) == 0)
		return err
	}},
	{"delete-device", func(h *memoHistory) error {
		tor, ok := h.pick("Device", fbnet.Eq("role", "tor"))
		if !ok {
			return fmt.Errorf("no rack to remove")
		}
		return h.mutate(func(m *fbnet.Mutation) error { return m.Delete("Device", tor.ID) })
	}},
	{"add-circuit", func(h *memoHistory) error {
		a, aok := h.meshRouter()
		z, zok := h.meshRouter()
		if !aok || !zok {
			return fmt.Errorf("no mesh routers")
		}
		_, err := h.d.AddBackboneCircuit(testCtx("backbone"), a.String("name"), z.String("name"), 1+h.rng.Intn(2))
		return err
	}},
	{"migrate-circuit", func(h *memoHistory) error {
		cir, cok := h.pick("Circuit", fbnet.Contains("circuit_id", ".bb1:"))
		z, zok := h.meshRouter()
		if !cok || !zok {
			return fmt.Errorf("nothing to migrate")
		}
		_, err := h.d.MigrateCircuit(testCtx("backbone"), cir.String("circuit_id"), z.String("name"))
		return err
	}},
	{"delete-circuit", func(h *memoHistory) error {
		cir, ok := h.pick("Circuit", fbnet.Contains("circuit_id", ".bb1:"))
		if !ok {
			return fmt.Errorf("no backbone circuit")
		}
		_, err := h.d.DeleteCircuit(testCtx("backbone"), cir.String("circuit_id"))
		return err
	}},
	{"drain", func(h *memoHistory) error {
		dev, ok := h.pick("Device", nil)
		if !ok {
			return fmt.Errorf("no device")
		}
		state := "drained"
		if dev.String("drain_state") == state {
			state = "undrained"
		}
		_, err := h.d.SetDrainState(testCtx("pop"), dev.String("name"), state)
		return err
	}},
	{"policy-term", func(h *memoHistory) error {
		// Edit a term, or add one behind the rest; never remove the last
		// (a policy with no terms refuses to generate, by design).
		term, ok := h.pick("PolicyTerm", nil)
		if !ok {
			return fmt.Errorf("no policy term")
		}
		h.n++
		prefix := fmt.Sprintf("2001:db8:%x::/48", h.n)
		return h.mutate(func(m *fbnet.Mutation) error {
			if h.rng.Intn(2) == 0 {
				return m.Update("PolicyTerm", term.ID, map[string]any{"match_prefix": prefix})
			}
			_, err := m.Create("PolicyTerm", map[string]any{
				"policy": term.Ref("policy"), "seq": int64(1000 + h.n), "match_prefix": prefix, "action": "accept",
			})
			return err
		})
	}},
	{"firewall-rules", func(h *memoHistory) error { return h.firewall() }},
	{"firewall-rule", func(h *memoHistory) error {
		rule, ok := h.pick("FirewallRule", nil)
		if !ok {
			return fmt.Errorf("no firewall rule")
		}
		return h.mutate(func(m *fbnet.Mutation) error {
			return m.Update("FirewallRule", rule.ID, map[string]any{"dst_port": int64(2000 + h.rng.Intn(1000))})
		})
	}},
	{"mpls-tunnel", func(h *memoHistory) error {
		// A new tunnel, a new bandwidth or tail, or a new loopback on a
		// tail: each changes only the configs of the tunnels' heads.
		head, hok := h.meshRouter()
		tail, tok := h.meshRouter()
		if !hok || !tok {
			return fmt.Errorf("no mesh routers")
		}
		h.n++
		tun, ok := h.pick("MplsTunnel", nil)
		return h.mutate(func(m *fbnet.Mutation) error {
			switch op := h.rng.Intn(4); {
			case !ok || op == 0:
				_, err := m.Create("MplsTunnel", map[string]any{
					"name": fmt.Sprintf("te-%d", h.n), "head_device": head.ID, "tail_device": tail.ID,
					"bandwidth_mbps": int64(1000 * h.n)})
				return err
			case op == 1:
				return m.Update("MplsTunnel", tun.ID, map[string]any{"bandwidth_mbps": int64(1000 * h.n)})
			case op == 2:
				return m.Update("MplsTunnel", tun.ID, map[string]any{"tail_device": tail.ID})
			default:
				return m.Update("Device", tun.Ref("tail_device"), map[string]any{
					"loopback_v6": fmt.Sprintf("2401:db00:eeee::%x/128", h.n)})
			}
		})
	}},
	{"template-recommit", func(h *memoHistory) error {
		path := TemplatePath([]string{"vendor1", "vendor2"}[h.rng.Intn(2)])
		body, err := h.g.repo.GetHead(path)
		if err != nil {
			return err
		}
		// Flips between two wire forms, so the render cache sees both a new
		// template and one it has rendered before.
		if strings.HasSuffix(body, "\n\n") {
			body = strings.TrimSuffix(body, "\n")
		} else {
			body += "\n"
		}
		_, err = h.g.repo.Commit(path, body, "e2", "recommit")
		return err
	}},
	{"syslog-target", func(h *memoHistory) error {
		h.g.SyslogTarget = fmt.Sprintf("2401:db00::%x", 0x5140+h.rng.Intn(3))
		return nil
	}},
	{"monitoring-writes", func(h *memoHistory) error {
		// What monitoring commits between two generations: the bulk of a
		// real delta, none of it in any derivation's read set.
		return h.mutate(func(m *fbnet.Mutation) error {
			for i := 0; i < 1+h.rng.Intn(20); i++ {
				if _, err := m.Create("OperationalEvent", map[string]any{
					"device_name": "psw1.pop1-c1", "kind": "config-changed", "at_unix": int64(i),
				}); err != nil {
					return err
				}
			}
			h.n++
			_, err := m.Create("DerivedConfig", map[string]any{
				"device_name": fmt.Sprintf("psw%d.pop1-c1", h.n), "config_hash": "h", "collected_unix": int64(h.n), "conforms": true,
			})
			return err
		})
	}},
}

// addField is the history's one schema change.
func (h *memoHistory) addField() error {
	return h.g.store.AddField("Device", fbnet.Field{Name: "note", Type: relstore.ColString, Nullable: true})
}

// deviceNames lists every device in the store, sorted.
func (h *memoHistory) deviceNames(t *testing.T) []string {
	t.Helper()
	devs, err := h.g.store.Find("Device", nil)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(devs))
	for i, d := range devs {
		names[i] = d.String("name")
	}
	sort.Strings(names)
	return names
}

// assertStep regenerates the whole fleet and holds the memo to the cold
// generator's bytes, to re-deriving every device whose cold-derived data
// changed since the last full generation, and to silence on an immediate
// repeat.
func (h *memoHistory) assertStep(t *testing.T, step string) {
	t.Helper()
	names := h.deviceNames(t)
	data := make(map[string]*DeviceData, len(names))
	for _, name := range names {
		data[name], _ = h.g.DeriveDeviceData(name) // nil when it fails; the configs compare its error
	}
	configs := assertMemoEqualsCold(t, h.g, names, step)
	after := h.g.Stats()
	h.g.memoMu.Lock()
	memo := maps.Clone(h.g.derived)
	h.g.memoMu.Unlock()
	for name := range configs {
		if reflect.DeepEqual(data[name], h.data[name]) {
			continue
		}
		if e := memo[name]; e == nil || e == h.memo[name] {
			t.Fatalf("%s: the derived data of %s changed and the memo did not re-derive it", step, name)
		}
	}
	h.g.GenerateMany(names, 4) // its errors are the first call's, compared above
	if again := h.g.Stats(); again.Derives != after.Derives || again.Renders != after.Renders {
		t.Fatalf("%s: an immediate repeat re-derived or re-rendered: %+v -> %+v", step, after, again)
	}
	h.memo, h.data = memo, data
}

// TestMemoEqualsColdOverRandomHistories is the universal form of the memo
// tests: seeded histories of 25 steps each, one schema change in every one.
func TestMemoEqualsColdOverRandomHistories(t *testing.T) {
	histories, length := 40, 25
	if testing.Short() {
		histories = 8
	}
	ran := map[string]int{}
	var hits, derives int64
	for seed := int64(1); seed <= int64(histories); seed++ {
		h := newMemoHistory(t, seed)
		h.assertStep(t, fmt.Sprintf("seed %d set-up", seed))
		alterAt := h.rng.Intn(length)
		for i := 0; i < length; i++ {
			s := memoSteps[h.rng.Intn(len(memoSteps))]
			if i == alterAt {
				s.name, s.run = "alter-add-column", (*memoHistory).addField
			}
			if err := s.run(h); err == nil {
				ran[s.name]++
			}
			if h.rng.Intn(3) == 0 {
				continue // let the deltas of several steps accumulate
			}
			h.assertStep(t, fmt.Sprintf("seed %d step %d (%s)", seed, i, s.name))
		}
		st := h.g.Stats()
		hits, derives = hits+st.DeriveHits, derives+st.Derives
	}
	// The histories must exercise the memo: every step kind commits
	// sometimes, and both outcomes are common.
	for _, s := range memoSteps {
		if ran[s.name] == 0 {
			t.Errorf("step %s never committed", s.name)
		}
	}
	if ran["alter-add-column"] != histories {
		t.Errorf("schema change committed in %d of %d histories", ran["alter-add-column"], histories)
	}
	if hits < derives || derives < int64(histories)*20 {
		t.Errorf("histories are lopsided: %d hits, %d derives", hits, derives)
	}
}

// TestGenerateFollowsEachLogEntryOnce: the memo reads no binlog of its
// own; the intent model it follows reads each entry once. Writes no
// derivation reads — monitoring rows, operational events, another site's
// design change — committed between generations cost no derivation, and
// the model reads each of their entries once however many memoized devices
// are then generated, and nothing after that.
func TestGenerateFollowsEachLogEntryOnce(t *testing.T) {
	d, g := newPOP(t)
	reg := telemetry.NewRegistry()
	g.intent.(*verify.Checker).Instrument(reg)
	read := reg.Counter("robotron_verify_delta_entries_total")
	names := []string{
		"pr1.pop1-c1", "pr2.pop1-c1",
		"psw1.pop1-c1", "psw2.pop1-c1", "psw3.pop1-c1", "psw4.pop1-c1",
	}
	if _, err := g.GenerateMany(names, 4); err != nil {
		t.Fatal(err)
	}

	db := g.store.DB()
	base, seq := read.Value(), db.Seq()
	for tx := 0; tx < 5; tx++ {
		_, err := g.store.Mutate(func(m *fbnet.Mutation) error {
			for i := 0; i < 40; i++ {
				if _, err := m.Create("OperationalEvent", map[string]any{
					"device_name": names[i%len(names)], "kind": "config-changed", "at_unix": int64(i),
				}); err != nil {
					return err
				}
			}
			_, err := m.Create("DerivedConfig", map[string]any{
				"device_name": names[tx], "config_hash": "h", "collected_unix": int64(tx), "conforms": true,
			})
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.EnsureSite("pop2", "pop", "apac"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.BuildCluster(testCtx("pop"), "pop2", "pop2-c1", design.POPGen1()); err != nil {
		t.Fatal(err)
	}
	n := int64(db.Seq() - seq)
	if n < 200 {
		t.Fatalf("only %d entries committed", n)
	}
	stats := g.Stats()
	for _, name := range names {
		if _, err := g.GenerateDevice(name); err != nil {
			t.Fatal(err)
		}
	}
	if got := read.Value() - base; got != n {
		t.Errorf("generating %d warm devices after %d new entries read %d entries, want %d", len(names), n, got, n)
	}
	if after := g.Stats(); after.Derives != stats.Derives || after.DeriveHits != stats.DeriveHits+int64(len(names)) {
		t.Errorf("unrelated entries cost derivations: %+v -> %+v", stats, after)
	}
	if _, err := g.GenerateMany(names, 4); err != nil {
		t.Fatal(err)
	}
	if got := read.Value() - base; got != n {
		t.Errorf("a second generation over an unchanged log read %d more entries", got-n)
	}
}

// TestMemoNeverCachesUnchecked: two ways a derivation could be cached
// without ever being held against a change it did not see, each of which
// would leave the device on a stale config for good. (1) A commit is in the
// binlog an instant before the read path reflects it: a generation landing
// in between must not follow a model stamped with the commit and then
// cache what it derived from the rows as they were. (2) A derive reads the
// rows, a concurrent generation follows the model past the commit that
// then changes them, and the first would store its result behind the
// stamp that dropped the device. Each round races one commit against
// two goroutines generating from an empty memo and, once the commit has
// returned, requires the next generation to carry it.
func TestMemoNeverCachesUnchecked(t *testing.T) {
	_, g := newPOP(t)
	const name = "psw1.pop1-c1"
	dev, err := g.store.FindOne("Device", fbnet.Eq("name", name))
	if err != nil {
		t.Fatal(err)
	}
	rounds := 3000
	if testing.Short() {
		rounds = 300
	}
	for i := 0; i < rounds; i++ {
		loopback := fmt.Sprintf("2401:db00:ffff::%x", 0x1000+i) // four digits: none is another's prefix
		g.ResetMemo()
		errs := make([]error, 3)
		var wg sync.WaitGroup
		wg.Add(len(errs))
		go func() {
			defer wg.Done()
			_, errs[0] = g.store.Mutate(func(m *fbnet.Mutation) error {
				return m.Update("Device", dev.ID, map[string]any{"loopback_v6": loopback + "/128"})
			})
		}()
		for w := 1; w < len(errs); w++ {
			go func(w int) {
				defer wg.Done()
				for j := 0; j < 3 && errs[w] == nil; j++ {
					_, errs[w] = g.GenerateDevice(name)
				}
			}(w)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		cfg, err := g.GenerateDevice(name)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(cfg, loopback) {
			t.Fatalf("round %d: config generated after the commit returned lacks loopback %s", i, loopback)
		}
	}
}

// TestMemoCachesPastUnrelatedEntries: a derive that a concurrent
// generation overtook — it followed the model past the stamp the derive
// began at — is still cached when no stamp since names its device, and is
// not cached when one does. Whether a derivation is cached thus depends on
// what changed, not on how concurrent generations interleaved.
func TestMemoCachesPastUnrelatedEntries(t *testing.T) {
	_, g := newPOP(t)
	const name = "psw1.pop1-c1"
	dev, err := g.store.FindOne("Device", fbnet.Eq("name", name))
	if err != nil {
		t.Fatal(err)
	}
	overtaken := func(write func(*fbnet.Mutation) error) (cached bool) {
		t.Helper()
		g.ResetMemo()
		at, err := g.follow()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := g.store.Mutate(write); err != nil {
			t.Fatal(err)
		}
		if now, err := g.follow(); err != nil || now == at {
			t.Fatalf("the model did not move past the write (%v)", err)
		}
		if _, _, err := g.deriveCached(name, at); err != nil {
			t.Fatal(err)
		}
		g.memoMu.Lock()
		defer g.memoMu.Unlock()
		return g.derived[name] != nil
	}
	if !overtaken(func(m *fbnet.Mutation) error {
		_, err := m.Create("OperationalEvent", map[string]any{
			"device_name": name, "kind": "config-changed", "at_unix": int64(1),
		})
		return err
	}) {
		t.Error("a derive overtaken by a write no derivation reads was not cached")
	}
	if overtaken(func(m *fbnet.Mutation) error {
		return m.Update("Device", dev.ID, map[string]any{"loopback_v6": "2401:db00:ffff::1/128"})
	}) {
		t.Error("a derive overtaken by an update of its own device row was cached")
	}
}
