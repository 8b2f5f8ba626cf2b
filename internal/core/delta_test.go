package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"github.com/robotron-net/robotron/internal/design"
	"github.com/robotron-net/robotron/internal/fbnet"
	"github.com/robotron-net/robotron/internal/monitor"
	"github.com/robotron-net/robotron/internal/vclock"
	"github.com/robotron-net/robotron/internal/verify"
)

// Delta ≡ cold at the level the system runs it: DeriveMonitoring,
// SyncFleet and ApplyRecabling visit only what the design change touched,
// and what they leave must be what visiting everything leaves. One
// instance follows a random history by delta; a second, attached to the
// same store, answers every step the way a cold instance does — a fresh
// Derivation, and a plant that walks every device and circuit.

// deltaWorld is a DC cluster and a four-router backbone mesh, provisioned,
// collected once and left silent long enough for every device-unreachable
// alarm to fire; and the cold instance, its fleet built to match.
func deltaWorld(t *testing.T) (warm, cold *Robotron, clk *vclock.VirtualClock) {
	t.Helper()
	clk = vclock.NewVirtualClock(time.Date(2026, 10, 1, 0, 0, 0, 0, time.UTC))
	warm, err := New(Options{Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	must := func(_ any, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(warm.Designer.EnsureSite("dc1", "dc", "nam"))
	must(warm.Designer.EnsureSite("bb1", "backbone", "nam"))
	must(warm.ProvisionCluster(testCtx("dc"), "dc1", "dc1-c1", design.DCGen3(2)))
	for i := 0; i < 4; i++ {
		must(warm.Designer.AddBackboneRouter(testCtx("backbone"), fmt.Sprintf("bb%d.bb1", i), "bb1", "Backbone_Vendor2", "bb"))
	}
	must(warm.Designer.AddBackboneCircuit(testCtx("backbone"), "bb0.bb1", "bb1.bb1", 1))
	must(warm.Designer.AddBackboneCircuit(testCtx("backbone"), "bb1.bb1", "dr1.dc1-c1", 1))
	must(warm.ApplyRecabling())
	must(nil, warm.DeriveMonitoring())
	must(nil, warm.CollectOnce())
	clk.Advance(6 * time.Minute)
	if len(warm.Alarms.Evaluate()) == 0 {
		t.Fatal("no alarm fired to carry through the history")
	}
	cold, err = New(Options{Store: warm.Store, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	must(cold.ApplyRecabling())
	return warm, cold, clk
}

// deltaSteps are the design changes a history is made of. A step may fail
// on what earlier steps left; a failed change rolls back, and the check
// after it holds all the same.
var deltaSteps = []struct {
	name string
	run  func(r *Robotron, rng *rand.Rand, n int) error
}{
	{"add-rack", func(r *Robotron, rng *rand.Rand, _ int) error {
		_, err := r.Designer.AddRack(testCtx("dc"), "dc1-c1", "TOR_Vendor1", "fsw", 1+rng.Intn(4), true, rng.Intn(2) == 0)
		return err
	}},
	{"remove-rack", func(r *Robotron, rng *rand.Rand, _ int) error {
		tor, ok := pickObject(r, rng, "Device", fbnet.Eq("role", "tor"))
		if !ok {
			return nil
		}
		_, err := r.Store.Mutate(func(m *fbnet.Mutation) error { return m.Delete("Device", tor.ID) })
		return err
	}},
	{"add-circuit", func(r *Robotron, rng *rand.Rand, _ int) error {
		a, aok := pickObject(r, rng, "Device", fbnet.In("role", "bb", "dr"))
		z, zok := pickObject(r, rng, "Device", fbnet.Eq("role", "bb"))
		if !aok || !zok {
			return nil
		}
		_, err := r.Designer.AddBackboneCircuit(testCtx("backbone"), a.String("name"), z.String("name"), 1+rng.Intn(2))
		return err
	}},
	{"migrate-circuit", func(r *Robotron, rng *rand.Rand, _ int) error {
		c, cok := pickObject(r, rng, "Circuit", fbnet.Contains("circuit_id", ".bb1:"))
		z, zok := pickObject(r, rng, "Device", fbnet.Eq("role", "bb"))
		if !cok || !zok {
			return nil
		}
		_, err := r.Designer.MigrateCircuit(testCtx("backbone"), c.String("circuit_id"), z.String("name"))
		return err
	}},
	{"delete-circuit", func(r *Robotron, rng *rand.Rand, _ int) error {
		c, ok := pickObject(r, rng, "Circuit", nil)
		if !ok {
			return nil
		}
		_, err := r.Designer.DeleteCircuit(testCtx("backbone"), c.String("circuit_id"))
		return err
	}},
	{"drain", func(r *Robotron, rng *rand.Rand, _ int) error {
		d, ok := pickObject(r, rng, "Device", nil)
		if !ok {
			return nil
		}
		if rng.Intn(2) == 0 {
			return r.UndrainDevice(testCtx("dc"), d.String("name"))
		}
		return r.DrainDevice(testCtx("dc"), d.String("name"))
	}},
	{"add-router", func(r *Robotron, _ *rand.Rand, n int) error {
		_, err := r.Designer.AddBackboneRouter(testCtx("backbone"), fmt.Sprintf("bb-x%d.bb1", n), "bb1", "Backbone_Vendor2", "bb")
		return err
	}},
	{"remove-router", func(r *Robotron, rng *rand.Rand, _ int) error {
		d, ok := pickObject(r, rng, "Device", fbnet.Eq("role", "bb"))
		if !ok {
			return nil
		}
		_, err := r.Designer.RemoveBackboneRouter(testCtx("backbone"), d.String("name"))
		return err
	}},
	{"rename", func(r *Robotron, rng *rand.Rand, n int) error {
		d, ok := pickObject(r, rng, "Device", nil)
		if !ok {
			return nil
		}
		_, err := r.Store.Mutate(func(m *fbnet.Mutation) error {
			return m.Update("Device", d.ID, map[string]any{"name": fmt.Sprintf("renamed%d.%s", n, d.String("name"))})
		})
		return err
	}},
}

func pickObject(r *Robotron, rng *rand.Rand, model string, q fbnet.Query) (fbnet.Object, bool) {
	objs, err := r.Store.Find(model, q)
	if err != nil || len(objs) == 0 {
		return fbnet.Object{}, false
	}
	return objs[rng.Intn(len(objs))], true
}

// activeAlarms are the engine's pending and firing alarms.
func activeAlarms(r *Robotron) []monitor.Alarm {
	return slices.DeleteFunc(r.Alarms.Snapshot(), func(a monitor.Alarm) bool { return a.State == monitor.AlarmResolved })
}

// breaches are the (rule, device, key, detail) of firing alarms.
func breaches(firing []monitor.Alarm) [][4]string {
	out := make([][4]string, len(firing))
	for i, a := range firing {
		out[i] = [4]string{a.Rule, a.Device, a.Key, a.Detail}
	}
	return out
}

// plantOf is a fleet as its devices and the cable on each end a design
// ever named.
func plantOf(r *Robotron, ends map[[2]string]bool) (devices []string, cables map[[2]string][2]string) {
	for _, d := range r.Fleet.Devices() {
		devices = append(devices, fmt.Sprintf("%s %s %s %s", d.Name(), d.Vendor(), d.Role(), d.Site()))
	}
	cables = map[[2]string][2]string{}
	for end := range ends {
		if far, farIf, ok := r.Fleet.CableOf(end[0], end[1]); ok {
			cables[end] = [2]string{far, farIf}
		}
	}
	return devices, cables
}

// TestDeltaEqualsColdOverRandomHistories: after every step of seeded
// histories of rack, circuit, drain, router and rename changes, the
// instance that visited only what changed holds what the cold one does —
// the derived jobs and rules in order, the fleet's devices and cabling —
// and its alarms are the ones it had, Since and FiredAt included, less
// those whose rule went; and its passes fire what passes over every rule
// fire.
func TestDeltaEqualsColdOverRandomHistories(t *testing.T) {
	histories, length := 12, 24
	if testing.Short() {
		histories = 3
	}
	ran := map[string]int{}
	for seed := int64(1); seed <= int64(histories); seed++ {
		warm, cold, clk := deltaWorld(t)
		rng := rand.New(rand.NewSource(seed))
		ends := map[[2]string]bool{}
		for i := 0; i < length; i++ {
			step := deltaSteps[rng.Intn(len(deltaSteps))]
			at := fmt.Sprintf("seed %d step %d (%s)", seed, i, step.name)
			before := activeAlarms(warm)
			if err := step.run(warm, rng, i); err == nil {
				ran[step.name]++
			}

			moved, err := warm.ApplyRecabling()
			coldMoved, coldErr := func() (int, error) {
				cold.plant.stamp = 0
				return cold.ApplyRecabling()
			}()
			if moved != coldMoved || fmt.Sprint(err) != fmt.Sprint(coldErr) {
				t.Fatalf("after %s: recabling by delta moved %d (%v), cold %d (%v)", at, moved, err, coldMoved, coldErr)
			}
			if err := warm.DeriveMonitoring(); err != nil {
				t.Fatal(err)
			}
			cold.derived = monitor.NewDerivation(cold.JobManager, cold.Alarms, nil)
			if err := cold.DeriveMonitoring(); err != nil {
				t.Fatal(err)
			}

			if got, want := warm.JobManager.Jobs(), cold.JobManager.Jobs(); !reflect.DeepEqual(got, want) {
				t.Fatalf("after %s: jobs kept by delta differ from the cold derivation\ndelta: %v\ncold:  %v", at, got, want)
			}
			rules := warm.Alarms.Rules()
			if want := cold.Alarms.Rules(); !reflect.DeepEqual(rules, want) {
				t.Fatalf("after %s: rules kept by delta differ from the cold derivation (%d vs %d)", at, len(rules), len(want))
			}
			kept := slices.DeleteFunc(before, func(a monitor.Alarm) bool {
				return !slices.ContainsFunc(rules, func(r monitor.AlarmRule) bool {
					return r.Name == a.Rule && r.Device == a.Device && r.Key == a.Key
				})
			})
			if got := activeAlarms(warm); !reflect.DeepEqual(got, kept) {
				t.Fatalf("after %s: active alarms are %d, want the %d whose rule survived, unchanged", at, len(got), len(kept))
			}
			ran["moved a cable"] += min(moved, 1)
			ran["dropped an alarm"] += min(len(before)-len(kept), 1)
			ran["kept an alarm"] += min(len(kept), 1)

			if err := warm.Verifier.Intent(func(in verify.Intent) error {
				for _, c := range in.Circuits() {
					ends[[2]string{c.ADevice, c.AInterface}] = true
					ends[[2]string{c.ZDevice, c.ZInterface}] = true
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			devs, cables := plantOf(warm, ends)
			coldDevs, coldCables := plantOf(cold, ends)
			if !reflect.DeepEqual(devs, coldDevs) || !reflect.DeepEqual(cables, coldCables) {
				t.Fatalf("after %s: the fleet synced by delta differs from the one walked whole\ndelta: %v\n%v\ncold:  %v\n%v", at, devs, cables, coldDevs, coldCables)
			}

			// Now and then a collection and a pass, so alarms come and go
			// under the changes. The pass evaluates only what moved; it
			// fires what a fresh engine's first pass over every rule
			// fires (the derived rules have no PendingFor, so firing is
			// breached).
			if rng.Intn(4) == 0 {
				if err := warm.CollectOnce(); err != nil {
					t.Fatal(err)
				}
				clk.Advance(time.Duration(1+rng.Intn(11)) * time.Minute)
				fresh := monitor.NewAlarmEngine(clk, warm.Timeseries, warm.Store, nil)
				fresh.ReplaceRules(warm.Alarms.Rules())
				if got, want := breaches(warm.Alarms.Evaluate()), breaches(fresh.Evaluate()); !reflect.DeepEqual(got, want) {
					t.Fatalf("after %s: the pass by delta fires %v, a full pass %v", at, got, want)
				}
			}
		}
	}
	// The histories must exercise what is compared.
	for _, s := range deltaSteps {
		if ran[s.name] == 0 {
			t.Errorf("step %s never committed", s.name)
		}
	}
	for _, what := range []string{"moved a cable", "dropped an alarm", "kept an alarm"} {
		if ran[what] == 0 {
			t.Errorf("no step %s", what)
		}
	}
}

// TestDeriveMonitoringAfterWholesaleSwapIsCold: whoever swaps the derived
// set wholesale — as the Table 2 experiment clears it — sends the next
// DeriveMonitoring back to the cold answer, though the design did not move.
func TestDeriveMonitoringAfterWholesaleSwapIsCold(t *testing.T) {
	r := newTwoSites(t)
	jobs, rules := r.JobManager.Jobs(), r.Alarms.Rules()
	if len(jobs) == 0 || len(rules) == 0 {
		t.Fatal("nothing derived")
	}
	if err := r.JobManager.ReplaceJobs("derived-", nil); err != nil {
		t.Fatal(err)
	}
	if err := r.DeriveMonitoring(); err != nil {
		t.Fatal(err)
	}
	if got := r.JobManager.Jobs(); !reflect.DeepEqual(got, jobs) {
		t.Fatalf("after clearing the derived jobs, DeriveMonitoring installed %d jobs, want the %d of a cold derivation", len(got), len(jobs))
	}
	r.Alarms.ReplaceRules(nil)
	if err := r.DeriveMonitoring(); err != nil {
		t.Fatal(err)
	}
	if got := r.Alarms.Rules(); !reflect.DeepEqual(got, rules) {
		t.Fatalf("after clearing the rules, DeriveMonitoring installed %d rules, want the %d of a cold derivation", len(got), len(rules))
	}
}
