package main

import (
	"fmt"
	"time"

	"github.com/robotron-net/robotron/internal/deploy"
	"github.com/robotron-net/robotron/internal/design"
	"github.com/robotron-net/robotron/internal/fbnet"
	"github.com/robotron-net/robotron/internal/monitor"
	"github.com/robotron-net/robotron/internal/reconcile"
)

// The backbone world: an iBGP full mesh of routers joined by
// single-circuit bundles, changed one incremental op at a time in
// Fig. 15(b)'s mix. Every op deploys atomically.

const (
	bbProfile = "Backbone_Vendor2"
	// bbExtra is the one router the mesh ops add and remove; it never
	// terminates a circuit, so removing it is always legal.
	bbExtra = "bb-extra"
)

// Op kinds. The small ones touch at most three devices; the mesh ones
// touch every router, so their latencies are kept apart.
const (
	opAddCircuit = "add-circuit"
	opMigrate    = "migrate-circuit"
	opDrain      = "drain-toggle"
	opDelete     = "delete-circuit"
	opMeshAdd    = "mesh-add-router"
	opMeshRemove = "mesh-remove-router"
)

type bbCircuit struct {
	id   int64 // FBNet Circuit object
	a, z string
}

// backbone is the op generator's own model of the design, so it only
// ever emits ops the design tools accept.
type backbone struct {
	routers  []string
	drained  map[string]bool
	linked   map[[2]string]bool // router pairs that already share a bundle
	circuits []bbCircuit
	extraIn  bool // bbExtra is currently part of the mesh
}

func pair(a, z string) [2]string {
	if z < a {
		a, z = z, a
	}
	return [2]string{a, z}
}

// buildBackbone designs `routers` mesh routers (pr/bb/dr in turn, over
// two sites) and `circuits` seed circuits between distinct pairs, then
// generates and deploys the lot atomically.
func (h *harness) buildBackbone(routers, circuits int, rc reconcile.Config) (*world, *backbone, error) {
	w, err := h.newCore(rc, nil)
	if err != nil {
		return nil, nil, err
	}
	rng := setupRNG()
	bb := &backbone{drained: map[string]bool{}, linked: map[[2]string]bool{}}
	for _, site := range []string{"bb-east", "bb-west"} {
		if _, err := w.r.Designer.EnsureSite(site, "backbone", "nam"); err != nil {
			return nil, nil, err
		}
	}
	roles := []string{"pr", "bb", "dr"}
	for i := 0; i < routers; i++ {
		role := roles[i%3]
		name := fmt.Sprintf("%s%02d", role, i/3+1)
		site := []string{"bb-east", "bb-west"}[i%2]
		if _, err := w.r.Designer.AddBackboneRouter(w.ctx("backbone", "add "+name), name, site, bbProfile, role); err != nil {
			return nil, nil, err
		}
		bb.routers = append(bb.routers, name)
		bb.drained[name] = true // design creates devices drained
	}
	for len(bb.circuits) < circuits {
		a, z := bb.freePair(rng.Intn)
		cr, err := w.r.Designer.AddBackboneCircuit(w.ctx("backbone", "seed circuit"), a, z, 1)
		if err != nil {
			return nil, nil, err
		}
		bb.noteCircuit(cr, a, z)
	}
	if err := w.r.SyncFleet(); err != nil {
		return nil, nil, err
	}
	if _, err := w.r.GenerateAndDeploy(bb.routers, deploy.Options{Atomic: true}, "bench"); err != nil {
		return nil, nil, err
	}
	return w, bb, nil
}

// freePair draws two routers that do not share a bundle yet.
func (bb *backbone) freePair(intn func(int) int) (a, z string) {
	for {
		i, j := intn(len(bb.routers)), intn(len(bb.routers)-1)
		if j >= i {
			j++
		}
		a, z = bb.routers[i], bb.routers[j]
		if !bb.linked[pair(a, z)] {
			return a, z
		}
	}
}

func (bb *backbone) noteCircuit(cr design.ChangeResult, a, z string) {
	for _, ref := range cr.Stats.Created {
		if ref.Model == "Circuit" {
			bb.circuits = append(bb.circuits, bbCircuit{id: ref.ID, a: a, z: z})
		}
	}
	bb.linked[pair(a, z)] = true
}

func (h *harness) backboneChurn() error {
	sz := h.sz
	step := churnSpan / time.Duration(sz.warmup+sz.ops)
	var bb *backbone
	err := h.build(func() (w *world, err error) {
		w, bb, err = h.buildBackbone(sz.routers, sz.circuits, reconcile.Config{SweepInterval: sweepEvery * step})
		return w, err
	})
	if err != nil {
		return err
	}
	// The latency percentiles cover the small ops; mesh ops are a
	// different mode and report their own median.
	h.drained = bb.drained
	h.measured = map[string]bool{opAddCircuit: true, opMigrate: true, opDrain: true, opDelete: true}
	// Fig. 15(b)'s mix, dealt from a deck so every run holds exactly the
	// same number of each kind: per twenty ops, ten circuit adds, three
	// migrations, three drain toggles, two deletions (adds outnumber them
	// five to one, so circuits never run out) and, in fixed places, two
	// mesh ops. The seed orders the deck and picks every op's target.
	mix := []struct {
		n  int
		op func(*backbone)
	}{{10, h.addCircuit}, {3, h.migrateCircuit}, {3, h.toggleDrain}, {2, h.deleteCircuit}}
	var deck []func(*backbone)
	for i := 0; i < sz.warmup+sz.ops; i++ {
		if i == sz.warmup {
			h.startTimed()
			deck = nil // the timed section deals from full decks
		}
		if i%10 == 9 {
			h.meshOp(bb)
		} else {
			if len(deck) == 0 {
				for _, m := range mix {
					for n := 0; n < m.n; n++ {
						deck = append(deck, m.op)
					}
				}
				h.rng.Shuffle(len(deck), func(a, b int) { deck[a], deck[b] = deck[b], deck[a] })
			}
			deck[0](bb)
			deck = deck[1:]
		}
		h.advance(step)
	}
	return nil
}

// change is the part every backbone op shares: the design tool call, the
// recabling work order, the affected-set lookup, an atomic generate and
// deploy of the affected routers, and a monitoring pass over them.
//
// designed reports whether the design change committed, which is when
// the generator's model of the backbone has to follow.
func (h *harness) change(kind, target string, design func() (design.ChangeResult, error), affected func() ([]string, error)) (devices []string, designed bool) {
	r, t := h.w.r, h.trace
	var firing []monitor.Alarm
	h.op(kind, target, "backbone-churn.change", func() error {
		if err := t.stage("design.change", func() error {
			cr, err := design()
			h.objects += cr.Stats.Total()
			return err
		}); err != nil {
			return err
		}
		designed = true
		if err := t.stage("core.sync_fleet", func() error {
			_, err := r.ApplyRecabling()
			return err
		}); err != nil {
			return err
		}
		if err := t.stage("fbnet.affected_query", func() (err error) {
			devices, err = affected()
			return err
		}); err != nil {
			return err
		}
		h.wrapSinks(devices)
		if err := h.generateAndDeploy(devices, deploy.Options{Atomic: true}); err != nil {
			return err
		}
		var err error
		firing, err = h.observeAffected(devices)
		return err
	})
	h.worked(1)
	h.checkGolden(devices)
	h.checkQuiet(firing, devices)
	return devices, designed
}

func names(objs []fbnet.Object) []string {
	out := make([]string, len(objs))
	for i, o := range objs {
		out[i] = o.String("name")
	}
	return out
}

// devicesMatching is an affected-set lookup: the names of the devices
// the query selects.
func (h *harness) devicesMatching(q fbnet.Query) func() ([]string, error) {
	return func() ([]string, error) {
		devs, err := h.w.r.Store.Find("Device", q)
		return names(devs), err
	}
}

// onCircuit calls a circuit design tool with the circuit's current id
// string, which a migration rewrites.
func (h *harness) onCircuit(id int64, tool func(circuitID string) (design.ChangeResult, error)) (design.ChangeResult, error) {
	c, err := h.w.r.Store.GetByID("Circuit", id)
	if err != nil {
		return design.ChangeResult{}, err
	}
	return tool(c.String("circuit_id"))
}

func (h *harness) addCircuit(bb *backbone) {
	a, z := bb.freePair(h.rng.Intn)
	var cr design.ChangeResult
	_, ok := h.change(opAddCircuit, a+"--"+z, func() (res design.ChangeResult, err error) {
		cr, err = h.w.r.Designer.AddBackboneCircuit(h.w.ctx("backbone", "add circuit"), a, z, 1)
		return cr, err
	}, h.devicesMatching(fbnet.In("name", a, z)))
	if ok {
		bb.noteCircuit(cr, a, z)
		h.checkLinkUp(bb.circuits[len(bb.circuits)-1].id)
	}
}

func (h *harness) migrateCircuit(bb *backbone) {
	i := h.rng.Intn(len(bb.circuits))
	c := bb.circuits[i]
	// A new Z that is neither end and shares no bundle with A yet.
	var newZ string
	for {
		newZ = bb.routers[h.rng.Intn(len(bb.routers))]
		if newZ != c.a && newZ != c.z && !bb.linked[pair(c.a, newZ)] {
			break
		}
	}
	_, ok := h.change(opMigrate, fmt.Sprintf("%s--%s to %s", c.a, c.z, newZ), func() (design.ChangeResult, error) {
		return h.onCircuit(c.id, func(circuitID string) (design.ChangeResult, error) {
			return h.w.r.Designer.MigrateCircuit(h.w.ctx("backbone", "migrate circuit"), circuitID, newZ)
		})
	}, h.devicesMatching(fbnet.In("name", c.a, c.z, newZ)))
	if ok {
		delete(bb.linked, pair(c.a, c.z))
		bb.linked[pair(c.a, newZ)] = true
		bb.circuits[i].z = newZ
		h.checkLinkUp(c.id)
	}
}

func (h *harness) deleteCircuit(bb *backbone) {
	i := h.rng.Intn(len(bb.circuits))
	c := bb.circuits[i]
	_, ok := h.change(opDelete, c.a+"--"+c.z, func() (design.ChangeResult, error) {
		return h.onCircuit(c.id, func(circuitID string) (design.ChangeResult, error) {
			return h.w.r.Designer.DeleteCircuit(h.w.ctx("backbone", "delete circuit"), circuitID)
		})
	}, h.devicesMatching(fbnet.In("name", c.a, c.z)))
	if ok {
		delete(bb.linked, pair(c.a, c.z))
		bb.circuits = append(bb.circuits[:i], bb.circuits[i+1:]...)
	}
}

func (h *harness) toggleDrain(bb *backbone) {
	name := bb.routers[h.rng.Intn(len(bb.routers))]
	h.change(opDrain, name, func() (design.ChangeResult, error) {
		// core.DrainDevice and UndrainDevice are the entry points; they
		// do not hand back the ChangeResult, and a drain touches one
		// object.
		toggle := h.w.r.DrainDevice
		if bb.drained[name] {
			toggle = h.w.r.UndrainDevice
		}
		err := toggle(h.w.ctx("backbone", "toggle drain"), name)
		if err == nil {
			bb.drained[name] = !bb.drained[name]
			h.objects++
		}
		return design.ChangeResult{}, err
	}, h.devicesMatching(fbnet.Eq("name", name)))
}

// meshOp adds bbExtra to the mesh or removes it again, alternately:
// either way every router's config changes.
func (h *harness) meshOp(bb *backbone) {
	mesh := h.devicesMatching(fbnet.In("role", "pr", "bb", "dr"))
	if bb.extraIn {
		devices, ok := h.change(opMeshRemove, bbExtra, func() (design.ChangeResult, error) {
			return h.w.r.Designer.RemoveBackboneRouter(h.w.ctx("backbone", "remove router"), bbExtra)
		}, mesh)
		if ok {
			bb.extraIn = false
			if len(devices) != len(bb.routers) {
				h.failf("mesh has %d routers after the removal, want %d", len(devices), len(bb.routers))
			}
			h.checkSessions(bb.routers[h.rng.Intn(len(bb.routers))], len(bb.routers)-1)
		}
		return
	}
	devices, ok := h.change(opMeshAdd, bbExtra, func() (design.ChangeResult, error) {
		return h.w.r.Designer.AddBackboneRouter(h.w.ctx("backbone", "add router"), bbExtra, "bb-east", bbProfile, "bb")
	}, mesh)
	if ok {
		bb.extraIn = true
		if len(devices) != len(bb.routers)+1 {
			h.failf("mesh has %d routers after the addition, want %d", len(devices), len(bb.routers)+1)
		}
		h.checkSessions(bbExtra, len(bb.routers))
	}
}
