package monitor

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/robotron-net/robotron/internal/fbnet"
	"github.com/robotron-net/robotron/internal/netsim"
	"github.com/robotron-net/robotron/internal/relstore"
	"github.com/robotron-net/robotron/internal/revctl"
	"github.com/robotron-net/robotron/internal/telemetry"
	"github.com/robotron-net/robotron/internal/vclock"
)

// The observed-state write rule (DESIGN.md §15.5), checked against a naive
// model: every Derived table is the latest observation per scope, nothing
// is written — no transaction even opens — when an observation repeats,
// the verdict made on rows read in place is the one a transaction would
// reach, row ids are stable, and the stamps (last_change_unix,
// collected_unix) move only with what they describe.

// derivedColumns lists, per Derived model, the columns the model below
// keeps; the first keyLen of them are the row's identity.
var derivedColumns = map[string]struct {
	cols   []string
	keyLen int
}{
	"DerivedDevice":       {[]string{"name", "vendor", "os_version", "uptime_s", "last_seen_unix"}, 1},
	"DerivedInterface":    {[]string{"device_name", "name", "oper_status", "speed_mbps", "last_change_unix"}, 2},
	"DerivedLldpNeighbor": {[]string{"device_name", "interface_name", "neighbor_device", "neighbor_interface"}, 4},
	"DerivedBgpSession":   {[]string{"device_name", "peer_addr", "family", "state"}, 2},
	"DerivedCircuit":      {[]string{"a_device", "a_interface", "z_device", "z_interface", "source"}, 4},
	"DerivedConfig":       {[]string{"device_name", "config_hash", "collected_unix", "conforms"}, 1},
}

// mirror is the naive model: table -> row key -> the row's columns in
// derivedColumns order.
type mirror map[string]map[string][]any

func mirrorKey(table string, row []any) string {
	parts := make([]string, derivedColumns[table].keyLen)
	for i := range parts {
		parts[i] = row[i].(string)
	}
	return strings.Join(parts, "|")
}

// observe replaces the rows of one scope (the rows whose first column is
// device; every row when device is "") with rows.
func (m mirror) observe(table, device string, rows [][]any) {
	for k, row := range m[table] {
		if device == "" || row[0] == device {
			delete(m[table], k)
		}
	}
	for _, row := range rows {
		m[table][mirrorKey(table, row)] = row
	}
}

// readDerived reads every Derived table into mirror form, with the row ids
// on the side.
func readDerived(t *testing.T, store *fbnet.Store) (mirror, map[string]int64) {
	t.Helper()
	got, ids := mirror{}, map[string]int64{}
	for table, spec := range derivedColumns {
		got[table] = map[string][]any{}
		objs, err := store.Find(table, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range objs {
			row := make([]any, len(spec.cols))
			for i, col := range spec.cols {
				row[i] = o.Value(col)
			}
			k := mirrorKey(table, row)
			if _, dup := got[table][k]; dup {
				t.Fatalf("%s holds two rows for %s", table, k)
			}
			got[table][k] = row
			ids[table+"/"+k] = o.ID
		}
	}
	return got, ids
}

// observedWorld is what the simulated devices would report if polled now.
type observedWorld struct {
	ifaces map[string]map[string]netsim.IfaceStatus
	bgp    map[string]map[string]netsim.BGPPeerStatus
	cables map[[2]string][2]string // (device, interface) -> far end, both directions
	config map[string]string
}

var (
	worldDevices = []string{"d0", "d1", "d2", "d3"}
	worldPorts   = []string{"et1", "et2", "et3", "et4"}
	worldPeers   = []string{"10.0.0.1", "10.0.0.2", "2401:db00::1"}
)

func pick(rng *rand.Rand, xs []string) string { return xs[rng.Intn(len(xs))] }

// perturb changes one thing in the world: an interface flaps, changes
// speed, appears or vanishes; a BGP session changes state, appears or
// vanishes; a cable is plugged or pulled; a config is edited.
func (w *observedWorld) perturb(rng *rand.Rand) {
	dev := pick(rng, worldDevices)
	switch rng.Intn(4) {
	case 0:
		name := pick(rng, worldPorts)
		ifc, ok := w.ifaces[dev][name]
		switch {
		case !ok:
			w.ifaces[dev][name] = netsim.IfaceStatus{Name: name, OperStatus: "up", SpeedMbps: 10000}
		case rng.Intn(4) == 0:
			delete(w.ifaces[dev], name)
		case rng.Intn(3) == 0:
			ifc.SpeedMbps = []int64{10000, 40000, 100000}[rng.Intn(3)]
			w.ifaces[dev][name] = ifc
		default:
			ifc.OperStatus = map[string]string{"up": "down", "down": "up"}[ifc.OperStatus]
			w.ifaces[dev][name] = ifc
		}
	case 1:
		addr := pick(rng, worldPeers)
		family := "v4"
		if strings.Contains(addr, ":") {
			family = "v6"
		}
		if _, ok := w.bgp[dev][addr]; ok && rng.Intn(4) == 0 {
			delete(w.bgp[dev], addr)
			return
		}
		w.bgp[dev][addr] = netsim.BGPPeerStatus{PeerAddr: addr, Family: family,
			State: []string{"Established", "Active", "Idle"}[rng.Intn(3)]}
	case 2:
		a := [2]string{dev, pick(rng, worldPorts)}
		if z, ok := w.cables[a]; ok {
			delete(w.cables, a)
			delete(w.cables, z)
			return
		}
		z := [2]string{pick(rng, worldDevices), pick(rng, worldPorts)}
		if _, busy := w.cables[z]; !busy && z[0] != a[0] {
			w.cables[a], w.cables[z] = z, a
		}
	case 3:
		w.config[dev] = fmt.Sprintf("hostname %s\nrev %d\n", dev, rng.Intn(3))
	}
}

// poll reports one data type of one device, in a shuffled order (the sync
// must not depend on the order a device lists its rows in).
func (w *observedWorld) poll(rng *rand.Rand, dev string, data DataType, at time.Time) Collection {
	col := Collection{Device: dev, Engine: EngineCLI, Data: data, At: at}
	switch data {
	case DataVersion:
		col.Version = &netsim.VersionInfo{Name: dev, Vendor: "vendor1", OSVersion: "1.0",
			UptimeS: at.Unix() - 1_000_000}
	case DataInterfaces:
		for _, name := range worldPorts {
			if ifc, ok := w.ifaces[dev][name]; ok {
				col.Interfaces = append(col.Interfaces, ifc)
			}
		}
		rng.Shuffle(len(col.Interfaces), func(i, j int) {
			col.Interfaces[i], col.Interfaces[j] = col.Interfaces[j], col.Interfaces[i]
		})
	case DataBGP:
		for _, addr := range worldPeers {
			if p, ok := w.bgp[dev][addr]; ok {
				col.BGP = append(col.BGP, p)
			}
		}
		rng.Shuffle(len(col.BGP), func(i, j int) { col.BGP[i], col.BGP[j] = col.BGP[j], col.BGP[i] })
	case DataLLDP:
		for _, port := range worldPorts {
			if z, ok := w.cables[[2]string{dev, port}]; ok {
				col.LLDP = append(col.LLDP, netsim.LLDPNeighbor{
					LocalInterface: port, NeighborDevice: z[0], NeighborInterface: z[1]})
			}
		}
		rng.Shuffle(len(col.LLDP), func(i, j int) { col.LLDP[i], col.LLDP[j] = col.LLDP[j], col.LLDP[i] })
	}
	return col
}

// mirrorCollection folds a collection into the model the way the rule
// reads: the scope's rows become the reported rows; an interface's
// last_change_unix is the time of the first observation that differs from
// the one before it in status or speed.
func (m mirror) mirrorCollection(col Collection) {
	at := col.At.Unix()
	switch col.Data {
	case DataVersion:
		m.observe("DerivedDevice", col.Device, [][]any{{col.Device, col.Version.Vendor,
			col.Version.OSVersion, col.Version.UptimeS, at}})
	case DataInterfaces:
		var rows [][]any
		for _, ifc := range col.Interfaces {
			changed := at
			if prev, ok := m["DerivedInterface"][col.Device+"|"+ifc.Name]; ok &&
				prev[2] == ifc.OperStatus && prev[3] == ifc.SpeedMbps {
				changed = prev[4].(int64)
			}
			rows = append(rows, []any{col.Device, ifc.Name, ifc.OperStatus, ifc.SpeedMbps, changed})
		}
		m.observe("DerivedInterface", col.Device, rows)
	case DataBGP:
		var rows [][]any
		for _, p := range col.BGP {
			rows = append(rows, []any{col.Device, p.PeerAddr, p.Family, p.State})
		}
		m.observe("DerivedBgpSession", col.Device, rows)
	case DataLLDP:
		var rows [][]any
		for _, n := range col.LLDP {
			rows = append(rows, []any{col.Device, n.LocalInterface, n.NeighborDevice, n.NeighborInterface})
		}
		m.observe("DerivedLldpNeighbor", col.Device, rows)
	}
}

// mirrorConformance records a config check's verdict. collected_unix is
// the row's stamp, as last_change_unix is an interface's: it keeps its
// value while the hash and the verdict repeat.
func (m mirror) mirrorConformance(device, hash string, conforms bool, at time.Time) {
	checked := at.Unix()
	if prev, ok := m["DerivedConfig"][device]; ok && prev[1] == hash && prev[3] == conforms {
		checked = prev[2].(int64)
	}
	m.observe("DerivedConfig", device, [][]any{{device, hash, checked, conforms}})
}

// mirrorCircuits derives the circuits the model's LLDP rows confirm from
// both sides, a-end the smaller (device, interface).
func (m mirror) mirrorCircuits() {
	var rows [][]any
	for _, n := range m["DerivedLldpNeighbor"] {
		back := mirrorKey("DerivedLldpNeighbor", []any{n[2], n[3], n[0], n[1]})
		if _, mutual := m["DerivedLldpNeighbor"][back]; !mutual {
			continue
		}
		if a, z := n[0].(string)+"|"+n[1].(string), n[2].(string)+"|"+n[3].(string); a < z {
			rows = append(rows, []any{n[0], n[1], n[2], n[3], "lldp"})
		}
	}
	m.observe("DerivedCircuit", "", rows)
}

func TestDerivedTablesMirrorLatestObservation(t *testing.T) {
	populated := map[string]bool{} // tables some step compared at least one row of, and which branches ran
	for seed := int64(1); seed <= 20; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			// ev draws the events around the polls (historyEvent), apart
			// from rng, so the polls are the same with or without them.
			ev := rand.New(rand.NewSource(-seed))
			reg := telemetry.NewRegistry()
			store, err := fbnet.Open(relstore.NewDB("derived-sync", reg), fbnet.NewCatalog())
			if err != nil {
				t.Fatal(err)
			}
			replica := relstore.NewReplica(store.DB(), "derived-sync-replica")
			if err := replica.CatchUp(); err != nil { // whenever the master dies, its successor has the schema
				t.Fatal(err)
			}
			commits := reg.Counter("robotron_relstore_tx_commits_total", telemetry.L("server", "derived-sync")...)
			planned := func() (n float64) {
				for _, strategy := range []string{"indexed", "scan"} {
					v, _ := reg.Value("robotron_fbnet_queries_planned_total", telemetry.L("strategy", strategy)...)
					n += v
				}
				return n
			}
			backend := NewDerivedBackend(store, NewTimeseriesBackend())
			cm := &ConfigMonitor{store: store}
			w := &observedWorld{
				ifaces: map[string]map[string]netsim.IfaceStatus{},
				bgp:    map[string]map[string]netsim.BGPPeerStatus{},
				cables: map[[2]string][2]string{},
				config: map[string]string{},
			}
			for _, d := range worldDevices {
				w.ifaces[d] = map[string]netsim.IfaceStatus{}
				w.bgp[d] = map[string]netsim.BGPPeerStatus{}
			}
			want := mirror{}
			for table := range derivedColumns {
				want[table] = map[string][]any{}
			}
			at := time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC)
			var prevIDs map[string]int64
			for step := 0; step < 60; step++ {
				for n := rng.Intn(3); n > 0; n-- {
					w.perturb(rng)
				}
				at = at.Add(time.Duration(1+rng.Intn(90)) * time.Second)
				dev := pick(rng, worldDevices)
				data := []DataType{DataVersion, DataInterfaces, DataBGP, DataLLDP, DataConfig}[rng.Intn(5)]
				col := w.poll(rng, dev, data, at)
				if ev.Intn(2) == 0 {
					col.sortRows() // as a device lists them: the memo's positional compare can match
				}
				observed := func() *observation {
					if data == DataConfig {
						return conformance(dev, revctl.Hash(w.config[dev]), w.config[dev] == "", at)
					}
					return observe(col, nil)
				}
				// write stores the collection and re-derives circuits. racing
				// lands a commit to an unrelated table between the
				// collection's read and its transaction, which must then read
				// again and plan afresh.
				write := func(racing bool) {
					t.Helper()
					assertVerdict(t, store, observed())
					if data != DataConfig {
						hit, voided := assertMemo(t, backend, col, observed(), memoKey{data, dev})
						populated["the memo answered unchanged"] = populated["the memo answered unchanged"] || hit
						populated["a moved table seq voided a memo entry"] = populated["a moved table seq voided a memo entry"] || voided
					}
					var err error
					switch {
					case racing:
						var replanned bool
						replanned, err = syncAfterUnrelatedCommit(t, store, planned, observed(), fmt.Sprintf("r%d", step))
						populated["a write planned afresh"] = populated["a write planned afresh"] || replanned
					case data == DataConfig:
						err = cm.recordConformance(dev, revctl.Hash(w.config[dev]), w.config[dev] == "", at)
					default:
						err = backend.Store(col)
					}
					if err != nil {
						t.Fatalf("step %d: storing %s of %s: %v", step, data, dev, err)
					}
					circuits, err := observeCircuits(store)
					if err != nil {
						t.Fatal(err)
					}
					assertVerdict(t, store, circuits)
					if _, err := DeriveCircuits(store); err != nil {
						t.Fatalf("step %d: DeriveCircuits: %v", step, err)
					}
				}
				switch event := historyEvent(ev.Intn(12)); event {
				case evRawWrite, evRolledBack, evAddField:
					if data == DataConfig {
						break
					}
					table := observed().model
					switch event {
					case evRawWrite:
						tamper(t, store, want, table, dev)
					case evRolledBack:
						rollBackScope(t, store, table, dev)
					case evAddField:
						field := fbnet.Field{Name: fmt.Sprintf("note%d", step), Kind: fbnet.ValueField, Type: relstore.ColString, Nullable: true}
						if err := store.AddField(table, field); err != nil {
							t.Fatal(err)
						}
					}
					populated[event.String()] = true
				case evDown:
					// A down server serves no verdict, not even one the memo
					// holds, and the failed store forgets it.
					store.DB().SetDown(true)
					if data != DataConfig {
						if err := backend.Store(col); err == nil {
							t.Fatalf("step %d: storing %s of %s on a down server succeeded", step, data, dev)
						}
						if _, ok := backend.memo[memoKey{data, dev}]; ok {
							t.Fatalf("step %d: a failed store of %s of %s left its memo entry", step, data, dev)
						}
					}
					store.DB().SetDown(false)
					populated[event.String()] = true
				case evReplicate:
					if replica != nil {
						if err := replica.CatchUp(); err != nil {
							t.Fatal(err)
						}
					}
				case evPromote:
					if replica == nil || step < 10 {
						break
					}
					// The master dies with what the replica has not applied;
					// the replica serves from here on, the backend, the
					// config monitor and the model re-pointed at it. It has
					// counted into the master's registry from the start.
					store.DB().SetDown(true)
					promoted := replica.Promote()
					replica = nil
					commits = reg.Counter("robotron_relstore_tx_commits_total", telemetry.L("server", promoted.Name())...)
					store = store.ReadOnlyView(promoted)
					backend.store, cm.store = store, store
					want, prevIDs = readDerived(t, store)
					populated[event.String()] = true
				}
				write(step%3 == 2)
				if data == DataConfig {
					want.mirrorConformance(dev, revctl.Hash(w.config[dev]), w.config[dev] == "", at)
				} else {
					want.mirrorCollection(col)
				}
				want.mirrorCircuits()

				got, ids := readDerived(t, store)
				if !reflect.DeepEqual(got, want) {
					for table := range derivedColumns {
						if !reflect.DeepEqual(got[table], want[table]) {
							t.Errorf("step %d (%s of %s): %s\n got %v\nwant %v", step, data, dev, table, got[table], want[table])
						}
					}
					t.FailNow()
				}
				for table, rows := range want {
					if len(rows) > 0 {
						populated[table] = true
					}
				}
				// A row that is still reported is the same row.
				for k, id := range ids {
					if prev, ok := prevIDs[k]; ok && prev != id {
						t.Fatalf("step %d: %s moved from id %d to %d", step, k, prev, id)
					}
				}
				prevIDs = ids

				// The same observation again writes nothing and commits no
				// transaction.
				seq, committed := store.DB().Seq(), commits.Value()
				write(false)
				if moved := store.DB().Seq() - seq; moved != 0 {
					t.Fatalf("step %d: replaying %s of %s appended %d binlog entries", step, data, dev, moved)
				}
				if n := commits.Value() - committed; n != 0 {
					t.Fatalf("step %d: replaying %s of %s committed %d transactions", step, data, dev, n)
				}
				if _, again := readDerived(t, store); !reflect.DeepEqual(again, ids) {
					t.Fatalf("step %d: row ids changed on an unchanged cycle", step)
				}
			}
		})
	}
	for table := range derivedColumns {
		if !populated[table] {
			t.Errorf("no history ever had a %s row to compare", table)
		}
	}
	for _, branch := range []string{"a write planned afresh", "the memo answered unchanged", "a moved table seq voided a memo entry",
		evRawWrite.String(), evRolledBack.String(), evAddField.String(), evDown.String(), evPromote.String()} {
		if !populated[branch] {
			t.Errorf("no history ever got to %q", branch)
		}
	}
}

// historyEvent is what may happen to the store around a poll, besides
// the polls themselves.
type historyEvent int

const (
	evRawWrite   historyEvent = iota // a Store.Mutate edits the scope behind the sync's back
	evRolledBack                     // a transaction edits the scope and rolls back
	evAddField                       // the model gains a field
	evDown                           // the server goes down for one store, and comes back
	evReplicate                      // the replica catches up
	evPromote                        // the master dies and the replica takes over
)

func (e historyEvent) String() string {
	return [...]string{"raw write", "rolled-back transaction", "AddField", "server down", "replicate", "promotion"}[e]
}

// sortRows puts a collection's rows in the order a device lists them.
func (c *Collection) sortRows() {
	slices.SortFunc(c.Interfaces, func(a, b netsim.IfaceStatus) int { return strings.Compare(a.Name, b.Name) })
	slices.SortFunc(c.BGP, func(a, b netsim.BGPPeerStatus) int { return strings.Compare(a.PeerAddr, b.PeerAddr) })
	slices.SortFunc(c.LLDP, func(a, b netsim.LLDPNeighbor) int { return strings.Compare(a.LocalInterface, b.LocalInterface) })
}

// assertMemo checks the Derived backend's memo against a fresh peek: it
// answers that col, observed as o, changes nothing only where a fresh peek
// plans no write.
// It reports whether the memo answered so, and whether it declined an
// entry that repeats o on the same server only because the table's seq
// moved, where a fresh peek does plan a write: the case a memo that
// ignored the seq would get wrong.
func assertMemo(t *testing.T, b *DerivedBackend, col Collection, o *observation, key memoKey) (hit, voided bool) {
	t.Helper()
	v, db := b.recall(key), b.store.DB()
	hit, err := b.verifies(v, db, o.model, col)
	if err != nil {
		t.Fatal(err)
	}
	stored, _, tableSeq, err := b.store.Peek(o.model, o.scope)
	if err != nil {
		t.Fatal(err)
	}
	writes := len(o.plan(stored)) > 0
	if hit && writes {
		t.Fatalf("the memo calls %s of %s unchanged; a fresh peek plans a write", o.model, key.device)
	}
	return hit, v.db == db && reports(col, v.rows) && v.seq != tableSeq && writes
}

// tamper edits dev's scope of table behind the sync's back — a column of
// its first stored row, or when there is none (and always for LLDP, whose
// columns are all identity) a row dev does not report — with a raw
// Store.Mutate, and makes the same edit to the model.
func tamper(t *testing.T, store *fbnet.Store, want mirror, table, dev string) {
	t.Helper()
	got, ids := readDerived(t, store)
	var first string
	for k, row := range got[table] {
		if row[0] == dev && (first == "" || k < first) {
			first = k
		}
	}
	edit := map[string]int{"DerivedDevice": 1, "DerivedInterface": 3, "DerivedBgpSession": 3}
	col, editable := edit[table]
	spec := derivedColumns[table]
	if _, err := store.Mutate(func(m *fbnet.Mutation) error {
		if first != "" && editable {
			row := slices.Clone(got[table][first])
			row[col] = map[string]any{"DerivedDevice": "tampered", "DerivedInterface": int64(1), "DerivedBgpSession": "Tampered"}[table]
			want[table][first] = row
			return m.Update(table, ids[table+"/"+first], map[string]any{spec.cols[col]: row[col]})
		}
		row := map[string][]any{
			"DerivedDevice":       {dev, "tampered", "0.0", int64(0), int64(0)},
			"DerivedInterface":    {dev, "tampered", "up", int64(1), int64(0)},
			"DerivedLldpNeighbor": {dev, "tampered", "nowhere", "tampered"},
			"DerivedBgpSession":   {dev, "192.0.2.1", "v4", "Tampered"},
		}[table]
		want[table][mirrorKey(table, row)] = row
		fields := map[string]any{}
		for i, c := range spec.cols {
			fields[c] = row[i]
		}
		_, err := m.Create(table, fields)
		return err
	}); err != nil {
		t.Fatalf("tampering with %s of %s: %v", table, dev, err)
	}
}

// rollBackScope deletes dev's rows of table in a transaction that then
// rolls back.
func rollBackScope(t *testing.T, store *fbnet.Store, table, dev string) {
	t.Helper()
	rollback := errors.New("roll back")
	scope := fbnet.Eq("device_name", dev)
	if table == "DerivedDevice" {
		scope = fbnet.Eq("name", dev)
	}
	if _, err := store.Mutate(func(m *fbnet.Mutation) error {
		rows, err := m.Find(table, scope)
		if err != nil {
			return err
		}
		for _, r := range rows {
			if err := m.Delete(table, r.ID); err != nil {
				return err
			}
		}
		return rollback
	}); !errors.Is(err, rollback) {
		t.Fatalf("rolling back a delete of %s of %s: %v", table, dev, err)
	}
}

// assertVerdict checks the in-place verdict against the transaction: o
// changes nothing on the rows read in place exactly when a transactional
// run of the same sync, rolled back, writes nothing.
func assertVerdict(t *testing.T, store *fbnet.Store, o *observation) {
	t.Helper()
	stored, _, _, err := store.Peek(o.model, o.scope)
	if err != nil {
		t.Fatal(err)
	}
	unchanged := len(o.plan(stored)) == 0
	seq := store.DB().Seq()
	rollback := errors.New("roll back")
	var wrote int
	if _, err := store.Mutate(func(m *fbnet.Mutation) error {
		stored, err := m.Find(o.model, o.scope)
		if err != nil {
			return err
		}
		if err := o.apply(m, o.plan(stored)); err != nil {
			return err
		}
		wrote = m.Stats().Total()
		return rollback
	}); !errors.Is(err, rollback) {
		t.Fatalf("the transactional run of %s: %v", o.model, err)
	}
	if unchanged != (wrote == 0) || store.DB().Seq() != seq {
		t.Fatalf("%s: in place the observation is unchanged=%v, in a transaction it writes %d rows", o.model, unchanged, wrote)
	}
}

// syncAfterUnrelatedCommit is syncDerived with a commit to a table o does
// not write landing between its read and its transaction; the write must
// see that the store moved and read o's rows once more (planned counts the
// store's queries).
// It reports whether there was anything to write.
func syncAfterUnrelatedCommit(t *testing.T, store *fbnet.Store, planned func() float64, o *observation, region string) (bool, error) {
	t.Helper()
	stored, seq, _, err := store.Peek(o.model, o.scope)
	if err != nil {
		return false, err
	}
	ops := o.plan(stored)
	if len(ops) == 0 {
		return false, nil
	}
	if _, err := store.Mutate(func(m *fbnet.Mutation) error {
		_, err := m.Create("Region", map[string]any{"name": region})
		return err
	}); err != nil {
		return false, err
	}
	before := planned()
	if err := o.write(store, ops, seq); err != nil {
		return false, err
	}
	if n := planned() - before; n != 1 {
		t.Fatalf("a write planned on a store that moved since its read planned %v queries, want the one re-read", n)
	}
	return true, nil
}

// TestDerivedRowsCarryNoWallTime: engines do not stamp collections — the
// job manager does, from its clock — so under a virtual clock no time a
// Derived row records can be the wall clock's, and an engine polled
// outside a job carries no time at all.
func TestDerivedRowsCarryNoWallTime(t *testing.T) {
	at := time.Date(2001, 9, 9, 1, 46, 40, 0, time.UTC)
	fleet, jm, store, _ := newMonitoredFleetOn(t, 1, vclock.NewVirtualClock(at))
	dev, _ := fleet.Device("dev00")
	for typ, eng := range NewEngines() {
		for _, data := range []DataType{DataCounters, DataInterfaces, DataLLDP, DataBGP, DataConfig, DataVersion} {
			if !eng.Supports(data) {
				continue
			}
			col, err := eng.Poll(dev, data)
			if err != nil {
				t.Fatal(err)
			}
			if !col.At.IsZero() {
				t.Errorf("%s engine stamped its %s collection %v", typ, data, col.At)
			}
			cols, err := jm.RunOnce(JobSpec{Name: "adhoc", Engine: typ, Data: data,
				Devices: []string{"dev00"}, Backends: []string{"fbnet-derived"}})
			if err != nil {
				t.Fatal(err)
			}
			if len(cols) != 1 || !cols[0].At.Equal(at) {
				t.Errorf("%s/%s: job collections = %+v, want one stamped %v", typ, data, cols, at)
			}
		}
	}
	for table, col := range map[string]string{"DerivedDevice": "last_seen_unix", "DerivedInterface": "last_change_unix"} {
		rows, err := store.Find(table, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) == 0 {
			t.Errorf("no %s rows written", table)
		}
		for _, r := range rows {
			if got := r.Int(col); got != at.Unix() {
				t.Errorf("%s %d: %s = %d, want the virtual clock's %d", table, r.ID, col, got, at.Unix())
			}
		}
	}
}
