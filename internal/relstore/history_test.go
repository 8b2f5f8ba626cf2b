package relstore

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// The seeded histories below drive one master and one replica through
// every kind of write the store has — insert, update, delete with cascade,
// set-null and restrict, rollback, ALTER ADD COLUMN — plus partial and full
// replication, master death and promotion, and mirror each step on
// naiveStore: a map of tables of rows with none of the store's machinery
// (no second table set, no indexes, no log, no undo). The reference stays.

// naiveStore is the reference: table -> id -> row, plus what a write needs
// to know about the schema.
type naiveStore struct {
	defs   map[string]TableDef
	rows   map[string]map[int64]map[string]any
	nextID map[string]int64
}

func (m *naiveStore) clone() *naiveStore {
	c := &naiveStore{defs: map[string]TableDef{}, rows: map[string]map[int64]map[string]any{}, nextID: map[string]int64{}}
	for name, def := range m.defs {
		def.Columns = slices.Clone(def.Columns)
		c.defs[name] = def
		c.nextID[name] = m.nextID[name]
		c.rows[name] = map[int64]map[string]any{}
		for id, row := range m.rows[name] {
			c.rows[name][id] = copyValues(row)
		}
	}
	return c
}

func (m *naiveStore) createTable(def TableDef) {
	m.defs[def.Name] = def
	m.rows[def.Name] = map[int64]map[string]any{}
}

func (m *naiveStore) addColumn(table string, col Column) {
	def := m.defs[table]
	def.Columns = append(slices.Clone(def.Columns), col)
	m.defs[table] = def
}

var errNaive = errors.New("naive store refuses")

// check refuses a unique collision or a dangling reference among changes.
func (m *naiveStore) check(table string, self int64, changes map[string]any) error {
	def := m.defs[table]
	for col, v := range changes {
		if v == nil {
			continue
		}
		if c, _ := def.column(col); c.Unique {
			for id, row := range m.rows[table] {
				if id != self && row[col] == v {
					return errNaive
				}
			}
		}
		for _, fk := range def.ForeignKeys {
			if fk.Column == col && m.rows[fk.RefTable][v.(int64)] == nil {
				return errNaive
			}
		}
	}
	return nil
}

func (m *naiveStore) insert(table string, vals map[string]any) (int64, error) {
	if err := m.check(table, 0, vals); err != nil {
		return 0, err
	}
	m.nextID[table]++
	m.rows[table][m.nextID[table]] = copyValues(vals)
	return m.nextID[table], nil
}

func (m *naiveStore) update(table string, id int64, changes map[string]any) error {
	row, ok := m.rows[table][id]
	if !ok {
		return errNaive
	}
	if err := m.check(table, id, changes); err != nil {
		return err
	}
	for k, v := range changes {
		row[k] = v
	}
	return nil
}

// delete may leave the model half-changed when it refuses; the history
// rolls a failed transaction back on both sides.
func (m *naiveStore) delete(table string, id int64) error {
	if m.rows[table][id] == nil {
		return errNaive
	}
	for refName, def := range m.defs {
		for _, fk := range def.ForeignKeys {
			if fk.RefTable != table {
				continue
			}
			for _, rid := range m.referencing(refName, fk.Column, id) {
				switch fk.OnDelete {
				case Restrict:
					return errNaive
				case Cascade:
					if err := m.delete(refName, rid); err != nil {
						return err
					}
				case SetNull:
					m.rows[refName][rid][fk.Column] = nil
				}
			}
		}
	}
	delete(m.rows[table], id)
	return nil
}

func (m *naiveStore) ids(table string, match func(id int64, row map[string]any) bool) []int64 {
	ids := []int64{}
	for id, row := range m.rows[table] {
		if match(id, row) {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	return ids
}

func (m *naiveStore) referencing(table, col string, ref int64) []int64 {
	return m.ids(table, func(_ int64, row map[string]any) bool { return row[col] == ref })
}

// rowReader is the read API DB, Tx and View share.
type rowReader interface {
	Get(table string, id int64) (Row, error)
	Select(table string, pred func(Row) bool) ([]Row, error)
	LookupUnique(table, col string, v any) (int64, bool, error)
	LookupIndexed(table, col string, v any) ([]int64, error)
	Referencing(table, fkCol string, refID int64) ([]int64, error)
}

// assertServed compares db's reads with the model, and then, inside one
// View, the view's reads and its Seq, which must be seq, the sequence the
// model is of.
func assertServed(t *testing.T, where string, db *DB, want *naiveStore, seq uint64) {
	t.Helper()
	assertReads(t, where, db, want)
	if err := db.View(func(v View) error {
		if v.Seq() != seq {
			t.Fatalf("%s: view at seq %d, want %d", where, v.Seq(), seq)
		}
		assertReads(t, where+" (view)", v, want)
		return nil
	}); err != nil {
		t.Fatalf("%s: View: %v", where, err)
	}
}

// assertReads compares every read API of got with the model. Rows a DB or
// Tx hands out are scribbled on afterwards: they are copies, so the next
// comparison fails if one was not. A View hands out the stored rows, so
// there Get and Select must return the same map.
func assertReads(t *testing.T, where string, got rowReader, want *naiveStore) {
	t.Helper()
	_, shared := got.(View)
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("%s: %s", where, fmt.Sprintf(format, args...))
	}
	sameRow := func(def TableDef, got Row, want map[string]any) bool {
		for _, c := range def.Columns { // a column added after the row was stored reads NULL
			if got.Get(c.Name) != want[c.Name] {
				return false
			}
		}
		return len(got.Values) <= len(def.Columns)
	}
	for table, def := range want.defs {
		all := want.ids(table, func(int64, map[string]any) bool { return true })
		rows, err := got.Select(table, nil)
		if err != nil || len(rows) != len(all) {
			fail("Select(%s) = %d rows, %v; want %d", table, len(rows), err, len(all))
		}
		for i, r := range rows {
			if r.ID != all[i] || !sameRow(def, r, want.rows[table][r.ID]) {
				fail("Select(%s)[%d] = %d %v; want %d %v", table, i, r.ID, r.Values, all[i], want.rows[table][all[i]])
			}
			one, err := got.Get(table, r.ID)
			if err != nil || !sameRow(def, one, want.rows[table][r.ID]) {
				fail("Get(%s, %d) = %v, %v; want %v", table, r.ID, one.Values, err, want.rows[table][r.ID])
			}
			if shared {
				if reflect.ValueOf(r.Values).UnsafePointer() != reflect.ValueOf(one.Values).UnsafePointer() {
					fail("Get(%s, %d) and Select handed out different maps for one stored row", table, r.ID)
				}
				continue
			}
			for k := range r.Values {
				r.Values[k], one.Values[k] = "scribble", "scribble"
			}
		}
		odd, err := got.Select(table, func(r Row) bool { return r.ID%2 == 1 })
		wantOdd := want.ids(table, func(id int64, _ map[string]any) bool { return id%2 == 1 })
		if err != nil || !slices.EqualFunc(odd, wantOdd, func(r Row, id int64) bool { return r.ID == id }) {
			fail("Select(%s, odd ids) = %v, %v; want ids %v", table, odd, err, wantOdd)
		}
		if _, err := got.Get(table, want.nextID[table]+1); !errors.Is(err, ErrNoRow) {
			fail("Get(%s) of an id never assigned: %v", table, err)
		}
		for _, c := range def.Columns {
			values := map[any]bool{}
			for _, row := range want.rows[table] {
				if v := row[c.Name]; v != nil {
					values[v] = true
				}
			}
			for v := range values {
				ids := want.ids(table, func(_ int64, row map[string]any) bool { return row[c.Name] == v })
				if c.Unique {
					id, ok, err := got.LookupUnique(table, c.Name, v)
					if err != nil || !ok || id != ids[0] {
						fail("LookupUnique(%s.%s, %v) = %d, %v, %v; want %d", table, c.Name, v, id, ok, err, ids[0])
					}
				}
				if c.Indexed {
					if found, err := got.LookupIndexed(table, c.Name, v); err != nil || !slices.Equal(found, ids) {
						fail("LookupIndexed(%s.%s, %v) = %v, %v; want %v", table, c.Name, v, found, err, ids)
					}
				}
			}
			if c.Unique {
				if id, ok, err := got.LookupUnique(table, c.Name, "no such value"); err != nil || ok {
					fail("LookupUnique(%s.%s) of an absent value = %d, %v, %v", table, c.Name, id, ok, err)
				}
			}
			if c.Indexed {
				if found, err := got.LookupIndexed(table, c.Name, "no such value"); err != nil || len(found) != 0 {
					fail("LookupIndexed(%s.%s) of an absent value = %v, %v", table, c.Name, found, err)
				}
			}
		}
		for _, fk := range def.ForeignKeys {
			for ref := int64(1); ref <= want.nextID[fk.RefTable]; ref++ {
				ids := want.referencing(table, fk.Column, ref)
				if found, err := got.Referencing(table, fk.Column, ref); err != nil || !slices.Equal(found, ids) {
					fail("Referencing(%s.%s, %d) = %v, %v; want %v", table, fk.Column, ref, found, err, ids)
				}
			}
		}
	}
}

// historySchema: site <- device <- port, circuits that lose a port to SET
// NULL, leases that RESTRICT a device's delete, and a two-row ledger whose
// values every transaction moves in opposite directions — its first and
// last write — so a reader that saw half a group would see a nonzero sum.
var historySchema = []TableDef{
	{Name: "ledger", Columns: []Column{{Name: "val", Type: ColInt}}},
	{Name: "site", Columns: []Column{{Name: "name", Type: ColString, Unique: true}}},
	{Name: "device",
		Columns: []Column{
			{Name: "name", Type: ColString, Unique: true},
			{Name: "role", Type: ColString, Indexed: true},
			{Name: "site_id", Type: ColInt},
			{Name: "drained", Type: ColBool, Nullable: true},
		},
		ForeignKeys: []ForeignKey{{Column: "site_id", RefTable: "site", OnDelete: Cascade}}},
	{Name: "port",
		Columns: []Column{
			{Name: "name", Type: ColString},
			{Name: "device_id", Type: ColInt},
			{Name: "speed", Type: ColInt, Nullable: true, Indexed: true},
		},
		ForeignKeys: []ForeignKey{{Column: "device_id", RefTable: "device", OnDelete: Cascade}}},
	{Name: "circuit",
		Columns: []Column{
			{Name: "a_port", Type: ColInt, Nullable: true},
			{Name: "z_port", Type: ColInt, Nullable: true},
			{Name: "status", Type: ColString, Indexed: true},
		},
		ForeignKeys: []ForeignKey{
			{Column: "a_port", RefTable: "port", OnDelete: SetNull},
			{Column: "z_port", RefTable: "port", OnDelete: SetNull},
		}},
	{Name: "lease",
		Columns:     []Column{{Name: "device_id", Type: ColInt}},
		ForeignKeys: []ForeignKey{{Column: "device_id", RefTable: "device", OnDelete: Restrict}}},
}

// history is one seeded run. committed[seq] is the model as of the commit
// that ended at binlog sequence seq — what a replica that has applied that
// far, or a master promoted from it, must read.
type history struct {
	t         *testing.T
	r         *rand.Rand
	master    *DB
	replica   *Replica
	model     *naiveStore
	committed map[uint64]*naiveStore
	extraCols int
	// serving is what the concurrent reader reads: the current master and
	// the current replica's DB.
	serving atomic.Pointer[[2]*DB]
}

func (h *history) must(err error) {
	h.t.Helper()
	if err != nil {
		h.t.Fatal(err)
	}
}

// pick returns the id of a live row of table, or now and then — and when
// there is none — one that was deleted or never assigned.
func (h *history) pick(table string) int64 {
	live := h.model.ids(table, func(int64, map[string]any) bool { return true })
	if len(live) == 0 || h.r.Intn(20) == 0 {
		return 1 + h.r.Int63n(h.model.nextID[table]+2)
	}
	return live[h.r.Intn(len(live))]
}

// write runs one random statement on the transaction and on the model and
// reports whether both accepted it; they must agree.
func (h *history) write(tx *Tx) bool {
	r := h.r
	name := func() string { return fmt.Sprintf("n%d", r.Intn(40)) } // few names: unique collisions happen
	var table string
	var vals map[string]any
	var err, modelErr error
	insert := func(t string, v map[string]any) {
		table, vals = t, v
		for _, c := range h.model.defs[t].Columns[len(defOf(t).Columns):] { // columns ALTER added
			if c.Type == ColString && r.Intn(2) == 0 {
				vals[c.Name] = name()
			}
		}
		full := map[string]any{}
		for _, c := range h.model.defs[t].Columns {
			full[c.Name] = vals[c.Name]
		}
		var id, modelID int64
		id, err = tx.Insert(t, vals)
		if modelID, modelErr = h.model.insert(t, full); err == nil && modelErr == nil && id != modelID {
			h.t.Fatalf("insert into %s got id %d, model %d", t, id, modelID)
		}
	}
	update := func(t string, changes map[string]any) {
		id := h.pick(t)
		err, modelErr = tx.Update(t, id, changes), h.model.update(t, id, changes)
	}
	switch op := r.Intn(24); {
	case op < 2 || len(h.model.rows["site"]) == 0:
		insert("site", map[string]any{"name": name()})
	case op < 6:
		insert("device", map[string]any{"name": name(), "role": []string{"psw", "rsw", "bb"}[r.Intn(3)], "site_id": h.pick("site")})
	case op < 10:
		insert("port", map[string]any{"name": name(), "device_id": h.pick("device")})
	case op < 12:
		insert("circuit", map[string]any{"a_port": h.pick("port"), "z_port": h.pick("port"), "status": "up"})
	case op < 13:
		insert("lease", map[string]any{"device_id": h.pick("device")})
	case op < 15:
		update("device", map[string]any{"name": name(), "drained": []any{nil, true, false}[r.Intn(3)]})
	case op < 16:
		update("device", map[string]any{"role": []string{"psw", "rsw", "bb"}[r.Intn(3)], "site_id": h.pick("site")})
	case op < 18:
		update("port", map[string]any{"speed": []any{nil, int64(10), int64(100)}[r.Intn(3)], "device_id": h.pick("device")})
	case op < 19:
		update("circuit", map[string]any{"status": []string{"up", "down"}[r.Intn(2)], "z_port": []any{nil, h.pick("port")}[r.Intn(2)]})
	default:
		table = []string{"site", "device", "port", "circuit", "lease"}[op-19]
		id := h.pick(table)
		err, modelErr = tx.Delete(table, id), h.model.delete(table, id)
	}
	if (err == nil) != (modelErr == nil) {
		h.t.Fatalf("write to %s %v: store says %v, model says %v", table, vals, err, modelErr)
	}
	return err == nil
}

func defOf(table string) TableDef {
	for _, def := range historySchema {
		if def.Name == table {
			return def
		}
	}
	panic(table)
}

// transaction runs one group: the ledger's first row, a few random writes,
// the ledger's second row; then commits, or rolls back by choice or
// because a write was refused. Reads inside it see its own writes, reads
// outside it only what is committed.
func (h *history) transaction(step int) {
	before := h.model.clone()
	tx, err := h.master.Begin()
	h.must(err)
	v := int64(step + 1)
	h.must(tx.Update("ledger", 1, map[string]any{"val": v}))
	h.must(h.model.update("ledger", 1, map[string]any{"val": v}))
	ok := true
	for n := 1 + h.r.Intn(4); n > 0 && ok; n-- {
		ok = h.write(tx)
	}
	if ok {
		assertReads(h.t, "inside the open transaction", tx, h.model)
		assertReads(h.t, "master beside an open transaction", h.master, before)
	}
	if !ok || h.r.Intn(5) == 0 {
		h.must(tx.Rollback())
		h.model = before
		assertReads(h.t, "master after a rollback", h.master, h.model)
		return
	}
	h.must(tx.Update("ledger", 2, map[string]any{"val": -v}))
	h.must(h.model.update("ledger", 2, map[string]any{"val": -v}))
	h.must(tx.Commit())
	h.commit("master after a commit")
}

// commit records the model against the sequence the store has reached and
// checks the master's reads, which reflect the commit by the time it
// returned.
func (h *history) commit(where string) {
	if h.master.ReadSeq() != h.master.Seq() {
		h.t.Fatalf("%s: reads at seq %d, log at %d", where, h.master.ReadSeq(), h.master.Seq())
	}
	h.committed[h.master.Seq()] = h.model.clone()
	assertServed(h.t, where, h.master, h.model, h.master.Seq())
}

func (h *history) alter() {
	h.extraCols++
	table := []string{"site", "device", "port"}[h.r.Intn(3)]
	col := Column{Name: fmt.Sprintf("extra%d", h.extraCols), Type: ColString, Nullable: true,
		Unique: h.r.Intn(3) == 0, Indexed: h.r.Intn(3) == 0}
	if col.Unique {
		col.Indexed = false
	}
	h.must(h.master.AlterAddColumn(table, col))
	h.model.addColumn(table, col)
	h.commit("master after ALTER ADD COLUMN")
}

func (h *history) replicate() {
	if h.r.Intn(2) == 0 {
		h.must(h.replica.ApplyN(1 + h.r.Intn(6)))
	} else {
		h.must(h.replica.CatchUp())
	}
	assertServed(h.t, "replica", h.replica.DB(), h.committed[h.replica.Applied()], h.replica.Applied())
}

// failover kills the master, possibly with the replica behind, promotes
// the replica and gives it a replica of its own. The model goes back to
// what the promoted server had applied.
func (h *history) failover() {
	h.master.SetDown(true)
	if _, err := h.master.Get("ledger", 1); err == nil {
		h.t.Fatal("a dead master still serves reads")
	}
	promoted := h.replica.Promote()
	at := h.replica.Applied()
	if promoted.Seq() != at || promoted.ReadSeq() != at {
		h.t.Fatalf("promoted at applied seq %d: Seq %d, ReadSeq %d", at, promoted.Seq(), promoted.ReadSeq())
	}
	for seq := range h.committed {
		if seq > at {
			delete(h.committed, seq) // died with the old master
		}
	}
	h.model = h.committed[at].clone()
	h.master, h.replica = promoted, NewReplica(promoted, "replica-of-promoted")
	h.serving.Store(&[2]*DB{h.master, h.replica.DB()})
	assertServed(h.t, "promoted master", h.master, h.model, at)
}

// runHistory plays steps of the seeded history; afterStep, if not nil,
// runs after each.
func runHistory(t *testing.T, seed int64, steps int, afterStep func(h *history)) {
	h := &history{t: t, r: rand.New(rand.NewSource(seed)), master: NewDB("master"),
		model:     &naiveStore{defs: map[string]TableDef{}, rows: map[string]map[int64]map[string]any{}, nextID: map[string]int64{}},
		committed: map[uint64]*naiveStore{}}
	h.replica = NewReplica(h.master, "replica")
	h.committed[0] = h.model.clone()
	for _, def := range historySchema {
		h.must(h.master.CreateTable(def))
		h.model.createTable(def)
		h.commit("master after CREATE TABLE")
	}
	h.must(h.master.WithTx(func(tx *Tx) error {
		for i := 0; i < 2; i++ {
			if _, err := tx.Insert("ledger", map[string]any{"val": int64(0)}); err != nil {
				return err
			}
			if _, err := h.model.insert("ledger", map[string]any{"val": int64(0)}); err != nil {
				return err
			}
		}
		return nil
	}))
	h.commit("master after seeding the ledger")
	h.must(h.replica.CatchUp()) // whenever the master dies, its successor has the schema
	h.serving.Store(&[2]*DB{h.master, h.replica.DB()})

	// The concurrent reader: whichever servers are current, one Select of
	// the ledger, and the two rows one View reads by id, never see half a
	// group. (A dead master refuses the read; a replica that has not
	// replayed the ledger yet has no rows.)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, db := range h.serving.Load() {
				rows, err := db.Select("ledger", nil)
				if err == nil && len(rows) == 2 && rows[0].Int("val")+rows[1].Int("val") != 0 {
					t.Errorf("seed %d: %s served half a group: ledger %v", seed, db.Name(), rows)
					return
				}
				db.View(func(v View) error {
					first, err := v.Get("ledger", 1)
					if err != nil {
						return err
					}
					second, err := v.Get("ledger", 2)
					if err == nil && first.Int("val")+second.Int("val") != 0 {
						t.Errorf("seed %d: a View of %s served half a group: ledger %v, %v", seed, db.Name(), first, second)
					}
					return err
				})
			}
		}
	}()
	failoverAt := -1
	if h.r.Intn(2) == 0 {
		failoverAt = h.r.Intn(steps)
	}
	for step := 0; step < steps && !t.Failed(); step++ {
		switch n := h.r.Intn(20); {
		case step == failoverAt:
			h.failover()
		case n == 0:
			h.alter()
		case n < 4:
			h.replicate()
		default:
			h.transaction(step)
		}
		if afterStep != nil {
			afterStep(h)
		}
	}
	close(stop)
	wg.Wait()
}

// TestStoreEqualsNaiveModelOverRandomHistories is the store's differential
// test (ROADMAP item 9): after every commit, inside every open transaction,
// after every rollback, on the replica at whatever point it has applied and
// on a master promoted from it, every read API agrees with naiveStore — a
// View's too, and its Seq names the commit the model is of.
//
// Each table's seq is the Seq of the last log entry naming it, in both
// table sets of the left-right pair — each as of the sequence it
// reflects — on the master and on the replica.
func TestStoreEqualsNaiveModelOverRandomHistories(t *testing.T) {
	for seed := int64(0); seed < 40 && !t.Failed(); seed++ {
		runHistory(t, seed, 120, func(h *history) {
			assertTableSeqs(t, h.master)
			assertTableSeqs(t, h.replica.DB())
		})
	}
}

// assertTableSeqs checks every table's seq in both of db's table sets
// against db's own log.
func assertTableSeqs(t *testing.T, db *DB) {
	t.Helper()
	db.mu.Lock()
	defer db.mu.Unlock()
	for _, e := range []*epoch{db.epochPtr.Load(), db.spare} {
		want := map[string]uint64{}
		for _, entry := range db.EntriesSince(0) {
			if entry.Seq <= e.seq {
				want[entry.Table] = entry.Seq
			}
		}
		if len(want) != len(e.tables) {
			t.Fatalf("%s at seq %d: %d tables, the log names %d", db.Name(), e.seq, len(e.tables), len(want))
		}
		for name, tbl := range e.tables {
			if tbl.seq != want[name] {
				t.Fatalf("%s at seq %d: table %s has seq %d, its last log entry is %d", db.Name(), e.seq, name, tbl.seq, want[name])
			}
		}
	}
}

// TestLogEntriesNeverChange: rows are shared with the log, so a log entry
// is only as immutable as the rows are. A deep copy of every entry, taken
// when it was committed, still equals the entry after everything the
// history did later — updates and deletes of the row, rollbacks over it,
// cascades, ALTERs, replication and promotion.
func TestLogEntriesNeverChange(t *testing.T) {
	for seed := int64(100); seed < 120 && !t.Failed(); seed++ {
		var log *DB
		var snapshot []LogEntry
		runHistory(t, seed, 120, func(h *history) {
			if log != h.master { // promotion: the replica's log, a prefix of the old master's
				log, snapshot = h.master, snapshot[:min(len(snapshot), int(h.master.Seq()))]
			}
			for _, e := range log.EntriesSince(uint64(len(snapshot))) {
				snapshot = append(snapshot, deepCopyEntry(e))
			}
			if !reflect.DeepEqual(log.EntriesSince(0), snapshot) {
				for i, e := range log.EntriesSince(0) {
					if !reflect.DeepEqual(e, snapshot[i]) {
						t.Fatalf("seed %d: log entry %d was %+v when committed and reads %+v now", seed, e.Seq, snapshot[i], e)
					}
				}
			}
		})
	}
}

func deepCopyEntry(e LogEntry) LogEntry {
	if e.Values != nil {
		e.Values = copyValues(e.Values)
	}
	if e.Def != nil {
		def := *e.Def
		def.Columns, def.ForeignKeys = slices.Clone(def.Columns), slices.Clone(def.ForeignKeys)
		e.Def = &def
	}
	if e.Col != nil {
		col := *e.Col
		e.Col = &col
	}
	return e
}
