package relstore

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/robotron-net/robotron/internal/telemetry"
)

// table is the in-memory storage for one table.
type table struct {
	def    TableDef
	rows   map[int64]map[string]any
	nextID int64
	// seq is the binlog sequence of the last entry that touched the table
	// (its CREATE, an ALTER, or a committed row write), in this set. Two
	// reads of one DB that see the same seq see the same table.
	seq uint64
	// unique maps column name -> value -> row id, for Unique columns.
	unique map[string]map[any]int64
	// refIndex maps fk column name -> referenced id -> set of referencing
	// row ids in this table, to make referential actions O(refs).
	refIndex map[string]map[int64]map[int64]struct{}
	// secondary maps column name -> value -> sorted row ids, for Indexed
	// (non-unique) columns, so point lookups are O(matches) and already
	// in ascending order (reads copy, never sort).
	secondary map[string]map[any][]int64
	// referrers lists the foreign keys that reference this table, sorted
	// by referencing table and column: the order a delete applies their
	// referential actions in, so one delete logs the same entries on every
	// run and every server.
	referrers []referrer
}

// referrer is one foreign key of table naming another (or its own) table.
type referrer struct {
	table string
	fk    ForeignKey
}

// addTable creates the table def describes in a table set and lists its
// foreign keys on the tables they reference. CREATE TABLE is the only
// statement that declares a foreign key.
func addTable(tables map[string]*table, def TableDef) *table {
	t := newTable(def)
	tables[def.Name] = t
	for _, fk := range def.ForeignKeys {
		rt := tables[fk.RefTable]
		r := referrer{table: def.Name, fk: fk}
		i, _ := slices.BinarySearchFunc(rt.referrers, r, func(a, b referrer) int {
			if a.table != b.table {
				return strings.Compare(a.table, b.table)
			}
			return strings.Compare(a.fk.Column, b.fk.Column)
		})
		rt.referrers = slices.Insert(rt.referrers, i, r)
	}
	return t
}

func newTable(def TableDef) *table {
	t := &table{
		def:       def,
		rows:      make(map[int64]map[string]any),
		unique:    make(map[string]map[any]int64),
		refIndex:  make(map[string]map[int64]map[int64]struct{}),
		secondary: make(map[string]map[any][]int64),
	}
	for _, c := range def.Columns {
		if c.Unique {
			t.unique[c.Name] = make(map[any]int64)
		}
		if c.Indexed {
			t.secondary[c.Name] = make(map[any][]int64)
		}
	}
	for _, fk := range def.ForeignKeys {
		t.refIndex[fk.Column] = make(map[int64]map[int64]struct{})
	}
	return t
}

func (t *table) indexRef(col string, refID, rowID int64) {
	m := t.refIndex[col]
	s, ok := m[refID]
	if !ok {
		s = make(map[int64]struct{})
		m[refID] = s
	}
	s[rowID] = struct{}{}
}

func (t *table) unindexRef(col string, refID, rowID int64) {
	if s, ok := t.refIndex[col][refID]; ok {
		delete(s, rowID)
		if len(s) == 0 {
			delete(t.refIndex[col], refID)
		}
	}
}

func (t *table) indexSecondary(col string, v any, rowID int64) {
	m := t.secondary[col]
	ids := m[v]
	if i, found := slices.BinarySearch(ids, rowID); !found {
		m[v] = slices.Insert(ids, i, rowID)
	}
}

func (t *table) unindexSecondary(col string, v any, rowID int64) {
	ids := t.secondary[col][v]
	if i, found := slices.BinarySearch(ids, rowID); found {
		ids = slices.Delete(ids, i, i+1)
		if len(ids) == 0 {
			delete(t.secondary[col], v)
		} else {
			t.secondary[col][v] = ids
		}
	}
}

// DB is an in-memory relational database. One DB is a single "MySQL
// server"; replication across servers is provided by Replica.
//
// Writes serialize on mu (a transaction holds it from Begin to Commit,
// matching §4.3.2's no-partial-state guarantee) and go to the spare of the
// two table sets. Reads never take mu: they run against the published set
// — see epoch.go — which no writer touches, so read throughput is
// unaffected by open write transactions.
type DB struct {
	mu     sync.RWMutex
	seq    uint64
	txSeq  uint64 // transaction counter; stamps LogEntry.TxID groups
	closed bool
	// name identifies this server in errors and logs (e.g. "master.ash1").
	name string

	// binlogMu guards binlog separately from mu so followers can read the
	// log without blocking behind an open write transaction; committers
	// append under it (whole tx groups at a time, keeping every prefix
	// transaction-consistent) and then publish the new sequence to
	// committed.
	binlogMu  sync.RWMutex
	binlog    []LogEntry
	committed atomic.Uint64 // last binlog seq visible to readers
	downFlag  atomic.Bool   // lock-free mirror of closed for the read path

	// The two table sets: epochPtr is the published one readers pin; spare
	// is the other of the left-right pair, written by whoever holds mu and
	// swapped in by publish.
	epochPtr atomic.Pointer[epoch]
	spare    *epoch

	// reg is the registry the server counts into, from construction on;
	// its replicas report there too.
	reg        *telemetry.Registry
	mCommits   *telemetry.Counter
	mRollbacks *telemetry.Counter
}

// NewDB creates an empty database server with the given name, counting
// its transactions and exporting its binlog sequence on reg (nil counts
// nothing), all labeled with the server name.
func NewDB(name string, reg *telemetry.Registry) *DB {
	db := newDB(name, reg)
	db.exportSeq()
	return db
}

// newDB is a server with its transaction counters bound; a replica's
// exports its binlog sequence once promoted (Replica.Promote).
func newDB(name string, reg *telemetry.Registry) *DB {
	reg.Help("robotron_relstore_tx_commits_total", "write transactions committed, per server")
	reg.Help("robotron_relstore_tx_rollbacks_total", "write transactions rolled back, per server")
	server := telemetry.Label{Key: "server", Value: name}
	db := &DB{
		name:       name,
		reg:        reg,
		mCommits:   reg.Counter("robotron_relstore_tx_commits_total", server),
		mRollbacks: reg.Counter("robotron_relstore_tx_rollbacks_total", server),
	}
	db.epochPtr.Store(&epoch{tables: make(map[string]*table)})
	db.spare = &epoch{tables: make(map[string]*table)}
	return db
}

// exportSeq registers the server's binlog sequence gauge.
func (db *DB) exportSeq() {
	db.reg.Help("robotron_relstore_binlog_seq", "last binlog sequence committed, per server")
	db.reg.GaugeFunc("robotron_relstore_binlog_seq", func() float64 { return float64(db.Seq()) },
		telemetry.Label{Key: "server", Value: db.name})
}

// Name returns the server name.
func (db *DB) Name() string { return db.name }

// Telemetry returns the registry the server counts into (nil when it
// counts nothing). Stores over the server count there too.
func (db *DB) Telemetry() *telemetry.Registry { return db.reg }

// CreateTable registers a new table. Schema changes are recorded in the
// binlog so replicas converge.
func (db *DB) CreateTable(def TableDef) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return fmt.Errorf("relstore: %s is down", db.name)
	}
	tables := db.writeSet()
	if _, dup := tables[def.Name]; dup {
		return fmt.Errorf("relstore: table %q already exists", def.Name)
	}
	if err := validateDef(&def, tables); err != nil {
		return err
	}
	db.seq++
	db.txSeq++
	addTable(tables, def).seq = db.seq
	db.publish(LogEntry{Seq: db.seq, TxID: db.txSeq, Op: OpCreateTable, Table: def.Name, Def: &def})
	return nil
}

// AlterAddColumn adds a column to an existing table; live schema change
// is how FBNet models grow new attributes over time ("new attributes are
// constantly added to existing models as needed"). The column must be
// nullable: existing rows read it as NULL. Replicated through the binlog.
func (db *DB) AlterAddColumn(tableName string, col Column) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return fmt.Errorf("relstore: %s is down", db.name)
	}
	t, ok := db.writeSet()[tableName]
	if !ok {
		return fmt.Errorf("relstore: no such table %q", tableName)
	}
	if err := t.addColumn(col); err != nil {
		return err
	}
	db.seq++
	db.txSeq++
	t.seq = db.seq
	db.publish(LogEntry{Seq: db.seq, TxID: db.txSeq, Op: OpAlterAddColumn, Table: tableName, Col: &col})
	return nil
}

// addColumn validates and applies a column addition on one table.
func (t *table) addColumn(col Column) error {
	if col.Name == "" || col.Name == "id" {
		return fmt.Errorf("relstore: invalid new column name %q", col.Name)
	}
	if _, dup := t.def.column(col.Name); dup {
		return fmt.Errorf("relstore: table %s already has column %q", t.def.Name, col.Name)
	}
	if !col.Nullable {
		return fmt.Errorf("relstore: new column %s.%s must be nullable (existing rows have no value)", t.def.Name, col.Name)
	}
	t.def.Columns = append(t.def.Columns, col)
	if col.Unique {
		t.unique[col.Name] = make(map[any]int64)
	}
	if col.Indexed {
		// Existing rows read the new column as NULL, which is never
		// indexed, so the fresh empty index is already consistent.
		t.secondary[col.Name] = make(map[any][]int64)
	}
	return nil
}

// Tables returns the registered table names.
func (db *DB) Tables() []string {
	e := db.readEpoch()
	defer e.release()
	names := make([]string, 0, len(e.tables))
	for n := range e.tables {
		names = append(names, n)
	}
	return names
}

// Def returns a copy of a table's definition.
func (db *DB) Def(tableName string) (TableDef, error) {
	e := db.readEpoch()
	defer e.release()
	t, ok := e.tables[tableName]
	if !ok {
		return TableDef{}, fmt.Errorf("relstore: no such table %q", tableName)
	}
	return t.def, nil
}

// tableIn returns the named table of a table set.
func tableIn(tables map[string]*table, name string) (*table, error) {
	t, ok := tables[name]
	if !ok {
		return nil, fmt.Errorf("relstore: no such table %q", name)
	}
	return t, nil
}

// get returns one row; its Values are the stored map, which no one may
// write.
func (t *table) get(id int64) (Row, error) {
	vals, ok := t.rows[id]
	if !ok {
		return Row{}, fmt.Errorf("relstore: %s: id %d: %w", t.def.Name, id, ErrNoRow)
	}
	return Row{ID: id, Values: vals}, nil
}

// scan returns the rows matching pred (nil matches all) in ascending id
// order; their Values are the stored maps.
func (t *table) scan(pred func(Row) bool) []Row {
	var out []Row
	if pred == nil && len(t.rows) > 0 {
		out = make([]Row, 0, len(t.rows))
	}
	for _, id := range sortedIDs(t.rows) {
		if r := (Row{ID: id, Values: t.rows[id]}); pred == nil || pred(r) {
			out = append(out, r)
		}
	}
	return out
}

// Count returns the number of rows in a table.
func (db *DB) Count(tableName string) (int, error) {
	e := db.readEpoch()
	defer e.release()
	t, ok := e.tables[tableName]
	if !ok {
		return 0, fmt.Errorf("relstore: no such table %q", tableName)
	}
	return len(t.rows), nil
}

// LookupUnique finds a row id by a unique column value; ok is false when
// no row has that value.
func (db *DB) LookupUnique(tableName, col string, v any) (int64, bool, error) {
	e := db.readEpoch()
	defer e.release()
	return e.view().LookupUnique(tableName, col, v)
}

func (t *table) lookupUnique(col string, v any) (int64, bool, error) {
	idx, ok := t.unique[col]
	if !ok {
		return 0, false, fmt.Errorf("relstore: %s.%s is not a unique column", t.def.Name, col)
	}
	id, found := idx[normIndexValue(v)]
	return id, found, nil
}

// normIndexValue widens integer index keys to int64, matching how
// checkValue normalizes stored values. Other types are looked up as-is so
// index lookups agree exactly with scan-and-compare semantics.
func normIndexValue(v any) any {
	switch n := v.(type) {
	case int:
		return int64(n)
	case int32:
		return int64(n)
	}
	return v
}

// LookupIndexed returns the ids of rows whose Indexed (non-unique) column
// equals v, in ascending id order.
func (db *DB) LookupIndexed(tableName, col string, v any) ([]int64, error) {
	e := db.readEpoch()
	defer e.release()
	return e.view().LookupIndexed(tableName, col, v)
}

func (t *table) lookupIndexed(col string, v any) ([]int64, error) {
	idx, ok := t.secondary[col]
	if !ok {
		return nil, fmt.Errorf("relstore: %s.%s is not an indexed column", t.def.Name, col)
	}
	// The index keeps ids sorted; hand out a copy (the slice is edited in
	// place once this set is the spare again).
	return slices.Clone(idx[normIndexValue(v)]), nil
}

// Referencing returns the ids of rows in tableName whose fkCol references
// refID. Used by the object layer to follow reverse relationships.
func (db *DB) Referencing(tableName, fkCol string, refID int64) ([]int64, error) {
	e := db.readEpoch()
	defer e.release()
	return e.view().Referencing(tableName, fkCol, refID)
}

func (t *table) referencing(fkCol string, refID int64) ([]int64, error) {
	idx, ok := t.refIndex[fkCol]
	if !ok {
		return nil, fmt.Errorf("relstore: %s.%s is not a foreign key", t.def.Name, fkCol)
	}
	set := idx[refID]
	ids := make([]int64, 0, len(set))
	for id := range set {
		ids = append(ids, id)
	}
	sortInt64s(ids)
	return ids, nil
}

func sortInt64s(xs []int64) {
	slices.Sort(xs)
}

// SetDown simulates a server failure (health checks fail, all operations
// error) or recovery. Used by the service layer's failover tests.
func (db *DB) SetDown(down bool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.closed = down
	db.downFlag.Store(down)
}

// Healthy reports whether the server responds to health checks.
func (db *DB) Healthy() bool {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return !db.closed
}

// Seq returns the current binlog sequence number (the committed
// watermark — uncommitted transaction entries are not yet sequenced).
func (db *DB) Seq() uint64 {
	return db.committed.Load()
}

// ReadSeq returns the binlog sequence the lock-free read path reflects. It
// trails Seq between a commit's log append and its epoch publish, so a
// follower that also reads rows follows the log only this far: what it
// reads next is then at least as new as what it has followed.
func (db *DB) ReadSeq() uint64 {
	e := db.readEpoch()
	defer e.release()
	return e.seq
}

// EntriesSince returns the binlog entries with Seq > after, for followers
// (replicas, the spare table set, the verify model) that tail the log from
// their own cursor. The result is the log's own suffix, not a copy: the
// binlog is append-only and entries are immutable once appended, so
// reading it after binlogMu is released races only with writes past its
// length, and it is capped so an append through it cannot reach the log.
func (db *DB) EntriesSince(after uint64) []LogEntry {
	db.binlogMu.RLock()
	log := db.binlog
	db.binlogMu.RUnlock()
	if len(log) == 0 {
		return nil
	}
	// Binlog seqs are dense and ascending; index directly.
	first := log[0].Seq
	if after < first-1 {
		after = first - 1
	}
	idx := int(after - (first - 1))
	if idx >= len(log) {
		return nil
	}
	return log[idx:len(log):len(log)]
}
