package fbnet

import (
	"fmt"

	"github.com/robotron-net/robotron/internal/relstore"
	"github.com/robotron-net/robotron/internal/telemetry"
)

// Object is one FBNet object as it was read. Relation fields hold the id
// of the referenced object (0 meaning NULL). Its fields are the stored row
// itself, shared with the store and every other reader: a write never
// changes a stored row (it installs a new one), so an Object stays as it
// was read, and nothing outside this package can write it.
type Object struct {
	Model  string
	ID     int64
	fields map[string]any
}

// Value returns a field's value (nil when NULL or absent).
func (o Object) Value(field string) any { return o.fields[field] }

// String returns a string field's value ("" when NULL or absent).
func (o Object) String(field string) string {
	s, _ := o.fields[field].(string)
	return s
}

// Int returns an int field's value (0 when NULL or absent).
func (o Object) Int(field string) int64 {
	n, _ := o.fields[field].(int64)
	return n
}

// Bool returns a bool field's value.
func (o Object) Bool(field string) bool {
	b, _ := o.fields[field].(bool)
	return b
}

// Ref returns a relation field's target id (0 when NULL).
func (o Object) Ref(field string) int64 { return o.Int(field) }

// Store binds a model registry to a relstore database.
type Store struct {
	reg *Registry
	db  *relstore.DB
	// planned counts every planned query as answered from indexes or by
	// a full table scan, on the registry db counts into; views over
	// other servers (ReadOnlyView) and mutations share the counters.
	planned plannedCounters
}

type plannedCounters struct{ indexed, scanned *telemetry.Counter }

// Open creates (or verifies) one table per registered model on db and
// returns the store. Opening the same registry against a database that
// already has the tables (e.g. a promoted replica) is not an error. The
// store counts its planned queries
// (robotron_fbnet_queries_planned_total{strategy=...}) into the registry
// db counts into.
func Open(db *relstore.DB, reg *Registry) (*Store, error) {
	existing := make(map[string]bool)
	for _, t := range db.Tables() {
		existing[t] = true
	}
	for _, name := range reg.Models() {
		if existing[name] {
			continue
		}
		m, _ := reg.Model(name)
		def := relstore.TableDef{Name: name}
		for _, f := range m.Fields {
			switch f.Kind {
			case ValueField:
				def.Columns = append(def.Columns, relstore.Column{
					Name: f.Name, Type: f.Type, Nullable: f.Nullable,
					Unique: f.Unique, Indexed: f.Indexed, Validate: f.Validate,
				})
			case RelationField:
				def.Columns = append(def.Columns, relstore.Column{
					Name: f.Name, Type: relstore.ColInt, Nullable: f.Nullable,
				})
				def.ForeignKeys = append(def.ForeignKeys, relstore.ForeignKey{
					Column: f.Name, RefTable: f.Target, OnDelete: f.OnDelete,
				})
			}
		}
		if err := db.CreateTable(def); err != nil {
			return nil, fmt.Errorf("fbnet: creating table for model %s: %w", name, err)
		}
	}
	tel := db.Telemetry()
	tel.Help("robotron_fbnet_queries_planned_total", "read queries by planner strategy")
	return &Store{reg: reg, db: db, planned: plannedCounters{
		indexed: tel.Counter("robotron_fbnet_queries_planned_total", telemetry.Label{Key: "strategy", Value: "indexed"}),
		scanned: tel.Counter("robotron_fbnet_queries_planned_total", telemetry.Label{Key: "strategy", Value: "scan"}),
	}}, nil
}

// Registry returns the store's model registry.
func (s *Store) Registry() *Registry { return s.reg }

// DB returns the underlying database (used by the service layer for
// replication wiring).
func (s *Store) DB() *relstore.DB { return s.db }

// ReadOnlyView returns a Store over a different database (typically a
// replica) sharing this store's registry and planner counters.
func (s *Store) ReadOnlyView(db *relstore.DB) *Store {
	return &Store{reg: s.reg, db: db, planned: s.planned}
}

// AddField evolves a model in place with a new value field — the paper's
// most common model change ("new attributes are constantly added to
// existing models as needed", §6.1; drain_state itself arrived this way).
// The field must be nullable so existing objects read it as NULL; the
// underlying schema change replicates through the binlog like any write.
// Relationship fields cannot be added live (they require new foreign-key
// indexes); those changes ship as new models.
func (s *Store) AddField(model string, f Field) error {
	m, ok := s.reg.Model(model)
	if !ok {
		return fmt.Errorf("fbnet: unknown model %q", model)
	}
	if f.Kind != ValueField {
		return fmt.Errorf("fbnet: only value fields can be added to a live model; ship relationship changes as a new model")
	}
	if !f.Nullable {
		return fmt.Errorf("fbnet: new field %s.%s must be nullable (existing objects have no value)", model, f.Name)
	}
	if _, dup := m.Field(f.Name); dup {
		return fmt.Errorf("fbnet: model %s already has field %q", model, f.Name)
	}
	for _, rv := range s.reg.Reverses(model) {
		if rv.name == f.Name {
			return fmt.Errorf("fbnet: field %q collides with a reverse connection on %s", f.Name, model)
		}
	}
	if err := s.db.AlterAddColumn(model, relstore.Column{
		Name: f.Name, Type: f.Type, Nullable: true,
		Unique: f.Unique, Indexed: f.Indexed, Validate: f.Validate,
	}); err != nil {
		return err
	}
	m.Fields = append(m.Fields, f)
	return nil
}

// GetByID fetches one object in one pinned point read.
func (s *Store) GetByID(model string, id int64) (Object, error) {
	if _, ok := s.reg.Model(model); !ok {
		return Object{}, fmt.Errorf("fbnet: unknown model %q", model)
	}
	var row relstore.Row
	err := s.db.View(func(v relstore.View) (err error) {
		row, err = v.Get(model, id)
		return err
	})
	if err != nil {
		return Object{}, err
	}
	return Object{Model: model, ID: row.ID, fields: row.Values}, nil
}

// Count returns the number of objects of a model.
func (s *Store) Count(model string) (int, error) {
	return s.db.Count(model)
}

// Mutation is a transactional write scope over the object store: FBNet's
// write APIs are "wrapped in a single database transaction, and therefore
// no partial state is visible to other applications before the API call
// completes successfully" (§4.3.2). All reads within a Mutation observe
// its uncommitted changes, and read its rows in place
// (relstore.Tx.View): an Object read before a write of its row keeps the
// values it was read with.
type Mutation struct {
	store *Store
	tx    *relstore.Tx
	// changed records every touched object for design-change accounting
	// (§6.2, Fig. 15).
	created  []ObjectRef
	modified []ObjectRef
	deleted  []ObjectRef
}

// ObjectRef identifies one object touched by a mutation.
type ObjectRef struct {
	Model string
	ID    int64
}

// ChangeStats summarizes a mutation for design-change accounting.
type ChangeStats struct {
	Created  []ObjectRef
	Modified []ObjectRef
	Deleted  []ObjectRef
}

// Total returns the total number of changed objects.
func (c ChangeStats) Total() int {
	return len(c.Created) + len(c.Modified) + len(c.Deleted)
}

// ByModel returns changed-object counts keyed by model name.
func (c ChangeStats) ByModel() map[string]int {
	out := map[string]int{}
	for _, refs := range [][]ObjectRef{c.Created, c.Modified, c.Deleted} {
		for _, r := range refs {
			out[r.Model]++
		}
	}
	return out
}

// Stats snapshots the objects touched so far within the mutation,
// excluding the change-tracking models themselves (DesignChange,
// DesignChangeEntry), so a design change can record its own size
// atomically (§5.1.3, §6.2).
func (m *Mutation) Stats() ChangeStats {
	filter := func(refs []ObjectRef) []ObjectRef {
		var out []ObjectRef
		for _, r := range refs {
			if r.Model == "DesignChange" || r.Model == "DesignChangeEntry" {
				continue
			}
			out = append(out, r)
		}
		return out
	}
	return ChangeStats{
		Created:  filter(m.created),
		Modified: filter(m.modified),
		Deleted:  filter(m.deleted),
	}
}

// Mutate runs fn in a transaction. On error the transaction rolls back and
// no partial state is visible. On success it returns statistics about the
// objects changed.
func (s *Store) Mutate(fn func(*Mutation) error) (ChangeStats, error) {
	tx, err := s.db.Begin()
	if err != nil {
		return ChangeStats{}, err
	}
	m := &Mutation{store: s, tx: tx}
	if err := fn(m); err != nil {
		tx.Rollback()
		return ChangeStats{}, err
	}
	if err := tx.Commit(); err != nil {
		return ChangeStats{}, err
	}
	return ChangeStats{Created: m.created, Modified: m.modified, Deleted: m.deleted}, nil
}

// Create inserts a new object and returns its id.
func (m *Mutation) Create(model string, fields map[string]any) (int64, error) {
	if _, ok := m.store.reg.Model(model); !ok {
		return 0, fmt.Errorf("fbnet: unknown model %q", model)
	}
	id, err := m.tx.Insert(model, fields)
	if err != nil {
		return 0, err
	}
	m.created = append(m.created, ObjectRef{Model: model, ID: id})
	return id, nil
}

// Update changes fields of an existing object.
func (m *Mutation) Update(model string, id int64, fields map[string]any) error {
	if _, ok := m.store.reg.Model(model); !ok {
		return fmt.Errorf("fbnet: unknown model %q", model)
	}
	if err := m.tx.Update(model, id, fields); err != nil {
		return err
	}
	m.modified = append(m.modified, ObjectRef{Model: model, ID: id})
	return nil
}

// Delete removes an object. Referential actions apply: dependent objects
// are cascaded or disassociated per the model's relationship declarations,
// the mechanism behind the paper's "delete router" design tool (§5.1.2).
func (m *Mutation) Delete(model string, id int64) error {
	if _, ok := m.store.reg.Model(model); !ok {
		return fmt.Errorf("fbnet: unknown model %q", model)
	}
	// Record cascades by comparing affected tables before/after.
	before := m.snapshotRefs(model, id)
	if err := m.tx.Delete(model, id); err != nil {
		return err
	}
	m.deleted = append(m.deleted, before...)
	return nil
}

// snapshotRefs lists the object plus everything that would be cascaded or
// modified by deleting it, for change accounting.
func (m *Mutation) snapshotRefs(model string, id int64) []ObjectRef {
	var out []ObjectRef
	seen := map[ObjectRef]bool{}
	var walk func(model string, id int64)
	walk = func(model string, id int64) {
		ref := ObjectRef{Model: model, ID: id}
		if seen[ref] {
			return
		}
		seen[ref] = true
		out = append(out, ref)
		for _, rv := range m.store.reg.Reverses(model) {
			srcModel, _ := m.store.reg.Model(rv.model)
			f, _ := srcModel.Field(rv.field)
			if f.OnDelete != relstore.Cascade {
				continue
			}
			ids, err := m.ReferencingIDs(rv.model, rv.field, id)
			if err != nil {
				continue
			}
			for _, rid := range ids {
				walk(rv.model, rid)
			}
		}
	}
	walk(model, id)
	return out
}

// Get fetches one object within the mutation (sees uncommitted changes).
func (m *Mutation) Get(model string, id int64) (Object, error) {
	v, err := m.tx.View()
	if err != nil {
		return Object{}, err
	}
	row, err := v.Get(model, id)
	if err != nil {
		return Object{}, err
	}
	return Object{Model: model, ID: row.ID, fields: row.Values}, nil
}

// Find returns objects of a model matching the query within the mutation.
func (m *Mutation) Find(model string, q Query) ([]Object, error) {
	v, err := m.tx.View()
	if err != nil {
		return nil, err
	}
	return find(m.store, v, model, q)
}

// FindOne returns exactly one matching object, erroring on zero or many.
func (m *Mutation) FindOne(model string, q Query) (Object, error) {
	objs, err := m.Find(model, q)
	return exactlyOne(model, q, objs, err)
}

// ReferencingIDs lists the ids of the objects of srcModel whose srcField
// references id, in ascending order, without fetching them.
func (m *Mutation) ReferencingIDs(srcModel, srcField string, id int64) ([]int64, error) {
	v, err := m.tx.View()
	if err != nil {
		return nil, err
	}
	return v.Referencing(srcModel, srcField, id)
}

// Referencing lists objects of srcModel whose srcField references id.
func (m *Mutation) Referencing(srcModel, srcField string, id int64) ([]Object, error) {
	ids, err := m.ReferencingIDs(srcModel, srcField, id)
	if err != nil {
		return nil, err
	}
	out := make([]Object, 0, len(ids))
	for _, rid := range ids {
		o, err := m.Get(srcModel, rid)
		if err != nil {
			return nil, err
		}
		out = append(out, o)
	}
	return out, nil
}
