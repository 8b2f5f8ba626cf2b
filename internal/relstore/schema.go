// Package relstore is an in-memory relational storage engine.
//
// FBNet's persistent object store is implemented on MySQL with one table
// per model, foreign keys for relationship fields, and asynchronous
// master/slave replication (SIGCOMM '16, §4.3). relstore reproduces the
// properties FBNet depends on without an external database: typed tables
// with columns and foreign keys, uniqueness constraints, transactions with
// rollback, referential actions (RESTRICT / CASCADE / SET NULL), a binlog,
// and asynchronous replicas that can be promoted to master on failure.
//
// Concurrency model: a DB is safe for concurrent use; writes go through
// transactions which hold the write lock for their duration (single-writer,
// like a table-locked MySQL), reads pin the published table set without a
// lock and return copies, or the shared rows themselves through a View.
package relstore

import (
	"fmt"
	"sort"
)

// ColType is the storage type of a column.
type ColType int

const (
	ColString ColType = iota
	ColInt
	ColBool
	ColFloat
)

func (t ColType) String() string {
	switch t {
	case ColString:
		return "string"
	case ColInt:
		return "int"
	case ColBool:
		return "bool"
	case ColFloat:
		return "float"
	}
	return "unknown"
}

// FKAction is the referential action applied to referencing rows when a
// referenced row is deleted.
type FKAction int

const (
	Restrict FKAction = iota // refuse to delete while references exist
	Cascade                  // delete referencing rows too
	SetNull                  // null out the referencing column
)

func (a FKAction) String() string {
	switch a {
	case Restrict:
		return "RESTRICT"
	case Cascade:
		return "CASCADE"
	case SetNull:
		return "SET NULL"
	}
	return "unknown"
}

// Column describes one table column. Every table implicitly has an "id"
// primary key column of type int.
type Column struct {
	Name     string
	Type     ColType
	Nullable bool
	Unique   bool
	// Indexed declares a non-unique secondary index on the column: a
	// value → id-set map maintained under transactional insert, update,
	// delete, rollback, and binlog replication. Point lookups on indexed
	// columns (LookupIndexed) are O(matches) instead of O(table).
	Indexed bool
	// Validate, if set, is called with each non-nil candidate value before
	// insert/update (FBNet uses this for per-field validation such as
	// V6PrefixField, Fig. 6).
	Validate func(v any) error
}

// ForeignKey declares that a column references another table's id.
type ForeignKey struct {
	Column   string
	RefTable string
	OnDelete FKAction
}

// TableDef is the schema of one table.
type TableDef struct {
	Name        string
	Columns     []Column
	ForeignKeys []ForeignKey
}

func (d *TableDef) column(name string) (*Column, bool) {
	for i := range d.Columns {
		if d.Columns[i].Name == name {
			return &d.Columns[i], true
		}
	}
	return nil, false
}

func (d *TableDef) foreignKey(col string) (*ForeignKey, bool) {
	for i := range d.ForeignKeys {
		if d.ForeignKeys[i].Column == col {
			return &d.ForeignKeys[i], true
		}
	}
	return nil, false
}

// validateDef checks internal consistency of a table definition against
// the already-registered tables (self-references are allowed).
func validateDef(def *TableDef, existing map[string]*table) error {
	if def.Name == "" {
		return fmt.Errorf("relstore: table name must not be empty")
	}
	seen := map[string]bool{"id": true}
	for _, c := range def.Columns {
		if c.Name == "" {
			return fmt.Errorf("relstore: table %s: empty column name", def.Name)
		}
		if seen[c.Name] {
			return fmt.Errorf("relstore: table %s: duplicate column %q", def.Name, c.Name)
		}
		seen[c.Name] = true
	}
	for _, fk := range def.ForeignKeys {
		col, ok := def.column(fk.Column)
		if !ok {
			return fmt.Errorf("relstore: table %s: foreign key on unknown column %q", def.Name, fk.Column)
		}
		if col.Type != ColInt {
			return fmt.Errorf("relstore: table %s: foreign key column %q must be int, is %s", def.Name, fk.Column, col.Type)
		}
		if fk.RefTable != def.Name {
			if _, ok := existing[fk.RefTable]; !ok {
				return fmt.Errorf("relstore: table %s: foreign key references unknown table %q", def.Name, fk.RefTable)
			}
		}
		if fk.OnDelete == SetNull && !col.Nullable {
			return fmt.Errorf("relstore: table %s: SET NULL foreign key on non-nullable column %q", def.Name, fk.Column)
		}
	}
	return nil
}

// checkValue validates and normalizes a value for a column. Integers of
// any width normalize to int64; nil is accepted for nullable columns.
func checkValue(tname string, c *Column, v any) (any, error) {
	if v == nil {
		if !c.Nullable {
			return nil, fmt.Errorf("relstore: %s.%s: NULL not allowed", tname, c.Name)
		}
		return nil, nil
	}
	var norm any
	switch c.Type {
	case ColString:
		s, ok := v.(string)
		if !ok {
			return nil, fmt.Errorf("relstore: %s.%s: want string, got %T", tname, c.Name, v)
		}
		norm = s
	case ColInt:
		switch n := v.(type) {
		case int:
			norm = int64(n)
		case int32:
			norm = int64(n)
		case int64:
			norm = n
		default:
			return nil, fmt.Errorf("relstore: %s.%s: want int, got %T", tname, c.Name, v)
		}
	case ColBool:
		b, ok := v.(bool)
		if !ok {
			return nil, fmt.Errorf("relstore: %s.%s: want bool, got %T", tname, c.Name, v)
		}
		norm = b
	case ColFloat:
		switch f := v.(type) {
		case float32:
			norm = float64(f)
		case float64:
			norm = f
		default:
			return nil, fmt.Errorf("relstore: %s.%s: want float, got %T", tname, c.Name, v)
		}
	default:
		return nil, fmt.Errorf("relstore: %s.%s: unknown column type", tname, c.Name)
	}
	if c.Validate != nil {
		if err := c.Validate(norm); err != nil {
			return nil, fmt.Errorf("relstore: %s.%s: %w", tname, c.Name, err)
		}
	}
	return norm, nil
}

// Row is a snapshot of one table row: the primary key plus column values.
type Row struct {
	ID     int64
	Values map[string]any
}

// Get returns the value of a column (nil if NULL or absent).
func (r Row) Get(col string) any { return r.Values[col] }

// String returns the string value of a column, or "" when NULL.
func (r Row) String(col string) string {
	if s, ok := r.Values[col].(string); ok {
		return s
	}
	return ""
}

// Int returns the int64 value of a column, or 0 when NULL.
func (r Row) Int(col string) int64 {
	if n, ok := r.Values[col].(int64); ok {
		return n
	}
	return 0
}

// Bool returns the bool value of a column, or false when NULL.
func (r Row) Bool(col string) bool {
	if b, ok := r.Values[col].(bool); ok {
		return b
	}
	return false
}

// Float returns the float64 value of a column, or 0 when NULL.
func (r Row) Float(col string) float64 {
	if f, ok := r.Values[col].(float64); ok {
		return f
	}
	return 0
}

func copyValues(m map[string]any) map[string]any {
	out := make(map[string]any, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// sortedIDs returns the keys of a row map in ascending order, giving scans
// a deterministic order.
func sortedIDs[V any](m map[int64]V) []int64 {
	ids := make([]int64, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}
