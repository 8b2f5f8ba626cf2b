package fbnet

import (
	"fmt"
	"maps"
	"regexp"
	"strings"

	"github.com/robotron-net/robotron/internal/relstore"
)

// The read API (§4.2.1): get<ObjectType>(fields, query). Fields are value
// fields local to the object or reached through one or more relationship
// fields ("device.name" on a linecard); each relationship also exposes a
// reverse connection on the referenced model ("linecards" on a device).
// Queries are expression trees of <field> <op> <rvalue> terms composed
// with logical operators.

// Query is a predicate over objects of one model.
type Query interface {
	match(rs *resolver, model string, row relstore.Row) (bool, error)
	String() string
}

// --- comparison expressions ---

type cmpOp int

const (
	opEq cmpOp = iota
	opNe
	opLt
	opLe
	opGt
	opGe
	opIn
	opRegexp
	opContains
	opIsNull
)

var opNames = map[cmpOp]string{
	opEq: "EQUAL", opNe: "NOT_EQUAL", opLt: "LESS", opLe: "LESS_EQ",
	opGt: "GREATER", opGe: "GREATER_EQ", opIn: "IN", opRegexp: "REGEXP",
	opContains: "CONTAINS", opIsNull: "IS_NULL",
}

type cmpExpr struct {
	field  string
	op     cmpOp
	rvals  []any
	rex    *regexp.Regexp
	rexErr error
}

// Eq matches objects whose field equals v. The field may be a dotted path
// through relationship fields or reverse connections; multi-valued paths
// match if any reached value matches.
func Eq(field string, v any) Query { return &cmpExpr{field: field, op: opEq, rvals: []any{v}} }

// Ne matches objects whose field differs from v (NULL never matches).
func Ne(field string, v any) Query { return &cmpExpr{field: field, op: opNe, rvals: []any{v}} }

// Lt matches field < v.
func Lt(field string, v any) Query { return &cmpExpr{field: field, op: opLt, rvals: []any{v}} }

// Le matches field <= v.
func Le(field string, v any) Query { return &cmpExpr{field: field, op: opLe, rvals: []any{v}} }

// Gt matches field > v.
func Gt(field string, v any) Query { return &cmpExpr{field: field, op: opGt, rvals: []any{v}} }

// Ge matches field >= v.
func Ge(field string, v any) Query { return &cmpExpr{field: field, op: opGe, rvals: []any{v}} }

// In matches objects whose field equals any of vs.
func In(field string, vs ...any) Query { return &cmpExpr{field: field, op: opIn, rvals: vs} }

// Regexp matches string fields against an RE2 pattern.
func Regexp(field, pattern string) Query {
	rex, err := regexp.Compile(pattern)
	return &cmpExpr{field: field, op: opRegexp, rvals: []any{pattern}, rex: rex, rexErr: err}
}

// Contains matches string fields containing the substring v.
func Contains(field, v string) Query {
	return &cmpExpr{field: field, op: opContains, rvals: []any{v}}
}

// IsNull matches objects whose (nullable or relation) field is NULL.
func IsNull(field string) Query { return &cmpExpr{field: field, op: opIsNull} }

func (e *cmpExpr) String() string {
	return fmt.Sprintf("%s %s %v", e.field, opNames[e.op], e.rvals)
}

func (e *cmpExpr) match(rs *resolver, model string, row relstore.Row) (bool, error) {
	vals, err := rs.resolve(model, row, e.field)
	if err != nil {
		return false, err
	}
	if e.op == opIsNull {
		if len(vals) == 0 {
			return true, nil
		}
		for _, v := range vals {
			if v == nil {
				return true, nil
			}
		}
		return false, nil
	}
	for _, v := range vals {
		ok, err := e.matchOne(v)
		if err != nil {
			return false, err
		}
		if ok {
			return true, nil
		}
	}
	return false, nil
}

func (e *cmpExpr) matchOne(v any) (bool, error) {
	switch e.op {
	case opEq, opIn:
		for _, rv := range e.rvals {
			if valuesEqual(v, rv) {
				return true, nil
			}
		}
		return false, nil
	case opNe:
		if v == nil {
			return false, nil
		}
		return !valuesEqual(v, e.rvals[0]), nil
	case opLt, opLe, opGt, opGe:
		c, ok := compareValues(v, e.rvals[0])
		if !ok {
			return false, nil
		}
		switch e.op {
		case opLt:
			return c < 0, nil
		case opLe:
			return c <= 0, nil
		case opGt:
			return c > 0, nil
		default:
			return c >= 0, nil
		}
	case opRegexp:
		if e.rexErr != nil {
			return false, fmt.Errorf("fbnet: bad regexp %v: %w", e.rvals[0], e.rexErr)
		}
		s, ok := v.(string)
		return ok && e.rex.MatchString(s), nil
	case opContains:
		s, ok := v.(string)
		sub, _ := e.rvals[0].(string)
		return ok && strings.Contains(s, sub), nil
	}
	return false, fmt.Errorf("fbnet: unknown operator %d", e.op)
}

func valuesEqual(a, b any) bool {
	if na, ok := normInt(a); ok {
		nb, ok := normInt(b)
		return ok && na == nb
	}
	return a == b
}

func normInt(v any) (int64, bool) {
	switch n := v.(type) {
	case int:
		return int64(n), true
	case int32:
		return int64(n), true
	case int64:
		return n, true
	}
	return 0, false
}

func compareValues(a, b any) (int, bool) {
	if na, ok := normInt(a); ok {
		if nb, ok := normInt(b); ok {
			switch {
			case na < nb:
				return -1, true
			case na > nb:
				return 1, true
			}
			return 0, true
		}
		if fb, ok := b.(float64); ok {
			fa := float64(na)
			switch {
			case fa < fb:
				return -1, true
			case fa > fb:
				return 1, true
			}
			return 0, true
		}
		return 0, false
	}
	if fa, ok := a.(float64); ok {
		var fb float64
		switch n := b.(type) {
		case float64:
			fb = n
		case int:
			fb = float64(n)
		case int64:
			fb = float64(n)
		default:
			return 0, false
		}
		switch {
		case fa < fb:
			return -1, true
		case fa > fb:
			return 1, true
		}
		return 0, true
	}
	if sa, ok := a.(string); ok {
		sb, ok := b.(string)
		if !ok {
			return 0, false
		}
		return strings.Compare(sa, sb), true
	}
	return 0, false
}

// --- logical composition ---

type andExpr struct{ subs []Query }
type orExpr struct{ subs []Query }
type notExpr struct{ sub Query }

// And matches when all sub-queries match (vacuously true when empty).
func And(qs ...Query) Query { return &andExpr{subs: qs} }

// Or matches when any sub-query matches.
func Or(qs ...Query) Query { return &orExpr{subs: qs} }

// Not inverts a query.
func Not(q Query) Query { return &notExpr{sub: q} }

// All matches every object.
func All() Query { return &andExpr{} }

func (e *andExpr) String() string {
	if len(e.subs) == 0 {
		return "ALL"
	}
	parts := make([]string, len(e.subs))
	for i, s := range e.subs {
		parts[i] = s.String()
	}
	return "(" + strings.Join(parts, " AND ") + ")"
}

func (e *orExpr) String() string {
	parts := make([]string, len(e.subs))
	for i, s := range e.subs {
		parts[i] = s.String()
	}
	return "(" + strings.Join(parts, " OR ") + ")"
}

func (e *notExpr) String() string { return "NOT " + e.sub.String() }

func (e *andExpr) match(rs *resolver, model string, row relstore.Row) (bool, error) {
	for _, s := range e.subs {
		ok, err := s.match(rs, model, row)
		if err != nil || !ok {
			return false, err
		}
	}
	return true, nil
}

func (e *orExpr) match(rs *resolver, model string, row relstore.Row) (bool, error) {
	for _, s := range e.subs {
		ok, err := s.match(rs, model, row)
		if err != nil {
			return false, err
		}
		if ok {
			return true, nil
		}
	}
	return false, nil
}

func (e *notExpr) match(rs *resolver, model string, row relstore.Row) (bool, error) {
	ok, err := e.sub.match(rs, model, row)
	return !ok, err
}

// --- path resolution ---

// reader abstracts row access so queries run both against the store (one
// pinned epoch) and inside mutations (Tx).
type reader interface {
	get(table string, id int64) (relstore.Row, error)
	selectAll(table string) ([]relstore.Row, error)
	referencing(table, col string, id int64) ([]int64, error)
	lookupUnique(table, col string, v any) (int64, bool, error)
	lookupIndexed(table, col string, v any) ([]int64, error)
}

// viewReader reads one pinned epoch, so every row and index a query
// touches is of the same committed state; its rows are the stored maps.
type viewReader struct{ v relstore.View }

func (r viewReader) get(table string, id int64) (relstore.Row, error) { return r.v.Get(table, id) }
func (r viewReader) selectAll(table string) ([]relstore.Row, error)   { return r.v.Select(table, nil) }
func (r viewReader) referencing(table, col string, id int64) ([]int64, error) {
	return r.v.Referencing(table, col, id)
}
func (r viewReader) lookupUnique(table, col string, v any) (int64, bool, error) {
	return r.v.LookupUnique(table, col, v)
}
func (r viewReader) lookupIndexed(table, col string, v any) ([]int64, error) {
	return r.v.LookupIndexed(table, col, v)
}

type txReader struct{ tx *relstore.Tx }

func (r txReader) get(table string, id int64) (relstore.Row, error) { return r.tx.Get(table, id) }
func (r txReader) selectAll(table string) ([]relstore.Row, error)   { return r.tx.Select(table, nil) }
func (r txReader) referencing(table, col string, id int64) ([]int64, error) {
	return r.tx.Referencing(table, col, id)
}
func (r txReader) lookupUnique(table, col string, v any) (int64, bool, error) {
	return r.tx.LookupUnique(table, col, v)
}
func (r txReader) lookupIndexed(table, col string, v any) ([]int64, error) {
	return r.tx.LookupIndexed(table, col, v)
}

// planRows consults the query planner (planner.go): indexable queries are
// answered from the unique, secondary, and foreign-key indexes instead of
// scanning the table; everything else falls back to the full scan. The
// caller still evaluates the query against the planned rows, so a planner
// strategy only has to return a superset-free exact candidate set.
func planRows(reg *Registry, r reader, model string, q Query) ([]relstore.Row, error) {
	if rows, ok, err := planIndexed(reg, r, model, q); err != nil || ok {
		if err == nil {
			reg.mPlanIndexed.Inc()
		}
		return rows, err
	}
	reg.mPlanScanned.Inc()
	return r.selectAll(model)
}

// resolver evaluates dotted field paths against rows.
type resolver struct {
	reg *Registry
	r   reader
}

// resolve returns the values reached by following path from row. A path
// through a reverse connection may reach multiple values; a NULL relation
// yields no values for the remainder of the path.
func (rs *resolver) resolve(model string, row relstore.Row, path string) ([]any, error) {
	type cursor struct {
		model string
		row   relstore.Row
	}
	frontier := []cursor{{model: model, row: row}}
	for rest := path; ; {
		part, tail, more := strings.Cut(rest, ".")
		last := !more
		rest = tail
		var next []cursor
		var leaves []any
		for _, cur := range frontier {
			m, ok := rs.reg.Model(cur.model)
			if !ok {
				return nil, fmt.Errorf("fbnet: unknown model %q in path %q", cur.model, path)
			}
			if part == "id" {
				if !last {
					return nil, fmt.Errorf("fbnet: path %q continues past id", path)
				}
				leaves = append(leaves, cur.row.ID)
				continue
			}
			if f, ok := m.Field(part); ok {
				switch f.Kind {
				case ValueField:
					if !last {
						return nil, fmt.Errorf("fbnet: path %q traverses value field %q", path, part)
					}
					leaves = append(leaves, cur.row.Get(part))
				case RelationField:
					v := cur.row.Get(part)
					if v == nil {
						continue // NULL relation: contributes nothing
					}
					refRow, err := rs.r.get(f.Target, v.(int64))
					if err != nil {
						return nil, err
					}
					if last {
						leaves = append(leaves, refRow.ID)
					} else {
						next = append(next, cursor{model: f.Target, row: refRow})
					}
				}
				continue
			}
			// Computed (on-the-fly) field?
			if fn, ok := rs.reg.Computed(cur.model, part); ok {
				if !last {
					return nil, fmt.Errorf("fbnet: path %q traverses computed field %q", path, part)
				}
				leaves = append(leaves, fn(Object{Model: cur.model, ID: cur.row.ID, Fields: cur.row.Values}))
				continue
			}
			// Reverse connection?
			var found bool
			for _, rv := range rs.reg.Reverses(cur.model) {
				if rv.name != part {
					continue
				}
				found = true
				ids, err := rs.r.referencing(rv.model, rv.field, cur.row.ID)
				if err != nil {
					return nil, err
				}
				for _, rid := range ids {
					if last {
						leaves = append(leaves, rid)
						continue
					}
					refRow, err := rs.r.get(rv.model, rid)
					if err != nil {
						return nil, err
					}
					next = append(next, cursor{model: rv.model, row: refRow})
				}
				break
			}
			if !found {
				return nil, fmt.Errorf("fbnet: model %s has no field or reverse connection %q (path %q)", cur.model, part, path)
			}
		}
		if last {
			return leaves, nil
		}
		frontier = next
		if len(frontier) == 0 {
			return nil, nil
		}
	}
}

// Result is one row of a read-API response: the object id plus the
// requested fields keyed by their path.
type Result struct {
	ID     int64
	Fields map[string]any
}

// Get implements the paper's read API: it returns, for every object of
// the model matching q, the requested fields. A field may be "name"
// (local), "device.name" (through a relation), or "linecards.slot"
// (through a reverse connection; such multi-valued fields yield []any).
// The whole query reads one committed state.
func (s *Store) Get(model string, fields []string, q Query) ([]Result, error) {
	var out []Result
	err := s.db.View(func(v relstore.View) error {
		var err error
		out, err = get(s.reg, viewReader{v}, model, fields, q)
		return err
	})
	return out, err
}

// Find returns whole objects of a model matching q, in id order: Peek's
// answer, with each object's fields copied for the caller to keep.
func (s *Store) Find(model string, q Query) ([]Object, error) {
	objs, _, _, err := s.Peek(model, q)
	for i := range objs {
		objs[i].Fields = maps.Clone(objs[i].Fields)
	}
	return objs, err
}

// Peek is Find without the copies. Planning, fetching and matching read
// one pinned epoch, so the answer is one committed state: the one at
// binlog sequence seq, in which the model's table was last touched at
// tableSeq (TableSeq). The objects' Fields are the stored rows themselves,
// shared with the store and every other reader: they stay valid, and must
// never be written.
func (s *Store) Peek(model string, q Query) (objs []Object, seq, tableSeq uint64, err error) {
	err = s.db.View(func(v relstore.View) error {
		seq = v.Seq()
		if tableSeq, err = v.TableSeq(model); err != nil {
			return err
		}
		objs, err = find(s.reg, viewReader{v}, model, q)
		return err
	})
	return objs, seq, tableSeq, err
}

// TableSeq returns the binlog sequence of the last write to the model's
// table (relstore.View.TableSeq): while it stays put, so do the model's
// objects. Like every read, it fails while the server is down.
func (s *Store) TableSeq(model string) (seq uint64, err error) {
	err = s.db.View(func(v relstore.View) error {
		seq, err = v.TableSeq(model)
		return err
	})
	return seq, err
}

// FindOne returns exactly one matching object, erroring on zero or many.
func (s *Store) FindOne(model string, q Query) (Object, error) {
	objs, err := s.Find(model, q)
	if err != nil {
		return Object{}, err
	}
	switch len(objs) {
	case 0:
		return Object{}, fmt.Errorf("fbnet: no %s matches %s", model, q)
	case 1:
		return objs[0], nil
	default:
		return Object{}, fmt.Errorf("fbnet: %d %s objects match %s, want exactly 1", len(objs), model, q)
	}
}

func get(reg *Registry, r reader, model string, fields []string, q Query) ([]Result, error) {
	if _, ok := reg.Model(model); !ok {
		return nil, fmt.Errorf("fbnet: unknown model %q", model)
	}
	if q == nil {
		q = All()
	}
	rs := &resolver{reg: reg, r: r}
	rows, err := planRows(reg, r, model, q)
	if err != nil {
		return nil, err
	}
	var out []Result
	for _, row := range rows {
		ok, err := q.match(rs, model, row)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		res := Result{ID: row.ID, Fields: make(map[string]any, len(fields))}
		for _, f := range fields {
			vals, err := rs.resolve(model, row, f)
			if err != nil {
				return nil, err
			}
			if isMultiPath(reg, model, f) {
				res.Fields[f] = vals
			} else if len(vals) > 0 {
				res.Fields[f] = vals[0]
			} else {
				res.Fields[f] = nil
			}
		}
		out = append(out, res)
	}
	return out, nil
}

func find(reg *Registry, r reader, model string, q Query) ([]Object, error) {
	if _, ok := reg.Model(model); !ok {
		return nil, fmt.Errorf("fbnet: unknown model %q", model)
	}
	if q == nil {
		q = All()
	}
	rs := &resolver{reg: reg, r: r}
	rows, err := planRows(reg, r, model, q)
	if err != nil {
		return nil, err
	}
	out := make([]Object, 0, len(rows))
	for _, row := range rows {
		ok, err := q.match(rs, model, row)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, Object{Model: model, ID: row.ID, Fields: row.Values})
		}
	}
	if len(out) == 0 {
		return nil, nil
	}
	return out, nil
}

// isMultiPath reports whether a field path traverses any reverse
// connection (and therefore may yield several values per object).
func isMultiPath(reg *Registry, model string, path string) bool {
	parts := strings.Split(path, ".")
	cur := model
	for _, part := range parts {
		m, ok := reg.Model(cur)
		if !ok {
			return false
		}
		if part == "id" {
			return false
		}
		if f, ok := m.Field(part); ok {
			if f.Kind == ValueField {
				return false
			}
			cur = f.Target
			continue
		}
		for _, rv := range reg.Reverses(cur) {
			if rv.name == part {
				return true
			}
		}
		return false
	}
	return false
}
