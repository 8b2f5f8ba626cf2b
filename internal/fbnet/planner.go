package fbnet

import (
	"errors"
	"slices"
	"strings"

	"github.com/robotron-net/robotron/internal/relstore"
)

// The query planner. FBNet queries default to a full table scan with the
// predicate evaluated per row; at production scale the hot read paths —
// FindOne(name), "every linecard of device X", "all drained devices" —
// must instead be answered from indexes. The planner recognizes the
// indexable shapes below and returns an exact candidate row set; the
// caller re-evaluates the full query against those rows, so a planner
// strategy must never omit a matching row but may include extras.
//
// Index hierarchy, in the order strategies are tried:
//
//	id literal      Eq/In("id", ...)            direct primary-key gets
//	unique index    Eq/In on a Unique field     relstore's unique map
//	secondary index Eq/In on an Indexed field   relstore's value→id-set map
//	ref index       Eq/In on a relation field   relstore's fk refIndex
//	path backward   Eq("a.b.c", v)              resolve leaf ids, then walk
//	                                            the path backward through
//	                                            ref indexes
//	full scan       everything else
//
// And-composed queries plan on their first plannable conjunct. An Or plans
// only when every branch does, as the union of the branches' candidates in
// id order; an Or with a branch that would scan scans once instead.

// planIndexed attempts to answer q from indexes. ok=false means "not
// plannable, fall back to the scan"; ok=true with an error means the
// lookup itself failed.
func planIndexed(reg *Registry, r relstore.View, model string, q Query) ([]relstore.Row, bool, error) {
	ids, ok, err := planIDs(reg, r, model, q)
	if !ok || err != nil {
		return nil, ok, err
	}
	rows, err := fetchRows(r, model, ids)
	return rows, true, err
}

// planIDs returns the candidate ids of q's rows, ascending, when an index
// answers q; ok and the error as planIndexed's.
func planIDs(reg *Registry, r relstore.View, model string, q Query) ([]int64, bool, error) {
	switch e := q.(type) {
	case *cmpExpr:
		switch e.op {
		case opEq, opIn:
		default:
			return nil, false, nil
		}
		if e.op == opEq && len(e.rvals) != 1 {
			return nil, false, nil
		}
		if strings.Contains(e.field, ".") {
			if e.op != opEq {
				return nil, false, nil
			}
			return planPathEq(reg, r, model, e.field, e.rvals[0])
		}
		return planLeafIDs(reg, r, model, e.field, e.rvals)
	case *andExpr:
		// Plan on the first plannable conjunct; the caller still evaluates
		// the full query against the narrowed row set.
		for _, sub := range e.subs {
			if ids, ok, err := planIDs(reg, r, model, sub); ok || err != nil {
				return ids, ok, err
			}
		}
	case *orExpr:
		// Every branch must plan: one that would scan makes the union a
		// scan anyway.
		var ids []int64
		for _, sub := range e.subs {
			got, ok, err := planIDs(reg, r, model, sub)
			if !ok || err != nil {
				return nil, false, err
			}
			ids = append(ids, got...)
		}
		return dedupIDs(ids), true, nil
	}
	return nil, false, nil
}

// planLeafIDs resolves the ids of model rows whose local field equals any
// of rvals, using the best available index. ok=false means the field has
// no usable index.
func planLeafIDs(reg *Registry, r relstore.View, model, field string, rvals []any) ([]int64, bool, error) {
	if field == "id" {
		var ids []int64
		for _, rv := range rvals {
			// Non-integer rvalues can never equal an id; skip them — the
			// scan would find no match either.
			if id, isInt := normInt(rv); isInt {
				ids = append(ids, id)
			}
		}
		return dedupIDs(ids), true, nil
	}
	m, ok := reg.Model(model)
	if !ok {
		return nil, false, nil
	}
	f, ok := m.Field(field)
	if !ok {
		return nil, false, nil
	}
	switch {
	case f.Kind == ValueField && f.Unique:
		var ids []int64
		for _, rv := range rvals {
			id, found, err := r.LookupUnique(model, field, rv)
			if err != nil {
				return nil, false, nil // registry/schema mismatch: scan instead
			}
			if found {
				ids = append(ids, id)
			}
		}
		return dedupIDs(ids), true, nil
	case f.Kind == ValueField && f.Indexed:
		var ids []int64
		for _, rv := range rvals {
			got, err := r.LookupIndexed(model, field, rv)
			if err != nil {
				return nil, false, nil // registry/schema mismatch: scan instead
			}
			ids = append(ids, got...)
		}
		return dedupIDs(ids), true, nil
	case f.Kind == RelationField:
		// Eq("site", id): rows whose fk references id — exactly the fk
		// refIndex relstore already maintains for referential actions.
		var ids []int64
		for _, rv := range rvals {
			id, isInt := normInt(rv)
			if !isInt {
				continue // non-integer never matches a reference id
			}
			got, err := r.Referencing(model, field, id)
			if err != nil {
				return nil, false, nil
			}
			ids = append(ids, got...)
		}
		return dedupIDs(ids), true, nil
	}
	return nil, false, nil
}

// pathStep is one relationship hop of a dotted query path, recorded while
// walking forward so the planner can invert it walking backward.
type pathStep struct {
	model string // model the hop starts from
	field string // relation field on model (forward hop), or on srcModel (reverse hop)
	// reverse hops: the hop traverses a reverse connection into srcModel,
	// whose field references model.
	reverse  bool
	srcModel string
}

// planPathEq plans Eq("a.b.c", v): resolve the target object ids on the
// final model, then walk the relationship hops backward — each forward
// relation inverts to a refIndex lookup, each reverse connection inverts
// to reading the source rows' fk — until the ids are rows of the query's
// own model. Every hop is index- or point-lookup-backed, so the whole
// plan is O(result) instead of O(table × path length).
func planPathEq(reg *Registry, r relstore.View, model, path string, rval any) ([]int64, bool, error) {
	parts := strings.Split(path, ".")
	// Forward pass: classify each hop, stopping before the leaf part.
	steps := make([]pathStep, 0, len(parts)-1)
	cur := model
	for _, part := range parts[:len(parts)-1] {
		m, ok := reg.Model(cur)
		if !ok {
			return nil, false, nil
		}
		if f, ok := m.Field(part); ok && f.Kind == RelationField {
			steps = append(steps, pathStep{model: cur, field: part})
			cur = f.Target
			continue
		}
		rv, ok := findReverse(reg, cur, part)
		if !ok {
			// Value/computed field mid-path or unknown part: let the scan
			// surface the same error the match pass would.
			return nil, false, nil
		}
		steps = append(steps, pathStep{model: cur, reverse: true, srcModel: rv.model, field: rv.field})
		cur = rv.model
	}
	// Resolve the leaf: ids of cur-model rows the final part selects.
	leaf := parts[len(parts)-1]
	var ids []int64
	m, ok := reg.Model(cur)
	if !ok {
		return nil, false, nil
	}
	if f, ok := m.Field(leaf); ok && f.Kind == RelationField {
		// Leaf relation resolves to the referenced id, so rows matching are
		// those whose fk equals rval.
		id, isInt := normInt(rval)
		if !isInt {
			ids = nil
		} else {
			got, err := r.Referencing(cur, leaf, id)
			if err != nil {
				return nil, false, nil
			}
			ids = got
		}
	} else {
		var ok bool
		var err error
		ids, ok, err = planLeafIDs(reg, r, cur, leaf, []any{rval})
		if !ok || err != nil {
			return nil, false, err
		}
	}
	// Backward pass: invert each hop, most recent first.
	for i := len(steps) - 1; i >= 0; i-- {
		st := steps[i]
		var prev []int64
		if st.reverse {
			// Forward went model --(reverse conn)--> srcModel rows whose
			// field references the model row. Backward: each srcModel row's
			// fk value is the model row that reaches it.
			for _, id := range ids {
				row, err := r.Get(st.srcModel, id)
				if errors.Is(err, relstore.ErrNoRow) {
					continue
				}
				if err != nil {
					return nil, false, err
				}
				if v := row.Get(st.field); v != nil {
					prev = append(prev, v.(int64))
				}
			}
		} else {
			// Forward followed model.field → target. Backward: model rows
			// whose fk is any of the target ids, via the refIndex.
			for _, id := range ids {
				got, err := r.Referencing(st.model, st.field, id)
				if err != nil {
					return nil, false, nil
				}
				prev = append(prev, got...)
			}
		}
		ids = dedupIDs(prev)
		if len(ids) == 0 {
			return nil, true, nil
		}
	}
	return dedupIDs(ids), true, nil
}

// findReverse looks up a reverse connection by its exposed name.
func findReverse(reg *Registry, model, name string) (reverse, bool) {
	for _, rv := range reg.Reverses(model) {
		if rv.name == name {
			return rv, true
		}
	}
	return reverse{}, false
}

// fetchRows point-gets each id, skipping ids that vanished between the
// index lookup and the get.
func fetchRows(r relstore.View, model string, ids []int64) ([]relstore.Row, error) {
	rows := make([]relstore.Row, 0, len(ids))
	for _, id := range ids {
		row, err := r.Get(model, id)
		if errors.Is(err, relstore.ErrNoRow) {
			continue
		}
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// dedupIDs sorts ids ascending and removes duplicates, preserving the
// scan's id-ordered result contract.
func dedupIDs(ids []int64) []int64 {
	slices.Sort(ids)
	return slices.Compact(ids)
}
