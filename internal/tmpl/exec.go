package tmpl

import (
	"fmt"
	"reflect"
	"sort"
	"sync"
	"unicode/utf8"
)

// Template is a parsed, executable template.
type Template struct {
	name  string
	nodes []node
}

// Parse compiles template source. The name is used in error messages only.
// Templates using {% include %} need ParseWithLoader.
func Parse(name, src string) (*Template, error) {
	return ParseWithLoader(name, src, nil)
}

// ParseWithLoader compiles template source, resolving {% include 'path' %}
// tags through loader at parse time (static inlining). Robotron's vendor
// templates share common sections this way, all versioned in the config
// repository.
func ParseWithLoader(name, src string, loader Loader) (*Template, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	p := &parser{toks: toks, loader: loader, including: map[string]bool{name: true}}
	nodes, _, err := p.parse()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return &Template{name: name, nodes: nodes}, nil
}

// MustParse is Parse that panics on error, for statically known templates.
func MustParse(name, src string) *Template {
	t, err := Parse(name, src)
	if err != nil {
		panic(err)
	}
	return t
}

// Name returns the template's name.
func (t *Template) Name() string { return t.name }

// statePool recycles render states across executions. Fleet-wide config
// generation renders tens of thousands of templates back to back; reusing
// the scope stack and output buffer keeps the steady-state render path
// free of per-call allocations.
var statePool = sync.Pool{New: func() any { return &state{} }}

func getState(ctx any) *state {
	st := statePool.Get().(*state)
	st.root = wrap(ctx)
	return st
}

func putState(st *state) {
	// Drop references to caller data; keep the backing arrays.
	for i := range st.vars {
		st.vars[i] = scopeVar{}
	}
	st.vars = st.vars[:0]
	st.frame = 0
	st.loopDepth = 0 // loop records hold no caller data; keep them for reuse
	st.buf = st.buf[:0]
	st.root = value{}
	statePool.Put(st)
}

// Render renders the template against ctx (typically a map[string]any or
// a struct). It buffers into the pooled state's byte slice, so the only
// per-render allocation is the final string conversion.
func (t *Template) Render(ctx any) (string, error) {
	st := getState(ctx)
	defer putState(st)
	for _, n := range t.nodes {
		if err := n.render(st); err != nil {
			return "", fmt.Errorf("%s: %w", t.name, err)
		}
	}
	return string(st.buf), nil
}

// scopeVar is one binding on the flat scope stack.
type scopeVar struct {
	name string
	v    value
}

// state carries the rendering context through the node tree. Scopes are a
// flat stack of bindings (loop vars, with-bindings) delimited by frame
// marks rather than a slice of maps: pushing a scope is an integer save,
// binding is an append or in-place overwrite, and lookup is a short
// reverse scan — no map allocations anywhere on the render path.
type state struct {
	buf   []byte // output buffer
	vars  []scopeVar
	frame int // start of the innermost scope frame in vars
	root  value

	// loops is a depth-indexed freelist of forloop records: nested loops
	// use distinct records, sequential loops at the same depth reuse one.
	loops     []*loopState
	loopDepth int
}

// acquireLoop returns a loop record for one loop execution at the current
// nesting depth, allocating only the first time that depth is reached on
// this state.
func (st *state) acquireLoop(total int) *loopState {
	if st.loopDepth == len(st.loops) {
		st.loops = append(st.loops, new(loopState))
	}
	l := st.loops[st.loopDepth]
	st.loopDepth++
	l.counter0 = 0
	l.total = total
	return l
}

func (st *state) releaseLoop() { st.loopDepth-- }

// push opens a new scope frame and returns the previous frame mark.
func (st *state) push() int {
	old := st.frame
	st.frame = len(st.vars)
	return old
}

// pop closes the innermost frame, restoring the given previous mark.
func (st *state) pop(oldFrame int) {
	st.vars = st.vars[:st.frame]
	st.frame = oldFrame
}

// set binds name in the innermost frame, overwriting an existing binding
// in place (loops rebind the same names every iteration).
func (st *state) set(name string, v value) {
	for i := st.frame; i < len(st.vars); i++ {
		if st.vars[i].name == name {
			st.vars[i].v = v
			return
		}
	}
	st.vars = append(st.vars, scopeVar{name: name, v: v})
}

// lookup resolves the first path segment: innermost bindings first, then
// the root context. norm is the parse-time normalized form of name.
func (st *state) lookup(name, norm string) (value, bool) {
	for i := len(st.vars) - 1; i >= 0; i-- {
		if st.vars[i].name == name {
			return st.vars[i].v, true
		}
	}
	return st.root.attrNorm(name, norm)
}

func (st *state) writeString(s string) { st.buf = append(st.buf, s...) }

// writeValue emits a value the way {{ }} output does, formatting integers
// directly into the output buffer instead of through an intermediate
// string.
func (st *state) writeValue(v value) {
	switch v.kind {
	case kindNil:
	case kindString:
		st.writeString(v.s)
	case kindInt:
		st.buf = appendInt(st.buf, v.i)
	case kindBool:
		if v.b {
			st.writeString("True")
		} else {
			st.writeString("False")
		}
	default:
		st.writeString(v.str())
	}
}

func (n *textNode) render(st *state) error {
	st.writeString(n.text)
	return nil
}

func (n *varNode) render(st *state) error {
	v, err := n.expr.eval(st)
	if err != nil {
		return fmt.Errorf("line %d: %w", n.line, err)
	}
	st.writeValue(v)
	return nil
}

func (n *ifNode) render(st *state) error {
	for _, br := range n.branches {
		v, err := br.cond.eval(st)
		if err != nil {
			return err
		}
		if v.truthy() {
			return renderAll(st, br.body)
		}
	}
	return renderAll(st, n.elseBody)
}

func (n *forNode) render(st *state) error {
	iter, err := n.iter.eval(st)
	if err != nil {
		return fmt.Errorf("line %d: %w", n.line, err)
	}

	// Resolve the element count up front; empty iterables render the
	// {% empty %} branch without opening a scope.
	var total int
	var mapKeys []reflect.Value
	switch iter.kind {
	case kindNil:
		total = 0
	case kindList:
		total = iter.rv.Len()
	case kindMap:
		mapKeys = iter.rv.MapKeys()
		sort.Slice(mapKeys, func(i, j int) bool {
			return mapKeyString(mapKeys[i]) < mapKeyString(mapKeys[j])
		})
		total = len(mapKeys)
	case kindString:
		total = utf8.RuneCountInString(iter.s)
	default:
		return fmt.Errorf("line %d: cannot iterate over %s", n.line, iter.kindName())
	}
	if total == 0 {
		return renderAll(st, n.empty)
	}

	mark := st.push()
	defer st.pop(mark)
	// One mutable loop record per loop execution replaces the per-iteration
	// forloop map: counters advance in place and attribute reads on the
	// bound kindLoop value compute from it directly.
	loop := st.acquireLoop(total)
	defer st.releaseLoop()
	st.set("forloop", value{kind: kindLoop, loop: loop})

	switch iter.kind {
	case kindList:
		for i := 0; i < total; i++ {
			if err := n.iterOnce(st, loop, i, nilValue(), wrapReflect(iter.rv.Index(i))); err != nil {
				return err
			}
		}
	case kindMap:
		for i, k := range mapKeys {
			if err := n.iterOnce(st, loop, i, wrapReflect(k), wrapReflect(iter.rv.MapIndex(k))); err != nil {
				return err
			}
		}
	case kindString:
		i := 0
		for off, r := range iter.s {
			if err := n.iterOnce(st, loop, i, nilValue(), stringValue(iter.s[off:off+utf8.RuneLen(r)])); err != nil {
				return err
			}
			i++
		}
	}
	return nil
}

// iterOnce binds the loop variables for one iteration and renders the body.
func (n *forNode) iterOnce(st *state, loop *loopState, i int, key, item value) error {
	loop.counter0 = i
	if n.secondVar != "" {
		st.set(n.loopVar, key)
		st.set(n.secondVar, item)
	} else {
		st.set(n.loopVar, item)
	}
	return renderAll(st, n.body)
}

// mapKeyString is the sort key for map iteration order.
func mapKeyString(k reflect.Value) string {
	if k.Kind() == reflect.String {
		return k.String()
	}
	return wrapReflect(k).str()
}

// iterate expands an iterable value into a slice of element values; for
// maps it also returns the (sorted) keys so filters over maps are stable.
// The render loop iterates in place (forNode); this materialized form
// serves the sequence filters (join, first, last).
func iterate(v value) (items, keys []value, err error) {
	switch v.kind {
	case kindNil:
		return nil, nil, nil
	case kindList:
		for i := 0; i < v.rv.Len(); i++ {
			items = append(items, wrapReflect(v.rv.Index(i)))
		}
		return items, nil, nil
	case kindMap:
		mk := v.rv.MapKeys()
		sort.Slice(mk, func(i, j int) bool {
			return mapKeyString(mk[i]) < mapKeyString(mk[j])
		})
		for _, k := range mk {
			keys = append(keys, wrapReflect(k))
			items = append(items, wrapReflect(v.rv.MapIndex(k)))
		}
		return items, keys, nil
	case kindString:
		for _, r := range v.s {
			items = append(items, stringValue(string(r)))
		}
		return items, nil, nil
	}
	return nil, nil, fmt.Errorf("cannot iterate over %s", v.kindName())
}

func (n *withNode) render(st *state) error {
	v, err := n.val.eval(st)
	if err != nil {
		return err
	}
	mark := st.push()
	defer st.pop(mark)
	st.set(n.name, v)
	return renderAll(st, n.body)
}

// includeNode is a statically inlined sub-template.
type includeNode struct {
	nodes []node
}

func (n *includeNode) render(st *state) error { return renderAll(st, n.nodes) }

func renderAll(st *state, nodes []node) error {
	for _, n := range nodes {
		if err := n.render(st); err != nil {
			return err
		}
	}
	return nil
}

// --- expression evaluation ---

func (e *pathExpr) eval(st *state) (value, error) {
	v, ok := st.lookup(e.parts[0], e.norm[0])
	if !ok {
		// Unknown variables render as empty, matching Django's forgiving
		// default; config templates rely on this for optional attributes.
		return nilValue(), nil
	}
	for i := 1; i < len(e.parts); i++ {
		v, ok = v.attrNorm(e.parts[i], e.norm[i])
		if !ok {
			return nilValue(), nil
		}
	}
	return v, nil
}

func (e *filterExpr) eval(st *state) (value, error) {
	in, err := e.in.eval(st)
	if err != nil {
		return nilValue(), err
	}
	f, ok := filters[e.name]
	if !ok {
		return nilValue(), fmt.Errorf("line %d: unknown filter %q", e.line, e.name)
	}
	var arg value
	hasArg := e.arg != nil
	if hasArg {
		if arg, err = e.arg.eval(st); err != nil {
			return nilValue(), err
		}
	}
	out, err := f(in, arg, hasArg)
	if err != nil {
		return nilValue(), fmt.Errorf("filter %q: %w", e.name, err)
	}
	return out, nil
}

func (e *binaryExpr) eval(st *state) (value, error) {
	l, err := e.l.eval(st)
	if err != nil {
		return nilValue(), err
	}
	// Short-circuit logical operators.
	switch e.op {
	case "and":
		if !l.truthy() {
			return l, nil
		}
		return e.r.eval(st)
	case "or":
		if l.truthy() {
			return l, nil
		}
		return e.r.eval(st)
	}
	r, err := e.r.eval(st)
	if err != nil {
		return nilValue(), err
	}
	switch e.op {
	case "in":
		ok, err := contains(l, r)
		return boolValue(ok), err
	case "==", "!=":
		c, err := compare(l, r)
		if err != nil {
			// Unlike ordering, equality across mismatched types is just false.
			return boolValue(e.op == "!="), nil
		}
		if e.op == "==" {
			return boolValue(c == 0), nil
		}
		return boolValue(c != 0), nil
	}
	c, err := compare(l, r)
	if err != nil {
		return nilValue(), err
	}
	switch e.op {
	case "<":
		return boolValue(c < 0), nil
	case "<=":
		return boolValue(c <= 0), nil
	case ">":
		return boolValue(c > 0), nil
	case ">=":
		return boolValue(c >= 0), nil
	}
	return nilValue(), fmt.Errorf("unknown operator %q", e.op)
}

func (e *notExpr) eval(st *state) (value, error) {
	v, err := e.in.eval(st)
	if err != nil {
		return nilValue(), err
	}
	return boolValue(!v.truthy()), nil
}
