package tmpl

import (
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"sync"
)

// valueKind enumerates the dynamic types template expressions operate on.
type valueKind int

const (
	kindNil valueKind = iota
	kindBool
	kindInt
	kindFloat
	kindString
	kindList // slice or array, wrapped reflect.Value
	kindMap  // map with string-ish keys, wrapped reflect.Value
	kindAny  // struct or other opaque Go value
	kindLoop // forloop metadata, backed by a mutable loopState
)

// loopState is the mutable record behind the "forloop" variable: one per
// loop execution, advanced in place each iteration. Attribute reads
// (counter, first, ...) compute from it directly, replacing the
// per-iteration map the executor used to allocate.
type loopState struct {
	counter0 int
	total    int
}

// value is a template-level dynamic value. It wraps Go values so the
// executor can do truthiness, comparison, attribute lookup, and iteration
// uniformly over maps, structs, slices, and scalars.
type value struct {
	kind valueKind
	b    bool
	i    int64
	f    float64
	s    string
	rv   reflect.Value  // valid for kindList, kindMap, kindAny
	m    map[string]any // fast path for kindMap when the map is map[string]any
	loop *loopState     // valid for kindLoop
}

func nilValue() value            { return value{kind: kindNil} }
func boolValue(b bool) value     { return value{kind: kindBool, b: b} }
func intValue(i int64) value     { return value{kind: kindInt, i: i} }
func floatValue(f float64) value { return value{kind: kindFloat, f: f} }
func stringValue(s string) value { return value{kind: kindString, s: s} }

// wrap converts an arbitrary Go value into a template value. Common
// context types take a type-switch fast path that avoids reflection.
func wrap(v any) value {
	switch x := v.(type) {
	case nil:
		return nilValue()
	case value:
		return x
	case string:
		return stringValue(x)
	case bool:
		return boolValue(x)
	case int:
		return intValue(int64(x))
	case int64:
		return intValue(x)
	case float64:
		return floatValue(x)
	case map[string]any:
		if x == nil {
			return nilValue()
		}
		return value{kind: kindMap, m: x, rv: reflect.ValueOf(v)}
	}
	return wrapReflect(reflect.ValueOf(v))
}

var mapStrAnyType = reflect.TypeOf(map[string]any(nil))

func wrapReflect(rv reflect.Value) value {
	for rv.Kind() == reflect.Interface || rv.Kind() == reflect.Pointer {
		if rv.IsNil() {
			return nilValue()
		}
		rv = rv.Elem()
	}
	switch rv.Kind() {
	case reflect.Bool:
		return boolValue(rv.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return intValue(rv.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return intValue(int64(rv.Uint()))
	case reflect.Float32, reflect.Float64:
		return floatValue(rv.Float())
	case reflect.String:
		return stringValue(rv.String())
	case reflect.Slice, reflect.Array:
		return value{kind: kindList, rv: rv}
	case reflect.Map:
		v := value{kind: kindMap, rv: rv}
		if rv.Type() == mapStrAnyType && rv.CanInterface() {
			v.m = rv.Interface().(map[string]any)
		}
		return v
	default:
		return value{kind: kindAny, rv: rv}
	}
}

// truthy implements Django truthiness: nil, false, zero, "", and empty
// collections are false; everything else is true.
func (v value) truthy() bool {
	switch v.kind {
	case kindNil:
		return false
	case kindBool:
		return v.b
	case kindInt:
		return v.i != 0
	case kindFloat:
		return v.f != 0
	case kindString:
		return v.s != ""
	case kindList, kindMap:
		return v.rv.Len() > 0
	default:
		return true
	}
}

// str renders the value the way {{ }} output does.
func (v value) str() string {
	switch v.kind {
	case kindNil:
		return ""
	case kindBool:
		if v.b {
			return "True"
		}
		return "False"
	case kindInt:
		return strconv.FormatInt(v.i, 10)
	case kindFloat:
		return strings.TrimRight(strings.TrimRight(strconv.FormatFloat(v.f, 'f', 6, 64), "0"), ".")
	case kindString:
		return v.s
	case kindLoop:
		return ""
	default:
		if v.rv.CanInterface() {
			if s, ok := v.rv.Interface().(fmt.Stringer); ok {
				return s.String()
			}
			return fmt.Sprintf("%v", v.rv.Interface())
		}
		return fmt.Sprintf("%v", v.rv)
	}
}

// appendInt formats an integer into dst the way {{ }} output does.
func appendInt(dst []byte, i int64) []byte {
	return strconv.AppendInt(dst, i, 10)
}

// length returns the element count for lists/maps/strings, or -1.
func (v value) length() int {
	switch v.kind {
	case kindString:
		return len(v.s)
	case kindList, kindMap:
		return v.rv.Len()
	}
	return -1
}

// attrNorm resolves an attribute lookup v.name: map key, struct field
// (exact, exported-case, or snake_case-insensitive match), or list index.
// norm is normalizeName(name), supplied by the caller: the parser
// normalizes path segments once at parse time so the render path never
// rebuilds them.
func (v value) attrNorm(name, norm string) (value, bool) {
	switch v.kind {
	case kindMap:
		if v.m != nil {
			mv, ok := v.m[name]
			if !ok {
				return nilValue(), false
			}
			return wrap(mv), true
		}
		kt := v.rv.Type().Key()
		if kt.Kind() != reflect.String {
			return nilValue(), false
		}
		kv := reflect.ValueOf(name)
		if kt != kv.Type() {
			kv = kv.Convert(kt)
		}
		mv := v.rv.MapIndex(kv)
		if !mv.IsValid() {
			return nilValue(), false
		}
		return wrapReflect(mv), true
	case kindAny:
		if v.rv.Kind() == reflect.Struct {
			if i, ok := structFieldIndex(v.rv.Type(), name, norm); ok {
				return wrapReflect(v.rv.Field(i)), true
			}
		}
		return nilValue(), false
	case kindList:
		idx, ok := parseIndex(name)
		if ok && idx < v.rv.Len() {
			return wrapReflect(v.rv.Index(idx)), true
		}
		return nilValue(), false
	case kindLoop:
		l := v.loop
		switch name {
		case "counter":
			return intValue(int64(l.counter0 + 1)), true
		case "counter0":
			return intValue(int64(l.counter0)), true
		case "revcounter":
			return intValue(int64(l.total - l.counter0)), true
		case "first":
			return boolValue(l.counter0 == 0), true
		case "last":
			return boolValue(l.counter0 == l.total-1), true
		}
		return nilValue(), false
	}
	return nilValue(), false
}

// parseIndex parses a non-negative decimal list index without allocating.
func parseIndex(s string) (int, bool) {
	if s == "" {
		return 0, false
	}
	n := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	return n, true
}

// fieldCache maps a struct type to its attribute-lookup table: exact
// exported field names plus their normalized (lowered, underscore-free)
// forms, each pointing at the field index. Built once per type, read
// lock-free afterwards — template renders resolve struct attributes with
// at most two map probes instead of a reflective scan over every field.
var fieldCache sync.Map // reflect.Type -> map[string]int

func structFieldIndex(t reflect.Type, name, norm string) (int, bool) {
	cached, ok := fieldCache.Load(t)
	if !ok {
		m := make(map[string]int)
		// Exact names first: an exact match must win over another field's
		// normalized alias.
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if f.IsExported() {
				m[f.Name] = i
			}
		}
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if !f.IsExported() {
				continue
			}
			n := normalizeName(f.Name)
			if _, dup := m[n]; !dup {
				m[n] = i
			}
		}
		cached, _ = fieldCache.LoadOrStore(t, m)
	}
	m := cached.(map[string]int)
	if i, ok := m[name]; ok {
		return i, true
	}
	if i, ok := m[norm]; ok {
		return i, true
	}
	return 0, false
}

// normalizeName lowers s and strips underscores. Already-normalized
// strings (the common case for template attribute names) are returned
// as-is without allocating.
func normalizeName(s string) string {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == '_' || (c >= 'A' && c <= 'Z') {
			return normalizeNameSlow(s)
		}
	}
	return s
}

func normalizeNameSlow(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == '_' {
			continue
		}
		if c >= 'A' && c <= 'Z' {
			c += 'a' - 'A'
		}
		b.WriteByte(c)
	}
	return b.String()
}

// compare returns -1, 0, 1 for ordered values, or an error when the two
// values are not comparable.
func compare(a, b value) (int, error) {
	// Numeric comparison when both sides are numeric.
	if (a.kind == kindInt || a.kind == kindFloat) && (b.kind == kindInt || b.kind == kindFloat) {
		af, bf := a.asFloat(), b.asFloat()
		switch {
		case af < bf:
			return -1, nil
		case af > bf:
			return 1, nil
		}
		return 0, nil
	}
	if a.kind == kindString && b.kind == kindString {
		return strings.Compare(a.s, b.s), nil
	}
	if a.kind == kindBool && b.kind == kindBool {
		switch {
		case a.b == b.b:
			return 0, nil
		case b.b:
			return -1, nil
		}
		return 1, nil
	}
	if a.kind == kindNil || b.kind == kindNil {
		if a.kind == b.kind {
			return 0, nil
		}
		return -1, fmt.Errorf("cannot compare %s with nil", a.kindName())
	}
	return 0, fmt.Errorf("cannot compare %s with %s", a.kindName(), b.kindName())
}

func (v value) asFloat() float64 {
	if v.kind == kindInt {
		return float64(v.i)
	}
	return v.f
}

func (v value) kindName() string {
	switch v.kind {
	case kindNil:
		return "nil"
	case kindBool:
		return "bool"
	case kindInt:
		return "int"
	case kindFloat:
		return "float"
	case kindString:
		return "string"
	case kindList:
		return "list"
	case kindMap:
		return "map"
	case kindLoop:
		return "forloop"
	}
	return "value"
}

// contains implements the "in" operator: substring for strings, element
// membership for lists, key membership for maps.
func contains(needle, hay value) (bool, error) {
	switch hay.kind {
	case kindString:
		return strings.Contains(hay.s, needle.str()), nil
	case kindList:
		for i := 0; i < hay.rv.Len(); i++ {
			el := wrapReflect(hay.rv.Index(i))
			if c, err := compare(needle, el); err == nil && c == 0 {
				return true, nil
			}
		}
		return false, nil
	case kindMap:
		if hay.m != nil {
			_, ok := hay.m[needle.str()]
			return ok, nil
		}
		if hay.rv.Type().Key().Kind() == reflect.String {
			mv := hay.rv.MapIndex(reflect.ValueOf(needle.str()).Convert(hay.rv.Type().Key()))
			return mv.IsValid(), nil
		}
		return false, nil
	case kindNil:
		return false, nil
	}
	return false, fmt.Errorf(`right side of "in" must be a string, list, or map, got %s`, hay.kindName())
}
