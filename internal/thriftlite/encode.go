// Package thriftlite is a compact, Thrift-inspired binary serialization
// format and RPC framework.
//
// Robotron stores per-device configuration data as Thrift objects
// (SIGCOMM '16, §5.2, Fig. 8) and exposes FBNet's read/write APIs as
// language-independent Thrift RPCs (§4.3.2). Apache Thrift is not available
// in an offline, stdlib-only build, so this package re-implements the two
// properties the system depends on: (1) schema'd, field-id-tagged binary
// struct encoding that tolerates schema evolution (unknown fields are
// skipped, missing fields keep zero values), and (2) a framed
// request/response RPC transport over TCP.
//
// Go structs map to wire structs via `thrift:"N"` field tags carrying the
// field id. Supported field types: bool, integers, float64, string, []byte,
// nested structs, pointers to structs, slices, and maps with string keys.
//
// A Go type's wire layout never changes, so each struct type's plan — its
// tagged fields sorted by id for the encoder, an id → field lookup for the
// decoder, and each field's wire type — is worked out once, on first use,
// and cached per reflect.Type for the life of the process. A type whose
// tags are bad caches its error as its plan: every Marshal or Unmarshal of
// it fails the same way, not just the first.
package thriftlite

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"sort"
	"strconv"
	"sync"
)

// Wire type codes. STOP terminates a struct's field list.
const (
	tStop   byte = 0
	tBool   byte = 1
	tI64    byte = 2
	tDouble byte = 3
	tString byte = 4 // also []byte
	tStruct byte = 5
	tList   byte = 6
	tMap    byte = 7
)

// Marshal serializes v (a struct or pointer to struct) into the compact
// binary format.
func Marshal(v any) ([]byte, error) {
	rv := reflect.ValueOf(v)
	for rv.Kind() == reflect.Pointer {
		if rv.IsNil() {
			return nil, fmt.Errorf("thriftlite: cannot marshal nil pointer")
		}
		rv = rv.Elem()
	}
	if rv.Kind() != reflect.Struct {
		return nil, fmt.Errorf("thriftlite: top-level value must be a struct, got %s", rv.Kind())
	}
	e := &encoder{}
	if err := e.writeStruct(rv); err != nil {
		return nil, err
	}
	return e.buf, nil
}

type encoder struct {
	buf []byte
}

func (e *encoder) writeByte(b byte) { e.buf = append(e.buf, b) }
func (e *encoder) writeUvarint(u uint64) {
	e.buf = binary.AppendUvarint(e.buf, u)
}
func (e *encoder) writeVarint(i int64) {
	e.buf = binary.AppendVarint(e.buf, i)
}

func (e *encoder) writeStruct(rv reflect.Value) error {
	p := planFor(rv.Type())
	if p.err != nil {
		return p.err
	}
	for i := range p.fields {
		f := &p.fields[i]
		fv := rv.Field(f.index)
		if isZeroValue(fv) {
			continue // compact encoding: zero values are elided
		}
		if f.wtErr != nil {
			return fmt.Errorf("field %s: %w", f.name, f.wtErr)
		}
		e.writeByte(f.wt)
		e.writeUvarint(uint64(f.id))
		if err := e.writeValue(fv, f.wt); err != nil {
			return fmt.Errorf("field %s: %w", f.name, err)
		}
	}
	e.writeByte(tStop)
	return nil
}

func (e *encoder) writeValue(rv reflect.Value, wt byte) error {
	switch wt {
	case tBool:
		if rv.Bool() {
			e.writeByte(1)
		} else {
			e.writeByte(0)
		}
	case tI64:
		switch rv.Kind() {
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			e.writeVarint(int64(rv.Uint()))
		default:
			e.writeVarint(rv.Int())
		}
	case tDouble:
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(rv.Float()))
		e.buf = append(e.buf, b[:]...)
	case tString:
		if rv.Kind() == reflect.String {
			s := rv.String()
			e.writeUvarint(uint64(len(s)))
			e.buf = append(e.buf, s...)
		} else {
			b := rv.Bytes()
			e.writeUvarint(uint64(len(b)))
			e.buf = append(e.buf, b...)
		}
	case tStruct:
		for rv.Kind() == reflect.Pointer {
			rv = rv.Elem()
		}
		return e.writeStruct(rv)
	case tList:
		elemWT, err := wireType(rv.Type().Elem())
		if err != nil {
			return err
		}
		e.writeByte(elemWT)
		e.writeUvarint(uint64(rv.Len()))
		for i := 0; i < rv.Len(); i++ {
			ev := rv.Index(i)
			if elemWT == tStruct && ev.Kind() == reflect.Pointer && ev.IsNil() {
				return fmt.Errorf("nil struct pointer at list index %d", i)
			}
			if err := e.writeValue(ev, elemWT); err != nil {
				return err
			}
		}
	case tMap:
		valWT, err := wireType(rv.Type().Elem())
		if err != nil {
			return err
		}
		e.writeByte(valWT)
		e.writeUvarint(uint64(rv.Len()))
		keys := rv.MapKeys()
		sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })
		for _, k := range keys {
			e.writeUvarint(uint64(len(k.String())))
			e.buf = append(e.buf, k.String()...)
			if err := e.writeValue(rv.MapIndex(k), valWT); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("unsupported wire type %d", wt)
	}
	return nil
}

// wireType maps a Go type to its wire type code.
func wireType(t reflect.Type) (byte, error) {
	for t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	switch t.Kind() {
	case reflect.Bool:
		return tBool, nil
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return tI64, nil
	case reflect.Float32, reflect.Float64:
		return tDouble, nil
	case reflect.String:
		return tString, nil
	case reflect.Struct:
		return tStruct, nil
	case reflect.Slice:
		if t.Elem().Kind() == reflect.Uint8 {
			return tString, nil // []byte
		}
		return tList, nil
	case reflect.Map:
		if t.Key().Kind() != reflect.String {
			return 0, fmt.Errorf("map keys must be strings, got %s", t.Key())
		}
		return tMap, nil
	}
	return 0, fmt.Errorf("unsupported Go type %s", t)
}

func isZeroValue(rv reflect.Value) bool {
	switch rv.Kind() {
	case reflect.Slice, reflect.Map:
		return rv.Len() == 0
	case reflect.Pointer, reflect.Interface:
		return rv.IsNil()
	default:
		return rv.IsZero()
	}
}

// plan is a struct type's wire layout. err is set, and nothing else, when
// the type's tags are bad.
type plan struct {
	fields []field        // tagged fields, sorted by id
	byID   map[int]*field // the same fields by id, for the decoder
	err    error
}

// field describes one serializable struct field.
type field struct {
	id    int
	index int
	name  string
	wt    byte  // wire type of the field's Go type, unless wtErr
	wtErr error // the Go type has no wire type; an error only if the field is on the wire
}

// plans caches one *plan per struct type (reflect.Type → *plan). Like
// encoding/json's field cache it only grows, by a handful of types: the
// struct types a process encodes or decodes.
var plans sync.Map

// planFor returns t's plan, working it out on t's first use. Goroutines
// racing on a cold type may each work it out; one result is kept, and
// every result is the same.
func planFor(t reflect.Type) *plan {
	if p, ok := plans.Load(t); ok {
		return p.(*plan)
	}
	p, _ := plans.LoadOrStore(t, newPlan(t))
	return p.(*plan)
}

// newPlan extracts t's tagged fields, sorted by id, validating uniqueness.
// Fields without a thrift tag are ignored, allowing internal bookkeeping
// fields alongside wire fields.
func newPlan(t reflect.Type) *plan {
	var fields []field
	seen := map[int]string{}
	for i := 0; i < t.NumField(); i++ {
		sf := t.Field(i)
		tag := sf.Tag.Get("thrift")
		if tag == "" || tag == "-" || !sf.IsExported() {
			continue
		}
		id, err := strconv.Atoi(tag)
		if err != nil || id <= 0 {
			return &plan{err: fmt.Errorf("thriftlite: bad field tag %q on %s.%s (want positive integer)", tag, t.Name(), sf.Name)}
		}
		if prev, dup := seen[id]; dup {
			return &plan{err: fmt.Errorf("thriftlite: duplicate field id %d on %s (%s and %s)", id, t.Name(), prev, sf.Name)}
		}
		seen[id] = sf.Name
		wt, wtErr := wireType(sf.Type)
		fields = append(fields, field{id: id, index: i, name: sf.Name, wt: wt, wtErr: wtErr})
	}
	sort.Slice(fields, func(i, j int) bool { return fields[i].id < fields[j].id })
	p := &plan{fields: fields, byID: make(map[int]*field, len(fields))}
	for i := range p.fields {
		p.byID[p.fields[i].id] = &p.fields[i]
	}
	return p
}
