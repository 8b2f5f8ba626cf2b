package thriftlite

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
)

// Unmarshal deserializes data into v, which must be a non-nil pointer to a
// struct. Unknown field ids are skipped (forward compatibility); fields
// absent from the data retain their zero values (backward compatibility).
func Unmarshal(data []byte, v any) error {
	rv := reflect.ValueOf(v)
	if rv.Kind() != reflect.Pointer || rv.IsNil() {
		return fmt.Errorf("thriftlite: Unmarshal target must be a non-nil pointer")
	}
	rv = rv.Elem()
	if rv.Kind() != reflect.Struct {
		return fmt.Errorf("thriftlite: Unmarshal target must point to a struct, got %s", rv.Kind())
	}
	d := &decoder{buf: data}
	if err := d.readStruct(rv); err != nil {
		return err
	}
	if d.pos != len(d.buf) {
		return fmt.Errorf("thriftlite: %d trailing bytes after struct", len(d.buf)-d.pos)
	}
	return nil
}

type decoder struct {
	buf []byte
	pos int
}

func (d *decoder) readByte() (byte, error) {
	if d.pos >= len(d.buf) {
		return 0, fmt.Errorf("thriftlite: unexpected end of data")
	}
	b := d.buf[d.pos]
	d.pos++
	return b, nil
}

func (d *decoder) readUvarint() (uint64, error) {
	u, n := binary.Uvarint(d.buf[d.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("thriftlite: bad uvarint at offset %d", d.pos)
	}
	d.pos += n
	return u, nil
}

func (d *decoder) readVarint() (int64, error) {
	i, n := binary.Varint(d.buf[d.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("thriftlite: bad varint at offset %d", d.pos)
	}
	d.pos += n
	return i, nil
}

func (d *decoder) readBytes(n uint64) ([]byte, error) {
	if n > uint64(len(d.buf)-d.pos) {
		return nil, fmt.Errorf("thriftlite: length %d exceeds remaining data %d", n, len(d.buf)-d.pos)
	}
	b := d.buf[d.pos : d.pos+int(n)]
	d.pos += int(n)
	return b, nil
}

// readCount reads a list or map element count. Every element occupies at
// least one byte, so a count beyond the bytes remaining is malformed — and
// is refused here, before anything is sized by it.
func (d *decoder) readCount() (int, error) {
	n, err := d.readUvarint()
	if err != nil {
		return 0, err
	}
	if n > uint64(len(d.buf)-d.pos) {
		return 0, fmt.Errorf("thriftlite: count %d exceeds remaining data %d", n, len(d.buf)-d.pos)
	}
	return int(n), nil
}

func (d *decoder) readStruct(rv reflect.Value) error {
	fields, err := structFields(rv.Type())
	if err != nil {
		return err
	}
	byID := make(map[int]int, len(fields))
	for _, f := range fields {
		byID[f.id] = f.index
	}
	for {
		wt, err := d.readByte()
		if err != nil {
			return err
		}
		if wt == tStop {
			return nil
		}
		id, err := d.readUvarint()
		if err != nil {
			return err
		}
		idx, known := byID[int(id)]
		if !known {
			if err := d.skipValue(wt); err != nil {
				return err
			}
			continue
		}
		fv := rv.Field(idx)
		declared, err := wireType(fv.Type())
		if err != nil {
			return err
		}
		if declared != wt {
			return fmt.Errorf("thriftlite: field id %d of %s: wire type %d does not match declared type %s",
				id, rv.Type().Name(), wt, fv.Type())
		}
		if err := d.readValue(fv, wt); err != nil {
			return fmt.Errorf("field id %d of %s: %w", id, rv.Type().Name(), err)
		}
	}
}

func (d *decoder) readValue(fv reflect.Value, wt byte) error {
	switch wt {
	case tBool:
		b, err := d.readByte()
		if err != nil {
			return err
		}
		fv.SetBool(b != 0)
	case tI64:
		i, err := d.readVarint()
		if err != nil {
			return err
		}
		switch fv.Kind() {
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			fv.SetUint(uint64(i))
		default:
			if fv.OverflowInt(i) {
				return fmt.Errorf("value %d overflows %s", i, fv.Type())
			}
			fv.SetInt(i)
		}
	case tDouble:
		b, err := d.readBytes(8)
		if err != nil {
			return err
		}
		fv.SetFloat(math.Float64frombits(binary.LittleEndian.Uint64(b)))
	case tString:
		n, err := d.readUvarint()
		if err != nil {
			return err
		}
		b, err := d.readBytes(n)
		if err != nil {
			return err
		}
		if fv.Kind() == reflect.String {
			fv.SetString(string(b))
		} else {
			fv.SetBytes(append([]byte(nil), b...))
		}
	case tStruct:
		for fv.Kind() == reflect.Pointer {
			if fv.IsNil() {
				fv.Set(reflect.New(fv.Type().Elem()))
			}
			fv = fv.Elem()
		}
		return d.readStruct(fv)
	case tList:
		elemWT, err := d.readByte()
		if err != nil {
			return err
		}
		n, err := d.readCount()
		if err != nil {
			return err
		}
		declared, err := wireType(fv.Type().Elem())
		if err != nil {
			return err
		}
		if declared != elemWT {
			return fmt.Errorf("list element wire type %d does not match declared %s", elemWT, fv.Type().Elem())
		}
		sl := reflect.MakeSlice(fv.Type(), n, n)
		for i := 0; i < n; i++ {
			ev := sl.Index(i)
			if ev.Kind() == reflect.Pointer {
				ev.Set(reflect.New(ev.Type().Elem()))
			}
			if err := d.readValue(ev, elemWT); err != nil {
				return err
			}
		}
		fv.Set(sl)
	case tMap:
		valWT, err := d.readByte()
		if err != nil {
			return err
		}
		n, err := d.readCount()
		if err != nil {
			return err
		}
		declared, err := wireType(fv.Type().Elem())
		if err != nil {
			return err
		}
		if declared != valWT {
			return fmt.Errorf("map value wire type %d does not match declared %s", valWT, fv.Type().Elem())
		}
		m := reflect.MakeMapWithSize(fv.Type(), n)
		for i := 0; i < n; i++ {
			klen, err := d.readUvarint()
			if err != nil {
				return err
			}
			kb, err := d.readBytes(klen)
			if err != nil {
				return err
			}
			vv := reflect.New(fv.Type().Elem()).Elem()
			if vv.Kind() == reflect.Pointer {
				vv.Set(reflect.New(vv.Type().Elem()))
			}
			if err := d.readValue(vv, valWT); err != nil {
				return err
			}
			m.SetMapIndex(reflect.ValueOf(string(kb)).Convert(fv.Type().Key()), vv)
		}
		fv.Set(m)
	default:
		return fmt.Errorf("unsupported wire type %d", wt)
	}
	return nil
}

// skipValue discards a value of the given wire type, used for unknown
// field ids during schema evolution.
func (d *decoder) skipValue(wt byte) error {
	switch wt {
	case tBool:
		_, err := d.readByte()
		return err
	case tI64:
		_, err := d.readVarint()
		return err
	case tDouble:
		_, err := d.readBytes(8)
		return err
	case tString:
		n, err := d.readUvarint()
		if err != nil {
			return err
		}
		_, err = d.readBytes(n)
		return err
	case tStruct:
		for {
			fwt, err := d.readByte()
			if err != nil {
				return err
			}
			if fwt == tStop {
				return nil
			}
			if _, err := d.readUvarint(); err != nil {
				return err
			}
			if err := d.skipValue(fwt); err != nil {
				return err
			}
		}
	case tList:
		elemWT, err := d.readByte()
		if err != nil {
			return err
		}
		n, err := d.readCount()
		if err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			if err := d.skipValue(elemWT); err != nil {
				return err
			}
		}
		return nil
	case tMap:
		valWT, err := d.readByte()
		if err != nil {
			return err
		}
		n, err := d.readCount()
		if err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			klen, err := d.readUvarint()
			if err != nil {
				return err
			}
			if _, err := d.readBytes(klen); err != nil {
				return err
			}
			if err := d.skipValue(valWT); err != nil {
				return err
			}
		}
		return nil
	}
	return fmt.Errorf("cannot skip unknown wire type %d", wt)
}
