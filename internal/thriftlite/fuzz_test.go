package thriftlite

import (
	"bytes"
	"math"
	"reflect"
	"runtime"
	"testing"
)

// fuzzMsg exercises every wire type the decoder allocates for: scalars,
// bytes, nested structs by value and by pointer, lists and maps. Its two
// doubles sit where hasNaN can see them.
type fuzzLeaf struct {
	Name   string  `thrift:"1"`
	Weight float64 `thrift:"2"`
}

type fuzzItem struct {
	Name  string `thrift:"1"`
	Count int32  `thrift:"2"`
	Up    bool   `thrift:"3"`
}

type fuzzMsg struct {
	Name   string               `thrift:"1"`
	ID     int64                `thrift:"2"`
	Small  uint8                `thrift:"3"`
	On     bool                 `thrift:"4"`
	Ratio  float64              `thrift:"5"`
	Raw    []byte               `thrift:"6"`
	Leaf   fuzzLeaf             `thrift:"7"`
	Ptr    *fuzzItem            `thrift:"8"`
	Items  []fuzzItem           `thrift:"9"`
	Tags   []string             `thrift:"10"`
	Attrs  map[string]int64     `thrift:"11"`
	ByName map[string]*fuzzItem `thrift:"12"`
}

// hasNaN: DeepEqual holds a NaN unequal to itself.
func (m *fuzzMsg) hasNaN() bool { return math.IsNaN(m.Ratio) || math.IsNaN(m.Leaf.Weight) }

// oversizedList is the crasher the first two seconds of fuzzing found (also
// checked in under testdata/fuzz/FuzzUnmarshal): nine bytes whose list
// header declares 10^11 elements. Sized from the wire, that is a 3.8 TB
// MakeSlice and the process died of it. oversizedMap is its map twin.
var (
	oversizedList = []byte("\x06\x09\x05\x80\xd0\xdb\xc3\xf4\x02")
	oversizedMap  = []byte("\x07\x0b\x02\x80\xd0\xdb\xc3\xf4\x02")
)

func TestUnmarshalRefusesOversizedCounts(t *testing.T) {
	for name, data := range map[string][]byte{"list": oversizedList, "map": oversizedMap} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := Unmarshal(data, new(fuzzMsg))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s declaring 10^11 elements in 9 bytes decoded without error", name)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
			t.Errorf("%s: refusing the count allocated %d bytes", name, got)
		}
	}
	// Unknown fields are skipped, not decoded: same check on that path.
	if err := Unmarshal(oversizedList, new(fuzzLeaf)); err == nil {
		t.Error("oversized list under an unknown field id skipped without error")
	}
}

// FuzzUnmarshal: the request decoder behind RegisterTyped reads bytes off
// the network. Whatever they are it returns — no panic, no allocation sized
// by a number the wire merely claims — and a value it does accept is one the
// encoder can carry: it re-marshals, and decoding that reproduces it.
func FuzzUnmarshal(f *testing.F) {
	seed, err := Marshal(&fuzzMsg{
		Name: "psw1.pop1-c1", ID: -42, Small: 200, On: true, Ratio: 0.25, Raw: []byte{0, 1, 2},
		Leaf: fuzzLeaf{Name: "ae0", Weight: 1.5}, Ptr: &fuzzItem{Name: "ae1", Up: true},
		Items: []fuzzItem{{Name: "et1/1"}, {Name: "et1/2", Count: 2}}, Tags: []string{"a", "", "b"},
		Attrs: map[string]int64{"mtu": 9192, "": -1}, ByName: map[string]*fuzzItem{"lo0": {Count: -7}},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(oversizedMap)
	f.Add([]byte{tStop})
	f.Fuzz(func(t *testing.T, data []byte) {
		var first fuzzMsg
		if Unmarshal(data, &first) != nil {
			return
		}
		wire, err := Marshal(&first)
		if err != nil {
			t.Fatalf("decoded value does not re-marshal: %v", err)
		}
		var second fuzzMsg
		if err := Unmarshal(wire, &second); err != nil {
			t.Fatalf("re-marshalled value does not decode: %v", err)
		}
		// Compared in the encoder's canonical form (it elides the empty
		// lists and maps a wire may spell out) and then as values.
		again, err := Marshal(&second)
		if err != nil || !bytes.Equal(wire, again) {
			t.Fatalf("re-marshal is not a fixed point (%v):\n%x\n%x", err, wire, again)
		}
		var third fuzzMsg
		if err := Unmarshal(again, &third); err != nil {
			t.Fatal(err)
		}
		if !second.hasNaN() && !reflect.DeepEqual(second, third) {
			t.Fatalf("value changed across a round trip:\n%+v\n%+v", second, third)
		}
	})
}
