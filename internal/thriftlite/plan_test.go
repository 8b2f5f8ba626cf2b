package thriftlite

import (
	"bytes"
	"reflect"
	"sync"
	"testing"
)

// forgetPlans empties the plan cache, so the next use of every type works
// its plan out again.
func forgetPlans() {
	plans.Range(func(t, _ any) bool {
		plans.Delete(t)
		return true
	})
}

// TestPlansConcurrentOnColdCache: goroutines that marshal and unmarshal
// several struct types at once, on a cold plan cache, each race to work
// out the plans of the types and of the structs nested in them; every one
// must produce the bytes a serial run produced and decode them back to
// them. Run under -race (make store).
func TestPlansConcurrentOnColdCache(t *testing.T) {
	values := []any{
		&testDevice{Aggs: []testAgg{
			{Name: "ae0", Number: 3, V6Prefix: "2401:db00::/127", Pifs: []testPif{{Name: "et1/1"}, {Name: "et1/2"}}},
			{Name: "ae1", Number: 4, V4Prefix: "10.0.0.0/31"},
		}},
		&allTypes{
			B: true, I: -5, I32: 7, U: 9, F: 2.5, S: "s", Bs: []byte{1, 2},
			L: []string{"a", "b"}, LI: []int64{1, -1}, M: map[string]string{"b": "2", "a": "1"},
			MI: map[string]int64{"n": 3}, Sub: &testPif{Name: "sub"},
		},
		&fuzzMsg{
			Name: "m", ID: 12, Small: 200, On: true, Ratio: 0.25, Raw: []byte("raw"),
			Leaf: fuzzLeaf{Name: "leaf", Weight: 1.5}, Ptr: &fuzzItem{Name: "p", Count: 2, Up: true},
			Items: []fuzzItem{{Name: "i1", Count: 1}, {Name: "i2", Up: true}},
			Tags:  []string{"x", "y"}, Attrs: map[string]int64{"a": 1, "b": -2},
			ByName: map[string]*fuzzItem{"q": {Name: "q", Count: 9}},
		},
		&testAggV1{Name: "ae9"},
		&quickMsg{A: "a", B: 1, C: true, D: []string{"d"}, E: map[string]int64{"e": 5}, F: 0.5},
	}
	forgetPlans()
	want := make([][]byte, len(values))
	for i, v := range values {
		var err error
		if want[i], err = Marshal(v); err != nil {
			t.Fatal(err)
		}
	}

	forgetPlans()
	const workers = 16
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for k := range values {
				i := (w + k) % len(values)
				got, err := Marshal(values[i])
				if err != nil || !bytes.Equal(got, want[i]) {
					t.Errorf("worker %d: Marshal(%T) = %x, %v; serial run gave %x", w, values[i], got, err, want[i])
					return
				}
				out := reflect.New(reflect.TypeOf(values[i]).Elem()).Interface()
				if err := Unmarshal(got, out); err != nil {
					t.Errorf("worker %d: Unmarshal(%T): %v", w, out, err)
					return
				}
				if again, err := Marshal(out); err != nil || !bytes.Equal(again, want[i]) {
					t.Errorf("worker %d: %T re-marshalled to %x, %v; want %x", w, out, again, err, want[i])
					return
				}
			}
		}(w)
	}
	close(start)
	wg.Wait()
}
