package fbnet

import (
	"reflect"
	"sync"
	"testing"

	"github.com/robotron-net/robotron/internal/relstore"
)

// TestFindReadsOneEpoch: a query's planning, fetching and matching read
// one committed state. A writer swaps two lamps' indexed colours and
// stamps both with the same generation, in one transaction, over and over;
// an indexed Find of both colours, and a read-API Get, running beside it
// must always see the pair from one transaction: one red, one blue, one
// generation. Reading the index and each row at separate epochs mixes
// pairs.
func TestFindReadsOneEpoch(t *testing.T) {
	reg := NewRegistry()
	reg.MustRegister(Model{Name: "Lamp", Fields: []Field{
		{Name: "name", Type: relstore.ColString, Unique: true},
		{Name: "color", Type: relstore.ColString, Indexed: true},
		{Name: "gen", Type: relstore.ColInt},
	}})
	s, err := Open(relstore.NewDB("lamps"), reg)
	if err != nil {
		t.Fatal(err)
	}
	var ids [2]int64
	if _, err := s.Mutate(func(m *Mutation) error {
		for i, color := range []string{"red", "blue"} {
			if ids[i], err = m.Create("Lamp", map[string]any{"name": color + "-lamp", "color": color, "gen": int64(0)}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		colors := [2]string{"red", "blue"}
		for gen := int64(1); ; gen++ {
			select {
			case <-stop:
				return
			default:
			}
			colors[0], colors[1] = colors[1], colors[0]
			if _, err := s.Mutate(func(m *Mutation) error {
				for i, id := range ids {
					if err := m.Update("Lamp", id, map[string]any{"color": colors[i], "gen": gen}); err != nil {
						return err
					}
				}
				return nil
			}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	defer func() {
		close(stop)
		wg.Wait()
	}()

	both := In("color", "red", "blue")
	for i := 0; i < 5000; i++ {
		objs, err := s.Find("Lamp", both)
		if err != nil {
			t.Fatal(err)
		}
		if len(objs) != 2 || objs[0].String("color") == objs[1].String("color") || objs[0].Int("gen") != objs[1].Int("gen") {
			t.Fatalf("Find %d read a mixed pair: %v", i, objs)
		}
		res, err := s.Get("Lamp", []string{"color", "gen"}, both)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != 2 || res[0].Fields["color"] == res[1].Fields["color"] || res[0].Fields["gen"] != res[1].Fields["gen"] {
			t.Fatalf("Get %d read a mixed pair: %v", i, res)
		}
	}
}

// TestPeekSharesStoredRowsFindCopies: Peek hands out the stored rows, the
// sequence they are of and the sequence their table last moved at; Find's
// copies are the caller's to write.
func TestPeekSharesStoredRowsFindCopies(t *testing.T) {
	s := newTestStore(t)
	if _, err := s.Mutate(func(m *Mutation) error {
		_, err := m.Create("Region", map[string]any{"name": "apac"})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	written := s.DB().Seq()
	if _, err := s.Mutate(func(m *Mutation) error {
		_, err := m.Create("Vendor", map[string]any{"name": "vendorA", "syntax": "vendor1"})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	peeked, seq, tableSeq, err := s.Peek("Region", Eq("name", "apac"))
	if err != nil || len(peeked) != 1 || seq != s.DB().Seq() || tableSeq != written {
		t.Fatalf("Peek = %v, seq %d, table seq %d, %v; want one region at seq %d, table seq %d",
			peeked, seq, tableSeq, err, s.DB().Seq(), written)
	}
	if got, err := s.TableSeq("Region"); got != tableSeq || err != nil {
		t.Fatalf("TableSeq(Region) = %d, %v; want Peek's %d", got, err, tableSeq)
	}
	again, _, _, _ := s.Peek("Region", nil)
	if len(again) != 1 || !sameMap(peeked[0].Fields, again[0].Fields) {
		t.Error("two Peeks of one row handed out different maps")
	}
	found, err := s.Find("Region", Eq("name", "apac"))
	if err != nil || len(found) != 1 || sameMap(found[0].Fields, peeked[0].Fields) {
		t.Fatalf("Find = %v, %v; want a copy of the stored row", found, err)
	}
	found[0].Fields["name"] = "scribble"
	if peeked[0].String("name") != "apac" {
		t.Error("writing Find's copy changed the stored row")
	}
}

func sameMap(a, b map[string]any) bool {
	return reflect.ValueOf(a).UnsafePointer() == reflect.ValueOf(b).UnsafePointer()
}
