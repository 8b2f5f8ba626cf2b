package fbnet

import (
	"errors"
	"maps"
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

// TestPeekSharesStoredRowsFindCopies: Peek, PeekOne and PeekByID hand out
// the stored rows (Peek also the sequence they are of and the sequence
// their table last moved at); the copies of Find, FindOne and GetByID are
// the caller's to write.
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

	var stored relstore.Row
	if err := s.DB().View(func(v relstore.View) (err error) {
		stored, err = v.Get("Region", peeked[0].ID)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	byID, err := s.PeekByID("Region", peeked[0].ID)
	if err != nil || byID.ID != peeked[0].ID || !sameMap(byID.Fields, stored.Values) {
		t.Fatalf("PeekByID = %v, %v; want the map View.Get hands out", byID, err)
	}
	one, err := s.PeekOne("Region", Eq("name", "apac"))
	if err != nil || !sameMap(one.Fields, stored.Values) {
		t.Fatalf("PeekOne = %v, %v; want the map View.Get hands out", one, err)
	}
	if _, err := s.PeekByID("Region", peeked[0].ID+100); !errors.Is(err, relstore.ErrNoRow) {
		t.Errorf("PeekByID of a missing id: %v, want ErrNoRow", err)
	}
	for name, read := range map[string]func() (Object, error){
		"GetByID": func() (Object, error) { return s.GetByID("Region", peeked[0].ID) },
		"FindOne": func() (Object, error) { return s.FindOne("Region", Eq("name", "apac")) },
	} {
		got, err := read()
		if err != nil || sameMap(got.Fields, stored.Values) {
			t.Fatalf("%s = %v, %v; want a copy of the stored row", name, got, err)
		}
		got.Fields["name"] = "scribble"
		if byID.String("name") != "apac" {
			t.Errorf("writing %s's copy changed the stored row", name)
		}
	}
}

func sameMap(a, b map[string]any) bool {
	return reflect.ValueOf(a).UnsafePointer() == reflect.ValueOf(b).UnsafePointer()
}

// TestMutationFindCopiesOnlyWhatItReturns: a Find inside a mutation reads
// the transaction's rows in place, as a Find outside one reads the
// published epoch's. Over 256 devices, a scan that follows each device's
// site relation and returns one device allocates what the same Find on
// the committed store allocates, not a row map per device or per hop; the
// one object it returns is a copy the caller may write, and the
// mutation's own writes are seen.
func TestMutationFindCopiesOnlyWhatItReturns(t *testing.T) {
	s := bigStore(t, 256)
	q := And(Contains("site.name", "pop"), Contains("name", "00042"))
	find := func(f func(string, Query) ([]Object, error)) func() {
		return func() {
			if objs, err := f("Device", q); err != nil || len(objs) != 1 {
				t.Fatalf("Find = %v, %v; want dev00042", objs, err)
			}
		}
	}
	committed := testing.AllocsPerRun(20, find(s.Find))
	var inTx float64
	if _, err := s.Mutate(func(m *Mutation) error {
		inTx = testing.AllocsPerRun(20, find(m.Find))
		objs, err := m.Find("Device", q)
		if err != nil {
			return err
		}
		objs[0].Fields["role"] = "scribble"
		if err := m.Update("Device", objs[0].ID, map[string]any{"drain_state": "drained"}); err != nil {
			return err
		}
		again, err := m.FindOne("Device", Eq("id", objs[0].ID))
		if err != nil {
			return err
		}
		if again.String("role") != "psw" || again.String("drain_state") != "drained" {
			t.Errorf("after writing Find's copy and updating the row: %v, want role psw, drain_state drained", again.Fields)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if inTx > committed+2 {
		t.Errorf("a Find inside a mutation allocated %v times, one on the committed store %v: want no more than 2 extra", inTx, committed)
	}
}

// TestScanOnLocalFieldAllocatesPerReturnedRow: a predicate on a value
// field of the scanned model is read straight from each row, so a scan
// of 256 devices that returns one allocates that row's copy plus a
// constant, not a resolve frontier per device looked at. Contains plans
// as a scan.
func TestScanOnLocalFieldAllocatesPerReturnedRow(t *testing.T) {
	s := bigStore(t, 256)
	q := Contains("name", "00042")
	var objs []Object
	allocs := testing.AllocsPerRun(20, func() {
		var err error
		if objs, err = s.Find("Device", q); err != nil || len(objs) != 1 {
			t.Fatalf("Find = %v, %v; want dev00042", objs, err)
		}
	})
	rowCopy := testing.AllocsPerRun(20, func() { maps.Clone(objs[0].Fields) })
	// The constant is four: the resolver, the scan's id and row slices,
	// the answer. Reading the field through resolve cost one more per row.
	if allocs > rowCopy+6 {
		t.Errorf("a 256-row scan returning one row allocated %v times, want at most the row's copy (%v) + 6", allocs, rowCopy)
	}
}
