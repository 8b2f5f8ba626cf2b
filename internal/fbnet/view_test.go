package fbnet

import (
	"errors"
	"reflect"
	"runtime"
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
	s, err := Open(relstore.NewDB("lamps", nil), reg)
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

// TestReadsHandOutStoredRows: every read — the store's Find, FindOne,
// GetByID and Peek, and a mutation's Get, Find, FindOne and Referencing —
// hands out the map View.Get does, not a copy; Peek also the sequence it
// read at and the sequence its table last moved at.
func TestReadsHandOutStoredRows(t *testing.T) {
	s := newTestStore(t)
	var region, site int64
	if _, err := s.Mutate(func(m *Mutation) (err error) {
		region, err = m.Create("Region", map[string]any{"name": "apac"})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	written := s.DB().Seq()
	if _, err := s.Mutate(func(m *Mutation) (err error) {
		site, err = m.Create("Site", map[string]any{"name": "pop1", "kind": "pop", "region": region})
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

	stored := map[string]relstore.Row{}
	if err := s.DB().View(func(v relstore.View) (err error) {
		if stored["Region"], err = v.Get("Region", region); err != nil {
			return err
		}
		stored["Site"], err = v.Get("Site", site)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	one := func(objs []Object, err error) (Object, error) { return exactlyOne("", nil, objs, err) }
	check := func(name string, got Object, err error) {
		t.Helper()
		if want := stored[got.Model]; err != nil || got.ID != want.ID || !sameMap(got.fields, want.Values) {
			t.Errorf("%s = %v, %v; want the map View.Get hands out", name, got, err)
		}
	}
	check("Peek", peeked[0], nil)
	got, err := one(s.Find("Region", Eq("name", "apac")))
	check("Find", got, err)
	got, err = s.FindOne("Region", Eq("name", "apac"))
	check("FindOne", got, err)
	got, err = s.GetByID("Region", region)
	check("GetByID", got, err)
	if _, err := s.GetByID("Region", region+100); !errors.Is(err, relstore.ErrNoRow) {
		t.Errorf("GetByID of a missing id: %v, want ErrNoRow", err)
	}
	if _, err := s.Mutate(func(m *Mutation) error {
		got, err := m.Get("Region", region)
		check("Mutation.Get", got, err)
		got, err = one(m.Find("Region", Eq("name", "apac")))
		check("Mutation.Find", got, err)
		got, err = m.FindOne("Site", Eq("region", region))
		check("Mutation.FindOne", got, err)
		got, err = one(m.Referencing("Site", "region", region))
		check("Mutation.Referencing", got, err)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func sameMap(a, b map[string]any) bool {
	return reflect.ValueOf(a).UnsafePointer() == reflect.ValueOf(b).UnsafePointer()
}

// TestMutationReadsRowsInPlace: a Find inside a mutation reads the
// transaction's rows in place, as a Find outside one reads the published
// epoch's. Over 256 devices, a scan that follows each device's site
// relation and returns one device allocates what the same Find on the
// committed store allocates, not a row map per device or per hop. The
// mutation's own writes are seen by a later read and never by an object
// read before them: an update installs a new row.
func TestMutationReadsRowsInPlace(t *testing.T) {
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
		if err := m.Update("Device", objs[0].ID, map[string]any{"drain_state": "drained"}); err != nil {
			return err
		}
		if objs[0].String("drain_state") != "undrained" {
			t.Errorf("an object read before the update now reads %v, want drain_state undrained", objs[0])
		}
		again, err := m.FindOne("Device", Eq("id", objs[0].ID))
		if err != nil {
			return err
		}
		if again.String("role") != "psw" || again.String("drain_state") != "drained" {
			t.Errorf("a read after the update = %v, want role psw, drain_state drained", again)
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
// of 256 devices that returns one allocates a constant number of times,
// not a resolve frontier per device looked at, and its bytes are the
// scan's id and row slices, not an answer sized by the rows looked at.
// Contains plans as a scan.
func TestScanOnLocalFieldAllocatesPerReturnedRow(t *testing.T) {
	const rows = 256
	s := bigStore(t, rows)
	q := Contains("name", "00042")
	find := func() {
		if objs, err := s.Find("Device", q); err != nil || len(objs) != 1 {
			t.Fatalf("Find = %v, %v; want dev00042", objs, err)
		}
	}
	// The constant is four: the resolver, the scan's id and row slices,
	// the answer. Reading the field through resolve cost one more per row.
	if allocs := testing.AllocsPerRun(20, find); allocs > 6 {
		t.Errorf("a %d-row scan returning one row allocated %v times, want at most 6", rows, allocs)
	}
	// The scan's slices hold an id (8 bytes) and a relstore.Row (16) per
	// row looked at. An answer sized by those rows added an Object (32)
	// per row.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 20
	for i := 0; i < runs; i++ {
		find()
	}
	runtime.ReadMemStats(&after)
	if bytes, limit := (after.TotalAlloc-before.TotalAlloc)/runs, uint64(24*rows+2048); bytes > limit {
		t.Errorf("a %d-row scan returning one row allocated %d bytes, want at most %d", rows, bytes, limit)
	}
}
