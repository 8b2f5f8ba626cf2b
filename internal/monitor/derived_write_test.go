package monitor

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/robotron-net/robotron/internal/fbnet"
	"github.com/robotron-net/robotron/internal/netsim"
	"github.com/robotron-net/robotron/internal/relstore"
	"github.com/robotron-net/robotron/internal/telemetry"
)

// interfacesCollection reports n interfaces of dev, all up but the first,
// whose status is first.
func interfacesCollection(dev string, n int, first string, at time.Time) Collection {
	col := Collection{Device: dev, Engine: EngineCLI, Data: DataInterfaces, At: at}
	for i := 0; i < n; i++ {
		status := "up"
		if i == 0 {
			status = first
		}
		col.Interfaces = append(col.Interfaces, netsim.IfaceStatus{
			Name: fmt.Sprintf("et%d", i+1), OperStatus: status, SpeedMbps: 100000,
			InOctets: uint64(i), OutOctets: uint64(i)})
	}
	return col
}

func derivedStore(t testing.TB) (*fbnet.Store, *telemetry.Registry) {
	t.Helper()
	reg := telemetry.NewRegistry()
	store, err := fbnet.Open(relstore.NewDB("derived", reg), fbnet.NewCatalog())
	if err != nil {
		t.Fatal(err)
	}
	return store, reg
}

// TestDerivedWriteReplansAfterConcurrentCommit: a plan made on rows that a
// commit then moved is not applied. Here the commit deletes the very rows
// the plan would update; the write reads them again, creates them instead,
// and the table ends as the observation reports.
func TestDerivedWriteReplansAfterConcurrentCommit(t *testing.T) {
	store, _ := derivedStore(t)
	at := time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC)
	if err := NewDerivedBackend(store, NewTimeseriesBackend()).Store(interfacesCollection("sw1", 4, "up", at)); err != nil {
		t.Fatal(err)
	}
	o := observe(interfacesCollection("sw1", 4, "down", at.Add(time.Minute)), nil)
	stored, seq, _, err := store.Peek(o.model, o.scope)
	if err != nil {
		t.Fatal(err)
	}
	ops := o.plan(stored)
	if len(ops) != 1 || ops[0].kind != opUpdate {
		t.Fatalf("plan = %+v, want one update", ops)
	}
	if _, err := store.Mutate(func(m *fbnet.Mutation) error {
		for _, s := range stored {
			if err := m.Delete(o.model, s.ID); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := o.write(store, ops, seq); err != nil {
		t.Fatalf("write of a plan the store moved under: %v", err)
	}
	rows, err := store.Find(o.model, o.scope)
	if err != nil {
		t.Fatal(err)
	}
	var got, want [][]any
	for _, r := range rows {
		got = append(got, []any{r.Value("name"), r.Value("oper_status"), r.Value("last_change_unix")})
	}
	for i := 0; i < 4; i++ {
		status := "up"
		if i == 0 {
			status = "down"
		}
		want = append(want, []any{fmt.Sprintf("et%d", i+1), status, at.Add(time.Minute).Unix()})
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("after the re-planned write the rows are %v, want %v", got, want)
	}
}

// TestDerivedUnchangedStoreCommitsNothing guards the unchanged path: a
// 48-interface collection that repeats what is stored opens no
// transaction and allocates nothing — the memo compares the collection in
// place, so no observation, row, scope or boxed value is built.
func TestDerivedUnchangedStoreCommitsNothing(t *testing.T) {
	store, reg := derivedStore(t)
	backend := NewDerivedBackend(store, NewTimeseriesBackend())
	col := interfacesCollection("sw1", 48, "up", time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC))
	if err := backend.Store(col); err != nil {
		t.Fatal(err)
	}
	commits := reg.Counter("robotron_relstore_tx_commits_total", telemetry.L("server", "derived")...)
	before := commits.Value()
	allocs := testing.AllocsPerRun(50, func() {
		col.At = col.At.Add(time.Minute)
		if err := backend.Store(col); err != nil {
			t.Fatal(err)
		}
	})
	if n := commits.Value() - before; n != 0 {
		t.Errorf("unchanged stores committed %d transactions", n)
	}
	if allocs != 0 {
		t.Errorf("an unchanged 48-interface store allocates %v objects, want 0", allocs)
	}
}

// TestDerivedMemoIsPerServer: a table seq names a state only on the server
// that stamped it. A replica promoted without the master's last commit
// stamps a commit of its own with the same seq; the memo, which verified
// an observation on the old master at that seq, must not answer for the
// new one.
func TestDerivedMemoIsPerServer(t *testing.T) {
	store, _ := derivedStore(t)
	replica := relstore.NewReplica(store.DB(), "replica")
	if err := replica.CatchUp(); err != nil {
		t.Fatal(err)
	}
	at := time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC)
	up := interfacesCollection("sw1", 4, "up", at)
	backend := NewDerivedBackend(store, NewTimeseriesBackend())
	for i := 0; i < 2; i++ { // the first store writes, the second verifies
		if err := backend.Store(up); err != nil {
			t.Fatal(err)
		}
	}
	verifiedAt, err := store.TableSeq("DerivedInterface")
	if err != nil {
		t.Fatal(err)
	}
	store.DB().SetDown(true)
	promoted := store.ReadOnlyView(replica.Promote())
	if err := NewDerivedBackend(promoted, NewTimeseriesBackend()).Store(interfacesCollection("sw1", 4, "down", at)); err != nil {
		t.Fatal(err)
	}
	if seq, err := promoted.TableSeq("DerivedInterface"); seq != verifiedAt || err != nil {
		t.Fatalf("the promoted server's table seq is %d (%v), want the old master's %d", seq, err, verifiedAt)
	}
	backend.store = promoted
	if err := backend.Store(up); err != nil {
		t.Fatal(err)
	}
	et1, err := promoted.FindOne("DerivedInterface", fbnet.Eq("name", "et1"))
	if err != nil {
		t.Fatal(err)
	}
	if got := et1.String("oper_status"); got != "up" {
		t.Fatalf("after storing et1 up on the promoted server, it reads %s", got)
	}
}

// TestDerivedBackendConcurrentStores: one backend, and its memo, shared by
// goroutines storing at once — each flipping its own device, all
// repeating one shared device's collection. Every device ends as its last
// collection reports. Run under -race.
func TestDerivedBackendConcurrentStores(t *testing.T) {
	store, _ := derivedStore(t)
	backend := NewDerivedBackend(store, NewTimeseriesBackend())
	at := time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC)
	shared := interfacesCollection("shared", 8, "up", at)
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dev := fmt.Sprintf("sw%d", g)
			for i := 0; i < 40; i++ {
				status := []string{"up", "down"}[i/4%2]
				for _, col := range []Collection{interfacesCollection(dev, 8, status, at), shared} {
					if err := backend.Store(col); err != nil {
						errs <- err
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for g := 0; g < 4; g++ {
		et1, err := store.FindOne("DerivedInterface", fbnet.And(fbnet.Eq("device_name", fmt.Sprintf("sw%d", g)), fbnet.Eq("name", "et1")))
		if err != nil {
			t.Fatal(err)
		}
		if got := et1.String("oper_status"); got != "down" {
			t.Errorf("sw%d et1 is %s, want its last report, down", g, got)
		}
	}
	if rows, err := store.Find("DerivedInterface", fbnet.Eq("device_name", "shared")); err != nil || len(rows) != 8 {
		t.Fatalf("shared holds %d interfaces (%v), want 8", len(rows), err)
	}
}

// TestTimeseriesStoreIntoFullSeriesAllocatesNothing: once a device's
// series exist and their rings are full, storing a collection into them
// allocates nothing — no series key per sample.
func TestTimeseriesStoreIntoFullSeriesAllocatesNothing(t *testing.T) {
	ts := NewTimeseriesBackend()
	ifaces := interfacesCollection("sw1", 48, "up", time.Unix(1, 0))
	counters := Collection{Device: "sw1", Engine: EngineSNMP, Data: DataCounters, At: time.Unix(1, 0),
		Counters: map[string]float64{"cpu_util": 1, "mem_util": 2}}
	for i := 0; i < DefaultSeriesRetention; i++ {
		if err := ts.Store(ifaces); err != nil {
			t.Fatal(err)
		}
		if err := ts.Store(counters); err != nil {
			t.Fatal(err)
		}
	}
	for _, col := range []Collection{ifaces, counters} {
		if n := testing.AllocsPerRun(50, func() { ts.Store(col) }); n != 0 {
			t.Errorf("storing %s into full series allocates %v objects", col.Data, n)
		}
	}
}

// BenchmarkDerivedBackendStore stores a 48-interface collection that
// repeats what is stored (unchanged) or flips one interface's status each
// time (changed).
func BenchmarkDerivedBackendStore(b *testing.B) {
	at := time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC)
	for _, bc := range []struct {
		name  string
		flips []string
	}{
		{"unchanged", []string{"up"}},
		{"changed", []string{"down", "up"}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			store, _ := derivedStore(b)
			backend := NewDerivedBackend(store, NewTimeseriesBackend())
			var cols []Collection
			for _, s := range bc.flips {
				cols = append(cols, interfacesCollection("sw1", 48, s, at))
			}
			if err := backend.Store(interfacesCollection("sw1", 48, "up", at)); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				col := cols[i%len(cols)]
				col.At = at.Add(time.Duration(i) * time.Second)
				if err := backend.Store(col); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
