package relstore

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
)

// newPairDB creates a table holding two rows whose "val" columns always
// sum to zero — every writer transaction updates both rows in one group,
// so any transaction-consistent snapshot preserves the invariant and any
// torn read breaks it.
func newPairDB(t *testing.T) *DB {
	t.Helper()
	db := NewDB("epoch-test")
	err := db.CreateTable(TableDef{
		Name: "pair",
		Columns: []Column{
			{Name: "val", Type: ColInt},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	err = db.WithTx(func(tx *Tx) error {
		for i := 0; i < 2; i++ {
			if _, err := tx.Insert("pair", map[string]any{"val": int64(0)}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// checkPair asserts the snapshot invariant on one read.
func checkPair(t *testing.T, db *DB, who string) {
	t.Helper()
	rows, err := db.Select("pair", nil)
	if err != nil {
		t.Errorf("%s: %v", who, err)
		return
	}
	if len(rows) != 2 {
		t.Errorf("%s: %d rows, want 2", who, len(rows))
		return
	}
	sum := rows[0].Values["val"].(int64) + rows[1].Values["val"].(int64)
	if sum != 0 {
		t.Errorf("%s: torn read: val sum = %d (rows %v)", who, sum, rows)
	}
}

// TestEpochReadsNoTornTransactions hammers the lock-free read path while
// a writer commits two-row transactions that keep the rows' values
// summing to zero. A reader observing a half-applied transaction would
// see a nonzero sum. Run with -race this also proves the epoch handoff
// is data-race-free.
func TestEpochReadsNoTornTransactions(t *testing.T) {
	db := newPairDB(t)
	const readers = 4
	const writes = 2000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				checkPair(t, db, fmt.Sprintf("reader%d", r))
				if _, err := db.Get("pair", int64(i%2)+1); err != nil {
					t.Errorf("reader%d: %v", r, err)
				}
			}
		}(r)
	}
	for v := int64(1); v <= writes; v++ {
		err := db.WithTx(func(tx *Tx) error {
			if err := tx.Update("pair", 1, map[string]any{"val": v}); err != nil {
				return err
			}
			return tx.Update("pair", 2, map[string]any{"val": -v})
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestEpochReadYourWrites: a committed transaction must be visible to a
// Get issued by the same goroutine immediately after Commit returns,
// even with other readers keeping epochs pinned.
func TestEpochReadYourWrites(t *testing.T) {
	db := newPairDB(t)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			checkPair(t, db, "background reader")
		}
	}()
	for v := int64(1); v <= 500; v++ {
		err := db.WithTx(func(tx *Tx) error {
			if err := tx.Update("pair", 1, map[string]any{"val": v}); err != nil {
				return err
			}
			return tx.Update("pair", 2, map[string]any{"val": -v})
		})
		if err != nil {
			t.Fatal(err)
		}
		row, err := db.Get("pair", 1)
		if err != nil {
			t.Fatal(err)
		}
		if got := row.Values["val"].(int64); got != v {
			t.Fatalf("read-your-writes violated: wrote %d, read %d", v, got)
		}
	}
	close(stop)
	wg.Wait()
}

// TestReplicaEpochConsistencyAndPromotion replays the master's binlog
// onto a replica while readers query the replica, then promotes it and
// keeps writing. The sum invariant must hold at every observable
// instant: during catch-up (groups land atomically), at the promotion
// snapshot, and on the promoted master afterward.
func TestReplicaEpochConsistencyAndPromotion(t *testing.T) {
	master := newPairDB(t)
	rep := NewReplica(master, "replica-1")
	if err := rep.CatchUp(); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	// Replica-side readers: must never see a torn group.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if rows, err := rep.DB().Select("pair", nil); err == nil && len(rows) == 2 {
					sum := rows[0].Values["val"].(int64) + rows[1].Values["val"].(int64)
					if sum != 0 {
						t.Errorf("replica reader%d: torn group: sum=%d", r, sum)
					}
				}
			}
		}(r)
	}
	// Replication puller racing the readers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := rep.CatchUp(); err != nil {
				t.Errorf("catchup: %v", err)
				return
			}
		}
	}()
	for v := int64(1); v <= 1000; v++ {
		err := master.WithTx(func(tx *Tx) error {
			if err := tx.Update("pair", 1, map[string]any{"val": v}); err != nil {
				return err
			}
			return tx.Update("pair", 2, map[string]any{"val": -v})
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}

	// Promote and verify the snapshot and continued writes.
	master.SetDown(true)
	promoted := rep.Promote()
	checkPair(t, promoted, "promoted snapshot")
	for v := int64(2000); v < 2100; v++ {
		err := promoted.WithTx(func(tx *Tx) error {
			if err := tx.Update("pair", 1, map[string]any{"val": v}); err != nil {
				return err
			}
			return tx.Update("pair", 2, map[string]any{"val": -v})
		})
		if err != nil {
			t.Fatal(err)
		}
		checkPair(t, promoted, "promoted master")
	}
	row, err := promoted.Get("pair", 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := row.Values["val"].(int64); got != 2099 {
		t.Fatalf("promoted master lost writes: val=%d, want 2099", got)
	}
}

// TestEntriesSinceSharesAnImmutableSuffix: followers are handed the log's
// own suffix, not a copy. That is safe only while nothing they can do with
// the slice reaches the log — an append through it must reallocate
// (cap == len) — and while a suffix taken earlier keeps reading the entries
// it was taken over however far the log has grown since.
func TestEntriesSinceSharesAnImmutableSuffix(t *testing.T) {
	db := newPairDB(t)
	bump := func(v int64) {
		t.Helper()
		err := db.WithTx(func(tx *Tx) error { return tx.Update("pair", 1, map[string]any{"val": v}) })
		if err != nil {
			t.Fatal(err)
		}
	}
	bump(1)
	early := db.EntriesSince(0)
	if len(early) == 0 || cap(early) != len(early) {
		t.Fatalf("suffix len=%d cap=%d: an append through it would land in the log", len(early), cap(early))
	}
	want := append([]LogEntry(nil), early...)
	_ = append(early, LogEntry{Seq: 999, Table: "forged"})
	for i := int64(2); i < 200; i++ { // far enough for the log to reallocate
		bump(i)
	}
	if !reflect.DeepEqual(early, want) {
		t.Error("a suffix taken before later commits no longer reads its original entries")
	}
	if db.ReadSeq() != db.Seq() {
		t.Errorf("read path at seq %d after the commit at %d returned", db.ReadSeq(), db.Seq())
	}
	all := db.EntriesSince(0)
	if uint64(len(all)) != db.Seq() {
		t.Fatalf("log holds %d entries at seq %d", len(all), db.Seq())
	}
	for i, e := range all {
		if e.Seq != uint64(i+1) || e.Table == "forged" {
			t.Fatalf("log entry %d = %+v after appending through a follower's slice", i, e)
		}
	}
	if tail := db.EntriesSince(db.Seq() - 3); len(tail) != 3 || &tail[0] != &all[len(all)-3] {
		t.Error("EntriesSince copied the log instead of sharing it")
	}
	if n := testing.AllocsPerRun(100, func() { db.EntriesSince(db.Seq() / 2) }); n != 0 {
		t.Errorf("EntriesSince allocates %v times per call", n)
	}
}

// TestCommittedRowIsStoredOnce: a committed row is one map, shared by the
// published table set, the spare, the binlog entry that inserted it and a
// caught-up replica. An update installs a different map and leaves the
// shared one — and so the insert's log entry — as it was.
func TestCommittedRowIsStoredOnce(t *testing.T) {
	db := newTestDB(t)
	rep := NewReplica(db, "replica-1")
	id := insertDevice(t, db, "psw1.pop1")
	insertDevice(t, db, "psw2.pop1") // the next writer replays the first insert onto the other set
	if err := rep.CatchUp(); err != nil {
		t.Fatal(err)
	}
	mapID := func(m map[string]any) uintptr { return reflect.ValueOf(m).Pointer() }
	stored := func(d *DB) (published, spare map[string]any) {
		return d.epochPtr.Load().tables["device"].rows[id], d.spare.tables["device"].rows[id]
	}
	var insert LogEntry
	for _, e := range db.EntriesSince(0) {
		if e.Op == OpInsert && e.Table == "device" && e.RowID == id {
			insert = e
		}
	}
	pub, spare := stored(db)
	repPub, _ := stored(rep.DB())
	for where, m := range map[string]map[string]any{"spare": spare, "log entry": insert.Values, "replica": repPub} {
		if m == nil || mapID(m) != mapID(pub) {
			t.Errorf("the %s holds its own copy of the row (%v), not the published set's map", where, m)
		}
	}

	err := db.WithTx(func(tx *Tx) error { return tx.Update("device", id, map[string]any{"role": "rsw"}) })
	if err != nil {
		t.Fatal(err)
	}
	insertDevice(t, db, "psw3.pop1")
	pub, spare = stored(db)
	for where, m := range map[string]map[string]any{"published set": pub, "spare": spare} {
		if mapID(m) == mapID(insert.Values) || m["role"] != "rsw" {
			t.Errorf("after an update the %s reads %v from the map the insert shared", where, m)
		}
	}
	if insert.Values["role"] != "psw" {
		t.Errorf("the update rewrote the insert's log entry: %v", insert.Values)
	}
	if err := rep.CatchUp(); err != nil {
		t.Fatal(err)
	}
	if row, err := rep.DB().Get("device", id); err != nil || row.String("role") != "rsw" {
		t.Errorf("replica reads %v, %v after the update", row, err)
	}
}

// TestPinnedReaderDelaysCommitNotReads: a Select still running on the
// epoch a commit replaces holds that commit — which must drain the old set
// before the next writer can have it — but not a Get, which lands on the
// epoch the commit has already published.
func TestPinnedReaderDelaysCommitNotReads(t *testing.T) {
	db := newPairDB(t)
	entered, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	selected := make(chan error, 1)
	go func() {
		_, err := db.Select("pair", func(Row) bool {
			once.Do(func() { close(entered) })
			<-release
			return true
		})
		selected <- err
	}()
	<-entered
	committed := make(chan error, 1)
	go func() {
		committed <- db.WithTx(func(tx *Tx) error {
			if err := tx.Update("pair", 1, map[string]any{"val": int64(7)}); err != nil {
				return err
			}
			return tx.Update("pair", 2, map[string]any{"val": int64(-7)})
		})
	}()
	for db.ReadSeq() != db.Seq() || db.Seq() < 5 { // 1 DDL + 2 inserts + this group of 2
		runtime.Gosched()
	}
	if row, err := db.Get("pair", 1); err != nil || row.Int("val") != 7 {
		t.Errorf("Get beside the pinned reader = %v, %v; want the committed val 7", row, err)
	}
	select {
	case err := <-committed:
		t.Errorf("Commit returned (%v) while a reader still pinned the set the next writer needs", err)
	default:
	}
	close(release)
	if err := <-committed; err != nil {
		t.Error(err)
	}
	if err := <-selected; err != nil {
		t.Error(err)
	}
}
