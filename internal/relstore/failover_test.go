package relstore

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

// pairDB creates a master with one two-column table used for pair-insert
// transactions: every transaction inserts a row in "a" and a row in "b"
// with the same tag, so a torn transaction is detectable as a tag
// present in one table but not the other.
func pairDB(t testing.TB) *DB {
	t.Helper()
	db := NewDB("pair-master", nil)
	for _, name := range []string{"a", "b"} {
		if err := db.CreateTable(TableDef{
			Name:    name,
			Columns: []Column{{Name: "tag", Type: ColString, Unique: true}},
		}); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func insertPair(db *DB, tag string) error {
	return db.WithTx(func(tx *Tx) error {
		if _, err := tx.Insert("a", map[string]any{"tag": tag}); err != nil {
			return err
		}
		_, err := tx.Insert("b", map[string]any{"tag": tag})
		return err
	})
}

// tags returns the set of tags present in the named table. A table the
// replica has not created yet (replication stopped before the schema
// entries) reads as empty.
func tags(t testing.TB, db *DB, table string) map[string]bool {
	t.Helper()
	out := map[string]bool{}
	err := db.WithTx(func(tx *Tx) error {
		v, err := tx.View()
		if err != nil {
			return err
		}
		rows, err := v.Select(table, nil)
		if err != nil {
			return nil // table not replicated yet: empty
		}
		for _, r := range rows {
			out[r.String("tag")] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// assertNoTornPairs fails if any transaction applied partially.
func assertNoTornPairs(t testing.TB, db *DB, context string) {
	t.Helper()
	as, bs := tags(t, db, "a"), tags(t, db, "b")
	for tag := range as {
		if !bs[tag] {
			t.Errorf("%s: torn transaction: %q in a but not b", context, tag)
		}
	}
	for tag := range bs {
		if !as[tag] {
			t.Errorf("%s: torn transaction: %q in b but not a", context, tag)
		}
	}
}

// TestReplicaNeverHoldsTornTransaction steps replication entry-window by
// entry-window: whatever prefix the replica has applied, a transaction is
// always whole (ApplyN rounds up to the tx boundary).
func TestReplicaNeverHoldsTornTransaction(t *testing.T) {
	db := pairDB(t)
	for i := 0; i < 8; i++ {
		if err := insertPair(db, fmt.Sprintf("t%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	rep := NewReplica(db, "pair-replica")
	for {
		before := rep.Applied()
		if err := rep.ApplyN(1); err != nil {
			t.Fatal(err)
		}
		assertNoTornPairs(t, rep.DB(), fmt.Sprintf("after seq %d", rep.Applied()))
		if rep.Applied() == before {
			break // caught up
		}
	}
	if got := len(tags(t, rep.DB(), "a")); got != 8 {
		t.Errorf("replica has %d pairs, want 8", got)
	}
}

// TestPromoteUnderConcurrentMasterWrites hammers the master with
// pair-inserts while a replica replicates and is promoted mid-stream.
// The promoted DB must hold only whole transactions.
func TestPromoteUnderConcurrentMasterWrites(t *testing.T) {
	db := pairDB(t)
	rep := NewReplica(db, "pair-replica")

	const writers, perWriter = 4, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				_ = insertPair(db, fmt.Sprintf("w%d-%d", w, i))
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			_ = rep.CatchUp()
		}
	}()
	wg.Wait()
	<-done

	promoted := rep.Promote()
	assertNoTornPairs(t, promoted, "promoted DB")
	// Promote with a healthy master catches all the way up.
	if got, want := len(tags(t, promoted, "a")), writers*perWriter; got != want {
		t.Errorf("promoted DB has %d pairs, want %d", got, want)
	}
	// The promoted DB accepts new transactions with fresh tx ids.
	if err := insertPair(promoted, "post-promotion"); err != nil {
		t.Fatalf("write after promotion: %v", err)
	}
	assertNoTornPairs(t, promoted, "after post-promotion write")
}

// TestPromoteAfterMidStreamMasterDeath kills the master midway through
// replication; the replica promotes with whatever prefix it has, and
// that prefix must contain no torn transaction suffix.
func TestPromoteAfterMidStreamMasterDeath(t *testing.T) {
	db := pairDB(t)
	for i := 0; i < 10; i++ {
		if err := insertPair(db, fmt.Sprintf("t%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	rep := NewReplica(db, "pair-replica")
	// Apply roughly half the stream, then the master dies.
	if err := rep.ApplyN(11); err != nil {
		t.Fatal(err)
	}
	db.SetDown(true)
	if err := rep.CatchUp(); err == nil {
		t.Fatal("CatchUp from a dead master should error")
	} else if got := fmt.Sprint(err); got == "" {
		t.Fatal("empty error")
	}
	promoted := rep.Promote()
	assertNoTornPairs(t, promoted, "promoted after master death")
	n := len(tags(t, promoted, "a"))
	if n == 0 || n > 10 {
		t.Errorf("promoted DB has %d pairs, want 1..10 (a prefix)", n)
	}
	// The new master serves reads and writes.
	if err := insertPair(promoted, "after-death"); err != nil {
		t.Fatalf("write on promoted master: %v", err)
	}
}

// TestCatchUpReturnsErrMasterDown pins the sentinel contract the service
// layer's failover watcher relies on.
func TestCatchUpReturnsErrMasterDown(t *testing.T) {
	db := pairDB(t)
	rep := NewReplica(db, "r")
	db.SetDown(true)
	err := rep.CatchUp()
	if err == nil {
		t.Fatal("want error")
	}
	if !errors.Is(err, ErrMasterDown) {
		t.Errorf("err = %v, want ErrMasterDown", err)
	}
}

// TestSetDownWaitsForWholeTxGroup races SetDown against group applies:
// at no instant may the replica expose a torn group even if the DB is
// marked down mid-apply.
func TestSetDownWaitsForWholeTxGroup(t *testing.T) {
	db := pairDB(t)
	for i := 0; i < 50; i++ {
		if err := insertPair(db, fmt.Sprintf("t%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	rep := NewReplica(db, "r")
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = rep.CatchUp()
	}()
	rep.DB().SetDown(true) // may land mid-stream
	<-done
	rep.DB().SetDown(false)
	// Whatever prefix landed before the shutdown, it ends on a tx
	// boundary.
	assertNoTornPairs(t, rep.DB(), "after racing SetDown")
	if err := rep.CatchUp(); err != nil {
		t.Fatal(err)
	}
	assertNoTornPairs(t, rep.DB(), "after final catch-up")
	if got := len(tags(t, rep.DB(), "a")); got != 50 {
		t.Errorf("replica has %d pairs after recovery, want 50", got)
	}
}
