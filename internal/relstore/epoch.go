package relstore

import (
	"fmt"
	"runtime"
	"sync/atomic"
)

// epoch is one of the two read stores of a DB (a left-right pair).
// Readers access the published epoch lock-free — an atomic pointer load
// plus a reference count — and never block behind write transactions.
// Committers advance the pair: the spare store catches up by replaying
// the binlog delta, gets published with an atomic pointer swap, and the
// previous store becomes the spare once its last reader leaves. An epoch
// is only ever mutated while unpublished and reference-free, so readers
// never observe a store mid-apply; and because commits append whole
// transaction groups to the binlog atomically, every replayed prefix —
// and therefore every epoch — is transaction-consistent (no torn reads).
type epoch struct {
	seq    uint64 // binlog sequence this store reflects
	tables map[string]*table
	refs   atomic.Int64 // readers currently inside this epoch
}

// release marks the caller done reading the epoch.
func (e *epoch) release() { e.refs.Add(-1) }

// readEpoch pins and returns the published epoch; callers must release()
// it. The epoch reflects every transaction whose Commit returned before
// this call (Commit publishes before returning), so read-your-writes
// holds. The fast path is two atomic pointer loads and a counter
// increment — no mutex, no waiting on writers.
func (db *DB) readEpoch() *epoch {
	for {
		e := db.epochPtr.Load()
		e.refs.Add(1)
		// Re-check after pinning: if the pointer moved, the committer may
		// have recycled e as the spare the instant before our increment
		// landed; drop the pin and retry. If it still points at e, the
		// publish of any successor (and thus any recycling of e) happened
		// after our increment, so the drain loop sees our pin — and if e
		// was re-published after a round as the spare, its mutations
		// happened before that publish and are visible.
		if db.epochPtr.Load() == e {
			return e
		}
		e.refs.Add(-1)
	}
}

// advanceEpochs brings the published epoch to at least target by
// replaying the binlog delta onto the spare store and swapping it in.
// Called by committers after their group is in the binlog; epochMu
// serializes concurrent committers, and a committer whose target was
// already covered by a concurrent advance returns immediately.
func (db *DB) advanceEpochs(target uint64) {
	db.epochMu.Lock()
	defer db.epochMu.Unlock()
	cur := db.epochPtr.Load()
	if cur.seq >= target {
		return
	}
	next := db.spare
	db.spare = nil
	for _, e := range db.EntriesSince(next.seq) {
		// Entries were validated when first committed; replay onto the
		// read store cannot fail.
		if err := applyEntryToTables(next.tables, e); err != nil {
			panic(fmt.Sprintf("relstore: %s: epoch replay of seq %d: %v", db.name, e.Seq, err))
		}
		next.seq = e.Seq
	}
	db.epochPtr.Store(next)
	// Readers pinned the old epoch before the swap; they are short point
	// reads, so spin-wait for them to drain rather than paying for a
	// heavier handoff. New readers land on the published epoch and never
	// delay us further.
	for cur.refs.Load() != 0 {
		runtime.Gosched()
	}
	db.spare = cur
}

// applyEntryToTables replays one binlog record onto a table set.
// Constraints were validated when the entry was first committed, so this
// path maintains rows and indexes directly. Shared by the epoch builder
// and replica replication.
func applyEntryToTables(tables map[string]*table, e LogEntry) error {
	switch e.Op {
	case OpCreateTable:
		if e.Def == nil {
			return fmt.Errorf("CREATE TABLE entry without definition")
		}
		if _, dup := tables[e.Table]; dup {
			return fmt.Errorf("table %q already exists", e.Table)
		}
		tables[e.Table] = newTable(*e.Def)
	case OpInsert:
		t, ok := tables[e.Table]
		if !ok {
			return fmt.Errorf("no such table %q", e.Table)
		}
		t.restoreRow(e.RowID, copyValues(e.Values))
	case OpUpdate:
		t, ok := tables[e.Table]
		if !ok {
			return fmt.Errorf("no such table %q", e.Table)
		}
		if _, ok := t.rows[e.RowID]; !ok {
			return fmt.Errorf("%s: no row with id %d", e.Table, e.RowID)
		}
		t.applyUpdate(e.RowID, copyValues(e.Values))
	case OpDelete:
		t, ok := tables[e.Table]
		if !ok {
			return fmt.Errorf("no such table %q", e.Table)
		}
		t.removeRow(e.RowID)
	case OpAlterAddColumn:
		t, ok := tables[e.Table]
		if !ok {
			return fmt.Errorf("no such table %q", e.Table)
		}
		if e.Col == nil {
			return fmt.Errorf("ALTER entry without column")
		}
		if err := t.addColumn(*e.Col); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown op %d", e.Op)
	}
	return nil
}
