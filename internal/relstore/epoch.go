package relstore

import (
	"fmt"
	"runtime"
	"sync/atomic"
)

// epoch is one of the two table sets of a DB (a left-right pair): one is
// published for readers, the other is the spare the writer holding db.mu
// writes. Readers access the published epoch lock-free — an atomic pointer
// load plus a reference count — and never block behind write
// transactions. A writer first replays onto the spare the one group it
// missed (the previous writer's, committed while this set was the
// published one), writes it directly, and on commit publishes it with an
// atomic pointer swap; the previous epoch becomes the spare once its last
// reader leaves. An epoch is only ever mutated while unpublished and
// reference-free, so readers never observe a store mid-apply; and because
// a writer's whole group is in the set before the swap, every epoch is
// transaction-consistent (no torn reads).
//
// Rows are immutable once stored (the row rule): an insert stores a fresh
// map and an update installs a new one, so both sets, the binlog entry
// that inserted a row, every in-process replica and every View hold the
// same map, and no row is ever copied.
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

// writeSet returns the spare's tables for the caller, who holds db.mu, to
// write directly, after replaying onto them the entries committed since
// that set was last written: the previous writer's group.
func (db *DB) writeSet() map[string]*table {
	w := db.spare
	for _, e := range db.EntriesSince(w.seq) {
		// Entries were validated when first committed; replay cannot fail.
		if err := applyEntryToTables(w.tables, e); err != nil {
			panic(fmt.Sprintf("relstore: %s: replay of seq %d: %v", db.name, e.Seq, err))
		}
		w.seq = e.Seq
	}
	return w.tables
}

// publish commits what the caller, who holds db.mu, wrote to the spare:
// the entries go to the binlog, the spare is swapped in as the read epoch,
// and the previous epoch becomes the next spare once the readers pinned
// to it have left. Waiting for them under mu costs nothing the next writer
// would not pay — it needs that drained set before it can write. They are
// short point reads, so spin rather than pay for a heavier handoff; new
// readers land on the published epoch and never delay us further.
func (db *DB) publish(entries ...LogEntry) {
	db.binlogMu.Lock()
	db.binlog = append(db.binlog, entries...)
	db.binlogMu.Unlock()
	// A reader that observes the new watermark finds every entry up to it
	// in the log.
	db.committed.Store(db.seq)
	db.spare.seq = db.seq
	prev := db.epochPtr.Swap(db.spare)
	for prev.refs.Load() != 0 {
		runtime.Gosched()
	}
	db.spare = prev
}

// applyEntryToTables replays one binlog record onto a table set and
// stamps the table it names with the record's Seq. Constraints were
// validated when the entry was first committed, so this path maintains
// rows and indexes directly. Shared by the spare's catch-up and replica
// replication.
func applyEntryToTables(tables map[string]*table, e LogEntry) error {
	switch e.Op {
	case OpCreateTable:
		if e.Def == nil {
			return fmt.Errorf("CREATE TABLE entry without definition")
		}
		if _, dup := tables[e.Table]; dup {
			return fmt.Errorf("table %q already exists", e.Table)
		}
		addTable(tables, *e.Def)
	case OpInsert:
		t, ok := tables[e.Table]
		if !ok {
			return fmt.Errorf("no such table %q", e.Table)
		}
		t.restoreRow(e.RowID, e.Values)
	case OpUpdate:
		t, ok := tables[e.Table]
		if !ok {
			return fmt.Errorf("no such table %q", e.Table)
		}
		if _, ok := t.rows[e.RowID]; !ok {
			return fmt.Errorf("%s: no row with id %d", e.Table, e.RowID)
		}
		t.applyUpdate(e.RowID, e.Values)
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
	tables[e.Table].seq = e.Seq
	return nil
}
