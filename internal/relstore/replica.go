package relstore

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/robotron-net/robotron/internal/telemetry"
)

// ErrMasterDown is returned by CatchUp when the master database is not
// serving: a dead master has no binlog to stream, and pretending
// otherwise would let replication read entries the real server could
// never have sent.
var ErrMasterDown = errors.New("relstore: master is down")

// Replica is an asynchronous follower of a master DB, mirroring FBNet's
// MySQL replication: "all writes to the master database server are
// replicated asynchronously to the slave servers with a typical lag of
// under one second" (§4.3.3).
//
// Replication is pull-based: CatchUp applies all pending binlog entries;
// StartAuto runs a background puller with a polling interval (the
// effective replication lag). Tests use CatchUp for determinism.
type Replica struct {
	master *DB

	mu      sync.Mutex
	db      *DB
	applied uint64
	stopCh  chan struct{}
	stopped sync.WaitGroup
	auto    bool
}

// NewReplica creates an empty replica of master named name. The replica
// converges by replaying the master's binlog from the beginning (schema
// changes included). It reports on the master's registry: its server's
// transaction counters, and, labeled with its name, a replication-lag
// gauge (master binlog seq − replica applied seq) and a health check
// that fails while the replica is down.
func NewReplica(master *DB, name string) *Replica {
	r := &Replica{master: master, db: newDB(name, master.reg)}
	reg := master.reg
	reg.Help("robotron_relstore_replication_lag", "binlog entries the replica is behind the master")
	reg.GaugeFunc("robotron_relstore_replication_lag",
		func() float64 { return float64(r.Lag()) },
		telemetry.Label{Key: "replica", Value: name})
	reg.RegisterHealth("relstore-replica-"+name, func() (string, error) {
		if !r.db.Healthy() {
			return "", fmt.Errorf("replica %s is down", name)
		}
		return fmt.Sprintf("lag=%d", r.Lag()), nil
	})
	return r
}

// DB returns the replica's database for (read-only) queries. Callers must
// not write to it; writes belong on the master.
func (r *Replica) DB() *DB { return r.db }

// Applied returns the last applied binlog sequence number.
func (r *Replica) Applied() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.applied
}

// Lag returns how many binlog entries the replica is behind the master.
func (r *Replica) Lag() uint64 {
	r.mu.Lock()
	applied := r.applied
	r.mu.Unlock()
	seq := r.master.Seq()
	if seq < applied {
		return 0
	}
	return seq - applied
}

// CatchUp applies all pending binlog entries from the master.
func (r *Replica) CatchUp() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.catchUpLocked()
}

func (r *Replica) catchUpLocked() error {
	if !r.db.Healthy() {
		return fmt.Errorf("relstore: replica %s is down", r.db.Name())
	}
	if !r.master.Healthy() {
		return fmt.Errorf("%w: replica %s cannot pull from %s", ErrMasterDown, r.db.Name(), r.master.Name())
	}
	entries := r.master.EntriesSince(r.applied)
	return r.applyGroupsLocked(entries)
}

// applyGroupsLocked replays entries transaction group by transaction
// group. Each group lands atomically on the local DB, so the replica is
// torn-transaction-free at every observable instant — including the
// instant Promote snapshots it into a master.
func (r *Replica) applyGroupsLocked(entries []LogEntry) error {
	for start := 0; start < len(entries); {
		if entries[start].Seq <= r.applied {
			start++
			continue
		}
		end := txGroupEnd(entries, start)
		if err := r.db.applyTxGroup(entries[start:end]); err != nil {
			return fmt.Errorf("relstore: replica %s: applying seq %d: %w", r.db.Name(), entries[start].Seq, err)
		}
		r.applied = entries[end-1].Seq
		start = end
	}
	return nil
}

// txGroupEnd returns the exclusive end of the transaction group opening
// at entries[start]. Entries without a TxID (legacy records) group alone.
func txGroupEnd(entries []LogEntry, start int) int {
	end := start + 1
	for end < len(entries) && entries[start].TxID != 0 && entries[end].TxID == entries[start].TxID {
		end++
	}
	return end
}

// ApplyN applies at least n pending entries, rounded up to the next
// transaction boundary (partial transactions never apply), for tests
// that need to observe intermediate replication states.
func (r *Replica) ApplyN(n int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	entries := r.master.EntriesSince(r.applied)
	if n <= 0 || len(entries) == 0 {
		return nil
	}
	end := n
	if end > len(entries) {
		end = len(entries)
	}
	for end < len(entries) && entries[end].TxID != 0 && entries[end].TxID == entries[end-1].TxID {
		end++
	}
	return r.applyGroupsLocked(entries[:end])
}

// StartAuto begins background replication, pulling every interval.
func (r *Replica) StartAuto(interval time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.auto {
		return
	}
	r.auto = true
	r.stopCh = make(chan struct{})
	r.stopped.Add(1)
	go func() {
		defer r.stopped.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-r.stopCh:
				return
			case <-t.C:
				r.mu.Lock()
				if r.db.Healthy() && r.master.Healthy() {
					// Best-effort: a failed pull retries next tick.
					_ = r.catchUpLocked()
				}
				r.mu.Unlock()
			}
		}
	}()
}

// StopAuto halts background replication.
func (r *Replica) StopAuto() {
	r.mu.Lock()
	if !r.auto {
		r.mu.Unlock()
		return
	}
	r.auto = false
	close(r.stopCh)
	r.mu.Unlock()
	r.stopped.Wait()
}

// Promote catches the replica up as far as the master allows (a dead
// master yields whatever has already been applied) and returns the
// underlying DB to serve as the new master, which from now on also
// exports its binlog sequence. The caller owns re-pointing other replicas
// at it, and they report on the registry it counts into. Mirrors §4.3.3:
// "when the master goes down, the slave in the nearest data center is
// promoted to master".
func (r *Replica) Promote() *DB {
	r.StopAuto()
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.master.Healthy() {
		_ = r.catchUpLocked()
	}
	r.db.exportSeq()
	return r.db
}

// applyTxGroup replays the binlog records of one transaction under a
// single lock acquisition and a single liveness check: the group lands
// atomically or not at all (a SetDown racing the apply waits for the
// whole group). A replica killed mid-stream therefore can never hold a
// torn transaction suffix.
func (db *DB) applyTxGroup(entries []LogEntry) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return fmt.Errorf("relstore: %s is down", db.name)
	}
	tables := db.writeSet()
	for _, e := range entries {
		// Constraints were validated on the master, so replay maintains
		// rows and indexes directly (applyEntryToTables, shared with the
		// spare's catch-up).
		if err := applyEntryToTables(tables, e); err != nil {
			return err
		}
		db.seq = e.Seq
		if e.TxID > db.txSeq {
			// Keep the tx counter monotonic so transactions committed
			// after a promotion stamp fresh group ids.
			db.txSeq = e.TxID
		}
	}
	// The group also lands on the local binlog — atomically, like a local
	// commit — so the replica can itself be a replication source after
	// promotion and its own epoch readers never see a torn group.
	db.publish(entries...)
	return nil
}
