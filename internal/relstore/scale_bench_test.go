package relstore

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"testing"
)

// The scale benchmarks measure the read path of one FBNet store server at
// row counts matching 256-16384-device fleets, both uncontended and — the
// case that matters for query storms — while a writer is continuously
// committing transactions. The 16384 size is gated behind
// ROBOTRON_BENCH_LARGE=1; `make bench-scale` sets the variable.

func scaleRowSizes() []int {
	sizes := []int{256, 4096}
	if os.Getenv("ROBOTRON_BENCH_LARGE") == "1" {
		sizes = append(sizes, 16384)
	}
	return sizes
}

// buildScaleDB creates a device table with n rows spread over n/64 sites.
func buildScaleDB(tb testing.TB, n int) *DB {
	tb.Helper()
	db := NewDB("bench-master")
	err := db.CreateTable(TableDef{
		Name: "device",
		Columns: []Column{
			{Name: "name", Type: ColString, Unique: true},
			{Name: "site", Type: ColString, Indexed: true},
			{Name: "role", Type: ColString},
			{Name: "version", Type: ColInt, Nullable: true},
		},
	})
	if err != nil {
		tb.Fatal(err)
	}
	sites := n / 64
	if sites == 0 {
		sites = 1
	}
	err = db.WithTx(func(tx *Tx) error {
		for i := 0; i < n; i++ {
			_, err := tx.Insert("device", map[string]any{
				"name": fmt.Sprintf("dev%06d", i),
				"site": fmt.Sprintf("site%04d", i%sites),
				"role": "bb",
			})
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		tb.Fatal(err)
	}
	return db
}

// readMix is one benchmark read operation: a point Get, a unique lookup,
// and an indexed site lookup — the planner's bread and butter.
func readMix(b *testing.B, db *DB, i, n int) {
	id := int64(i%n) + 1
	if _, err := db.Get("device", id); err != nil {
		b.Fatal(err)
	}
	if _, _, err := db.LookupUnique("device", "name", fmt.Sprintf("dev%06d", i%n)); err != nil {
		b.Fatal(err)
	}
	if _, err := db.LookupIndexed("device", "site", "site0000"); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkScaleRelstoreRead is the uncontended parallel read path.
func BenchmarkScaleRelstoreRead(b *testing.B) {
	for _, n := range scaleRowSizes() {
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			db := buildScaleDB(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					readMix(b, db, i, n)
					i++
				}
			})
		})
	}
}

// BenchmarkScaleRelstoreReadUnderWriter measures read latency while one
// writer commits single-row update transactions in a tight loop — the
// query-storm-during-deployment case. Under the original RWMutex design
// every read serialized against every write transaction (which holds the
// write lock from Begin to Commit); the epoch read path never blocks.
func BenchmarkScaleRelstoreReadUnderWriter(b *testing.B) {
	for _, n := range scaleRowSizes() {
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			db := buildScaleDB(b, n)
			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				v := int64(0)
				for {
					select {
					case <-stop:
						return
					default:
					}
					v++
					err := db.WithTx(func(tx *Tx) error {
						return tx.Update("device", int64(v%int64(n))+1, map[string]any{"version": v})
					})
					if err != nil {
						panic(err)
					}
				}
			}()
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					readMix(b, db, i, n)
					i++
				}
			})
			b.StopTimer()
			close(stop)
			wg.Wait()
		})
	}
}

// TestStoreAllocationGuard pins what storing each committed row once buys:
// BenchmarkInsert's operation (one insert, one commit) allocates at most 12
// objects, and a 10,000-row table — both table sets caught up, the binlog
// holding every insert — retains under retainedPerRowMax bytes per row,
// indexes included.
func TestStoreAllocationGuard(t *testing.T) {
	db := newTestDB(t)
	i := 0
	allocs := testing.AllocsPerRun(500, func() {
		i++
		err := db.WithTx(func(tx *Tx) error {
			_, err := tx.Insert("device", map[string]any{"name": fmt.Sprintf("d%d", i), "role": "psw"})
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 12 {
		t.Errorf("insert + commit allocates %v objects, want <= 12", allocs)
	}

	// With every row held four times (write side, log entry, two epochs)
	// this measured 1,741 bytes per row; stored once, 650. The bound is 60 %
	// of the former.
	const rows, retainedPerRowMax = 10000, 1044
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	big := buildScaleDB(t, rows)
	err := big.WithTx(func(tx *Tx) error { // a second commit: the other set catches up
		return tx.Update("device", 1, map[string]any{"version": int64(1)})
	})
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	perRow := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / rows
	t.Logf("insert + commit: %v allocs; %d-row table retains %d bytes/row", allocs, rows, perRow)
	if perRow >= retainedPerRowMax {
		t.Errorf("a %d-row table retains %d bytes per row, want < %d", rows, perRow, retainedPerRowMax)
	}
	runtime.KeepAlive(big)
}
