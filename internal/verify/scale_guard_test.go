//go:build !race

package verify

import (
	"runtime"
	"testing"
)

// Not under the race detector: it makes sync.Pool drop objects at random,
// so the regexp matcher reallocates its state on every line and the
// allocation counts say nothing about the gate.

// TestVerifyCheckScaleGuard pins, on the benchmark's 512-device world,
// what a warm gate run may cost in allocations and what the resident
// model may hold: the full reload this replaced allocated ~130 MB per run
// at this size, and the benchmark's live-heap bounds leave the model
// 8 MB.
func TestVerifyCheckScaleGuard(t *testing.T) {
	f := newDCFleet(t, 512)
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	c := NewChecker(f.store, f.g.Golden, nil)
	if res, err := c.Check(nil); err != nil || !res.Pass() {
		t.Fatalf("warming check: res=%+v err=%v", res, err)
	}
	if model := float64(heap()-before) / (1 << 20); model > 8 {
		t.Errorf("resident model of a 512-device fleet holds %.1f MB, want <= 8", model)
	} else {
		t.Logf("resident model: %.1f MB", model)
	}
	runtime.KeepAlive(c)

	const runs = 8
	var mallocs, bytes uint64
	for i := 0; i < runs; i++ {
		configs, undo := f.addRack(t, i)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		res, err := c.Check(configs)
		runtime.ReadMemStats(&m1)
		if err != nil || !res.Pass() || res.Rebuilt {
			t.Fatalf("check: res=%+v err=%v", res, err)
		}
		mallocs += m1.Mallocs - m0.Mallocs
		bytes += m1.TotalAlloc - m0.TotalAlloc
		undo()
	}
	t.Logf("warm check: %d allocs, %d KB per run", mallocs/runs, bytes/runs>>10)
	// Measured ~1,350 allocs / ~260 KB per run (the line split of 17
	// configs, the delta's entry slice, the valid-name sets); the bounds
	// leave 3x headroom and still sit two orders of magnitude under one
	// table scan.
	if mallocs/runs > 4000 || bytes/runs > 800<<10 {
		t.Errorf("warm check costs %d allocs / %d KB per run, want <= 4000 allocs / 800 KB", mallocs/runs, bytes/runs>>10)
	}
}
