package vclock

import (
	"sync"
	"testing"
	"time"
)

var epoch = time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC)

func TestAdvanceFiresInDueThenSeqOrder(t *testing.T) {
	c := NewVirtualClock(epoch)
	var got []int
	c.AfterFunc(20*time.Millisecond, func() { got = append(got, 2) })
	c.AfterFunc(10*time.Millisecond, func() { got = append(got, 0) })
	c.AfterFunc(10*time.Millisecond, func() { got = append(got, 1) })
	c.Advance(time.Second)
	want := []int{0, 1, 2}
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			t.Fatalf("fire order = %v, want %v", got, want)
		}
	}
	if c.PendingTimers() != 0 {
		t.Errorf("pending timers = %d, want 0", c.PendingTimers())
	}
}

func TestCallbackSchedulesWithinSpan(t *testing.T) {
	c := NewVirtualClock(epoch)
	fired := 0
	c.AfterFunc(time.Millisecond, func() {
		fired++
		c.AfterFunc(time.Millisecond, func() { fired++ })
	})
	c.Advance(time.Second)
	if fired != 2 {
		t.Fatalf("fired = %d, want 2 (chained timer inside the span)", fired)
	}
	if got := c.Now(); !got.Equal(epoch.Add(time.Second)) {
		t.Errorf("now = %v, want %v", got, epoch.Add(time.Second))
	}
}

func TestStopPreventsFiring(t *testing.T) {
	c := NewVirtualClock(epoch)
	fired := false
	tm := c.AfterFunc(time.Millisecond, func() { fired = true })
	if !tm.Stop() {
		t.Fatal("Stop on a pending timer should report true")
	}
	if tm.Stop() {
		t.Fatal("second Stop should report false")
	}
	c.Advance(time.Second)
	if fired {
		t.Fatal("stopped timer fired")
	}
}

// TestNestedAdvanceNeverRewinds is the regression test for a latent bug
// the scenario engine exposed: a timer callback that itself advances the
// clock (a nested Advance) used to leave the outer Advance clamping time
// BACK to its own, earlier target — virtual time moved backward and
// later timers fired at stale timestamps. Time must be monotonic.
func TestNestedAdvanceNeverRewinds(t *testing.T) {
	c := NewVirtualClock(epoch)
	var at []time.Time
	c.AfterFunc(10*time.Millisecond, func() {
		// Re-enter: advance far beyond the outer target.
		c.Advance(time.Hour)
		at = append(at, c.Now())
	})
	c.Advance(20 * time.Millisecond) // outer target well before the nested one
	at = append(at, c.Now())

	inner := epoch.Add(10 * time.Millisecond).Add(time.Hour)
	if !at[0].Equal(inner) {
		t.Fatalf("nested advance landed at %v, want %v", at[0], inner)
	}
	if at[1].Before(at[0]) {
		t.Fatalf("outer Advance rewound the clock: %v -> %v", at[0], at[1])
	}
	if !c.Now().Equal(inner) {
		t.Errorf("final now = %v, want the later (nested) target %v", c.Now(), inner)
	}
}

// TestConcurrentAfterFuncRace exercises concurrent scheduling against an
// advancing clock under -race.
func TestConcurrentAfterFuncRace(t *testing.T) {
	c := NewVirtualClock(epoch)
	var mu sync.Mutex
	fired := 0
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				c.AfterFunc(time.Duration(j)*time.Millisecond, func() {
					mu.Lock()
					fired++
					mu.Unlock()
				})
			}
		}(i)
	}
	wg.Wait()
	c.Advance(time.Second)
	mu.Lock()
	defer mu.Unlock()
	if fired != 8*50 {
		t.Fatalf("fired = %d, want %d", fired, 8*50)
	}
}

// TestVirtualSleepCostsNoTime pins the virtual Sleep: it returns at once,
// moves no time and fires no timer, so only Advance moves
// the clock.
func TestVirtualSleepCostsNoTime(t *testing.T) {
	c := NewVirtualClock(epoch)
	fired := false
	c.AfterFunc(time.Millisecond, func() { fired = true })
	c.Sleep(time.Hour)
	if !c.Now().Equal(epoch) || fired {
		t.Fatalf("after Sleep: now = %v, fired = %v; want %v, false", c.Now(), fired, epoch)
	}
}
