// Package vclock provides the one time source of a Robotron instance.
// core.New resolves it once (Options.Clock, else RealClock) and hands the
// same value to every component that schedules, waits or stamps: the
// deployer's commit-confirm grace, commit timeout and retry backoff, the
// simulated fleet's device clocks and native commit-confirm timers, the
// job manager's scheduler and collection stamps, the alarm engine, the
// reconciler's backoff and sweep timers, audit stamps, and the scenario
// engine's event sequencing.
//
// The real clock delegates to the runtime; the VirtualClock is manually
// advanced and fires timers inline in a strict (due time, creation order)
// sequence, so a test or scenario that advances past several deadlines
// observes every callback in a single deterministic order regardless of
// goroutine scheduling.
package vclock

import (
	"sort"
	"sync"
	"time"
)

// Clock abstracts time. The real clock is used in production; tests and
// scenarios drive a VirtualClock so schedules are exercised
// deterministically — jitter-free consumers are bit-for-bit reproducible
// under a virtual run.
type Clock interface {
	Now() time.Time
	// AfterFunc schedules f to run once after d. The returned Timer's
	// Stop cancels the call if it has not fired yet.
	AfterFunc(d time.Duration, f func()) Timer
	// Sleep waits d. On a VirtualClock it returns at once: a wait costs
	// no virtual time; only Advance moves the clock.
	Sleep(d time.Duration)
}

// Timer is a cancelable pending call.
type Timer interface {
	Stop() bool
}

// realClock delegates to the runtime clock.
type realClock struct{}

// RealClock returns the wall-time Clock.
func RealClock() Clock { return realClock{} }

func (realClock) Now() time.Time { return time.Now() }

func (realClock) AfterFunc(d time.Duration, f func()) Timer {
	return time.AfterFunc(d, f)
}

func (realClock) Sleep(d time.Duration) { time.Sleep(d) }

// VirtualClock is a manually advanced clock. Timers fire inline during
// Advance, strictly ordered by (due time, creation order), so a test that
// advances past several deadlines observes every callback in a single
// deterministic sequence. Callbacks may schedule further timers; Advance
// keeps firing until nothing is due within the advanced span.
type VirtualClock struct {
	mu  sync.Mutex
	now time.Time
	seq int64
	due []*vtimer
}

type vtimer struct {
	clock *VirtualClock
	when  time.Time
	seq   int64
	f     func()
	fired bool
	dead  bool
}

// NewVirtualClock returns a virtual clock starting at start.
func NewVirtualClock(start time.Time) *VirtualClock {
	return &VirtualClock{now: start}
}

// Now returns the virtual time.
func (c *VirtualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// AfterFunc schedules f at now+d (immediately due when d <= 0; it still
// fires only from Advance, never inline, so callers never re-enter).
func (c *VirtualClock) AfterFunc(d time.Duration, f func()) Timer {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seq++
	t := &vtimer{clock: c, when: c.now.Add(d), seq: c.seq, f: f}
	c.due = append(c.due, t)
	return t
}

// Sleep returns at once without moving the clock.
func (c *VirtualClock) Sleep(time.Duration) {}

func (t *vtimer) Stop() bool {
	t.clock.mu.Lock()
	defer t.clock.mu.Unlock()
	if t.fired || t.dead {
		return false
	}
	t.dead = true
	return true
}

// Advance moves the clock forward by d, firing every timer due on the way
// in deterministic order. Callbacks run with no clock lock held. Virtual
// time never moves backward: a callback that re-enters Advance (directly
// or through code it calls) may leave the clock beyond this call's
// target, in which case this call keeps that later time.
func (c *VirtualClock) Advance(d time.Duration) {
	c.mu.Lock()
	target := c.now.Add(d)
	for {
		next := c.nextDueLocked(target)
		if next == nil {
			break
		}
		if next.when.After(c.now) {
			c.now = next.when
		}
		next.fired = true
		f := next.f
		c.mu.Unlock()
		f()
		c.mu.Lock()
	}
	if target.After(c.now) {
		c.now = target
	}
	c.compactLocked()
	c.mu.Unlock()
}

// nextDueLocked picks the earliest live timer due at or before target.
func (c *VirtualClock) nextDueLocked(target time.Time) *vtimer {
	var best *vtimer
	for _, t := range c.due {
		if t.fired || t.dead || t.when.After(target) {
			continue
		}
		if best == nil || t.when.Before(best.when) ||
			(t.when.Equal(best.when) && t.seq < best.seq) {
			best = t
		}
	}
	return best
}

func (c *VirtualClock) compactLocked() {
	live := c.due[:0]
	for _, t := range c.due {
		if !t.fired && !t.dead {
			live = append(live, t)
		}
	}
	c.due = live
	sort.Slice(c.due, func(i, j int) bool {
		if !c.due[i].when.Equal(c.due[j].when) {
			return c.due[i].when.Before(c.due[j].when)
		}
		return c.due[i].seq < c.due[j].seq
	})
}

// PendingTimers reports how many timers are scheduled and not yet fired.
func (c *VirtualClock) PendingTimers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, t := range c.due {
		if !t.fired && !t.dead {
			n++
		}
	}
	return n
}
