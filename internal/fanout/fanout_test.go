package fanout

import (
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"testing"
	"time"
)

func TestWidth(t *testing.T) {
	for _, c := range []struct{ p, n, want int }{
		{p: 0, n: 20, want: DefaultWidth},  // p ≤ 0 picks the default
		{p: -3, n: 20, want: DefaultWidth}, //
		{p: 0, n: 3, want: 3},              // ... never more workers than items
		{p: 16, n: 5, want: 5},             // p > n
		{p: 3, n: 10, want: 3},             //
		{p: 1, n: 10, want: 1},             // the serial engine
		{p: 0, n: 0, want: 1},              // n = 0: never fewer than one
		{p: 4, n: 0, want: 1},              //
	} {
		if got := Width(c.p, c.n); got != c.want {
			t.Errorf("Width(%d, %d) = %d, want %d", c.p, c.n, got, c.want)
		}
	}
}

func names(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("dev%02d", i)
	}
	return out
}

// gate runs ops that each block until the test releases them, and
// reports every op's start.
type gate struct {
	started chan string
	release map[string]chan struct{}
	running atomic.Int32
	peak    atomic.Int32
}

func newGate(ns []string) *gate {
	g := &gate{started: make(chan string, len(ns)), release: map[string]chan struct{}{}}
	for _, n := range ns {
		g.release[n] = make(chan struct{})
	}
	return g
}

func (g *gate) op(name string) (string, error) {
	r := g.running.Add(1)
	for p := g.peak.Load(); r > p && !g.peak.CompareAndSwap(p, r); p = g.peak.Load() {
	}
	g.started <- name
	<-g.release[name]
	g.running.Add(-1)
	return "v:" + name, nil
}

// next waits for the next op to start.
func (g *gate) next(t *testing.T) string {
	t.Helper()
	select {
	case n := <-g.started:
		return n
	case <-time.After(5 * time.Second):
		t.Fatal("no op started within 5s")
		return ""
	}
}

// TestRunDispatchesInOrder: with every worker blocked, exactly the first
// width names have started; each op that finishes lets the next name in
// order start, whichever op it was. Peak concurrency is the width, and the
// outcomes are every name, in order, with its value.
func TestRunDispatchesInOrder(t *testing.T) {
	const width = 3
	ns := names(10)
	g := newGate(ns)
	done := make(chan []Outcome[string])
	go func() { done <- Run(ns, width, g.op) }()
	var running []string
	for range width {
		running = append(running, g.next(t))
	}
	slices.Sort(running)
	if !slices.Equal(running, ns[:width]) {
		t.Fatalf("first ops started %v, want %v", running, ns[:width])
	}
	for k := width; k < len(ns); k++ {
		// Release the op that started last, then the oldest, alternately.
		i := len(running) - 1
		if k%2 == 0 {
			i = 0
		}
		close(g.release[running[i]])
		running = slices.Delete(running, i, i+1)
		if n := g.next(t); n != ns[k] {
			t.Fatalf("op %d started %s, want %s", k, n, ns[k])
		}
		running = append(running, ns[k])
	}
	for _, n := range running {
		close(g.release[n])
	}
	outs := <-done
	if len(outs) != len(ns) {
		t.Fatalf("%d outcomes, want %d", len(outs), len(ns))
	}
	for i, o := range outs {
		if o.Name != ns[i] || o.Val != "v:"+ns[i] || o.Err != nil {
			t.Errorf("outcome %d = %+v, want %s's value", i, o, ns[i])
		}
	}
	if p := g.peak.Load(); p != width {
		t.Errorf("peak concurrency %d, want the width %d", p, width)
	}
}

// TestRunStopsDispatchingAtAFailure: the outcomes are a prefix of names,
// in order, holding every op that started, the failing one with its error.
// At width 1 the failing op is the last one dispatched. At width 3 it
// fails only once the two ops after it are running, and those finish
// and keep their outcomes.
func TestRunStopsDispatchingAtAFailure(t *testing.T) {
	errOp := errors.New("op failed")
	for _, c := range []struct{ width, failAt int }{{1, 0}, {1, 4}, {3, 0}, {3, 5}} {
		ns := names(12)
		var started atomic.Int32
		later := make(chan struct{}, len(ns)) // one send per op after failAt
		failing := make(chan struct{})
		op := func(name string) (int, error) {
			started.Add(1)
			i := slices.Index(ns, name)
			switch {
			case i == c.failAt:
				for range c.width - 1 {
					<-later
				}
				close(failing)
				// Fail slowly: a pool that lines up the next name while an
				// op runs would dispatch it despite the failure.
				time.Sleep(2 * time.Millisecond)
				return i, errOp
			case i > c.failAt:
				later <- struct{}{}
				<-failing
			}
			return i, nil
		}
		outs := Run(ns, c.width, op)
		if int(started.Load()) != len(outs) {
			t.Errorf("width %d, fail at %d: %d ops started, %d outcomes", c.width, c.failAt, started.Load(), len(outs))
		}
		if want := c.failAt + c.width; len(outs) < want || c.width == 1 && len(outs) != want {
			t.Errorf("width %d, fail at %d: %d outcomes, want %d", c.width, c.failAt, len(outs), want)
		}
		for i, o := range outs {
			var want error
			if i == c.failAt {
				want = errOp
			}
			if o.Name != ns[i] || o.Val != i || o.Err != want {
				t.Errorf("width %d, fail at %d: outcome %d = %+v, want %s, %d, %v", c.width, c.failAt, i, o, ns[i], i, want)
			}
		}
	}
}

func TestRunNoNames(t *testing.T) {
	if outs := Run(nil, 0, func(string) (int, error) {
		t.Error("op called with no names")
		return 0, nil
	}); len(outs) != 0 {
		t.Errorf("%d outcomes from no names", len(outs))
	}
}
