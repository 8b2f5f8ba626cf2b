// Package fanout runs one operation per named device on a bounded pool of
// workers: the one mechanism behind every per-device step the paper runs
// across a fleet at once — config generation (SIGCOMM '16, §5.2), and
// dryrun, provisioning and commit (§5.3). It also owns the one width rule
// every parallel engine in the system takes its default from.
package fanout

import "sync"

// DefaultWidth is the width a request of 0 (or less) selects.
const DefaultWidth = 8

// Width resolves a requested width p for n items: p ≤ 0 means
// DefaultWidth, and the result is never more than n nor less than 1.
func Width(p, n int) int {
	if p <= 0 {
		p = DefaultWidth
	}
	return max(1, min(p, n))
}

// Outcome is what one name's operation returned.
type Outcome[T any] struct {
	Name string
	Val  T
	Err  error
}

// Run runs op for each of names on Width(p, len(names)) workers,
// dispatching in the order of names. Once an op has failed nothing more is
// dispatched; ops already running finish. It returns the outcome of every
// name that ran, in the order of names: a prefix of names.
func Run[T any](names []string, p int, op func(name string) (T, error)) []Outcome[T] {
	outs := make([]Outcome[T], len(names))
	var (
		mu     sync.Mutex
		next   int  // the next name to dispatch
		failed bool // an op has failed: dispatch nothing more
		wg     sync.WaitGroup
	)
	// claim hands a worker the index of the next name, or -1 once every
	// name is dispatched or an op has failed.
	claim := func(err error) int {
		mu.Lock()
		defer mu.Unlock()
		failed = failed || err != nil
		if failed || next == len(names) {
			return -1
		}
		next++
		return next - 1
	}
	for range Width(p, len(names)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := claim(nil); i >= 0; i = claim(outs[i].Err) {
				val, err := op(names[i])
				outs[i] = Outcome[T]{Name: names[i], Val: val, Err: err}
			}
		}()
	}
	wg.Wait()
	return outs[:next]
}
