package confdiff

import (
	"math/rand"
	"reflect"
	"testing"
)

// myersOracle is myers as it was while trace kept a whole copy of v per
// step, kept verbatim as the oracle of TestMyersMatchesFullTrace.
func myersOracle(a, b []string) Diff {
	n, m := len(a), len(b)
	if n == 0 && m == 0 {
		return Diff{}
	}
	if n == 0 {
		var d Diff
		d.append(Add, b)
		return d
	}
	if m == 0 {
		var d Diff
		d.append(Remove, a)
		return d
	}
	max := n + m
	// v[k+max] = furthest x along diagonal k; trace keeps a copy per d for
	// backtracking.
	v := make([]int, 2*max+1)
	var trace [][]int
	var dFound = -1
outer:
	for d := 0; d <= max; d++ {
		vc := make([]int, len(v))
		copy(vc, v)
		trace = append(trace, vc)
		for k := -d; k <= d; k += 2 {
			var x int
			if k == -d || (k != d && v[k-1+max] < v[k+1+max]) {
				x = v[k+1+max] // move down (insert from b)
			} else {
				x = v[k-1+max] + 1 // move right (delete from a)
			}
			y := x - k
			for x < n && y < m && a[x] == b[y] {
				x++
				y++
			}
			v[k+max] = x
			if x >= n && y >= m {
				dFound = d
				trace = append(trace, v)
				break outer
			}
		}
	}
	// Backtrack from (n, m).
	type step struct {
		kind OpKind
		line string
	}
	var rev []step
	x, y := n, m
	for d := dFound; d > 0; d-- {
		vPrev := trace[d]
		k := x - y
		var prevK int
		if k == -d || (k != d && vPrev[k-1+max] < vPrev[k+1+max]) {
			prevK = k + 1
		} else {
			prevK = k - 1
		}
		prevX := vPrev[prevK+max]
		prevY := prevX - prevK
		for x > prevX && y > prevY {
			x--
			y--
			rev = append(rev, step{Equal, a[x]})
		}
		if prevK == k+1 {
			y--
			rev = append(rev, step{Add, b[y]})
		} else {
			x--
			rev = append(rev, step{Remove, a[x]})
		}
	}
	for x > 0 && y > 0 {
		x--
		y--
		rev = append(rev, step{Equal, a[x]})
	}

	var out Diff
	for i := len(rev) - 1; i >= 0; i-- {
		out.append(rev[i].kind, []string{rev[i].line})
	}
	return out
}

// TestMyersMatchesFullTrace: over seeded random line lists, drawn from a
// small alphabet so that equal lines and ties between paths are common,
// myers returns the Diff of the full-trace oracle: the same edit script,
// tie-breaking included.
func TestMyersMatchesFullTrace(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	lines := func() []string {
		out := make([]string, rng.Intn(40))
		for i := range out {
			out[i] = string(rune('a' + rng.Intn(1+rng.Intn(6))))
		}
		return out
	}
	for i := 0; i < 2000; i++ {
		a, b := lines(), lines()
		if got, want := myers(a, b), myersOracle(a, b); !reflect.DeepEqual(got, want) {
			t.Fatalf("myers(%q, %q)\n = %v\n want %v", a, b, got, want)
		}
	}
}
