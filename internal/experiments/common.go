// Package experiments regenerates every figure and table of the paper's
// evaluation (SIGCOMM '16, §6) by driving synthetic workloads through the
// real Robotron pipeline. Absolute magnitudes are scaled down from
// Facebook's production estate; each harness reports the shape statistics
// the paper's claims rest on (medians, CDFs, percentages, orderings) so
// they can be compared in EXPERIMENTS.md.
package experiments

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
)

// rng returns a deterministic random source for an experiment; every
// harness seeds explicitly so results are reproducible run to run.
func rng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// percentile returns the p-th percentile (0..100) of xs (nearest-rank).
func percentile(xs []int, p float64) int {
	if len(xs) == 0 {
		return 0
	}
	s := append([]int(nil), xs...)
	sort.Ints(s)
	rank := int(p/100*float64(len(s))+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s) {
		rank = len(s) - 1
	}
	return s[rank]
}

// cdfPoints returns (value, cumulative fraction) pairs at the given
// fractions, for rendering figure-style CDFs as text.
func cdfPoints(xs []int, fractions []float64) []string {
	out := make([]string, 0, len(fractions))
	for _, f := range fractions {
		out = append(out, fmt.Sprintf("p%02.0f=%d", f*100, percentile(xs, f*100)))
	}
	return out
}

// table renders rows with aligned columns for terminal output.
func table(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(header)
	for _, r := range rows {
		writeRow(r)
	}
	return b.String()
}
