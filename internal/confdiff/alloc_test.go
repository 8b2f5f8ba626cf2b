package confdiff

import (
	"fmt"
	"testing"
)

// TestComputeLinesSharesEqualRuns: a one-line change to a 200-line config
// keeps the trimmed common prefix and suffix as subslices of the old
// config instead of copying them, and a merge into a shared run never
// writes into the input.
func TestComputeLinesSharesEqualRuns(t *testing.T) {
	a := make([]string, 200)
	for i := range a {
		a[i] = fmt.Sprintf("interface et%d/1", i)
	}
	b := append([]string(nil), a...)
	b[100] = "interface et100/1 shutdown"

	d := ComputeLines(a, b)
	first, last := d.Edits[0].Lines, d.Edits[len(d.Edits)-1].Lines
	if &first[0] != &a[0] || &last[len(last)-1] != &a[len(a)-1] {
		t.Errorf("the common prefix and suffix are copies, want subslices of the old config")
	}
	if cap(first) != len(first) || cap(last) != len(last) {
		t.Errorf("shared runs have spare capacity %d/%d, %d/%d: an append would write into the input",
			len(first), cap(first), len(last), cap(last))
	}
	d.append(Equal, []string{"trailer"})
	if a[len(a)-1] != "interface et199/1" {
		t.Fatalf("a merge into the shared suffix wrote into the input")
	}

	// The edit list, myers' work on the one-line core and its two
	// one-line edits. Copying the runs cost 20.
	if allocs := testing.AllocsPerRun(100, func() { ComputeLines(a, b) }); allocs > 14 {
		t.Errorf("ComputeLines allocates %v times for a one-line change, want at most 14", allocs)
	}
}
