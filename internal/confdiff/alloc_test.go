package confdiff

import (
	"fmt"
	"runtime"
	"strings"
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

// deviceConfig is a vendor-1 shaped config of n lines (n ≥ 16): a
// hostname, four-line interface stanzas, and a BGP stanza whose eight
// neighbor lines sit just before its end.
func deviceConfig(n int) string {
	var b strings.Builder
	b.WriteString("hostname psw1.pop1\n")
	ifaces := (n - 12) / 4
	for i := 0; i < ifaces; i++ {
		fmt.Fprintf(&b, "interface et%d/%d\n mtu 9192\n ip addr 10.%d.%d.0/31\n no shutdown\n", i/32+1, i%32+1, i/256, i%256)
	}
	for i := 4*ifaces + 11; i < n; i++ {
		b.WriteString("!\n")
	}
	b.WriteString("router bgp 65101\n")
	for p := 0; p < 4; p++ {
		fmt.Fprintf(&b, " neighbor 10.255.0.%d remote-as 65001\n neighbor 10.255.0.%d description fsw%d\n", 2*p, 2*p, p+1)
	}
	b.WriteString("end\n")
	return b.String()
}

// configChanges are the two drifts of drift-storm in miniature: a line
// appended, and the BGP stanza's neighbor block cut.
func configChanges(old string) map[string]string {
	var kept []string
	for _, l := range Lines(old) {
		if !strings.Contains(l, "neighbor ") {
			kept = append(kept, l)
		}
	}
	return map[string]string{
		"append": old + "snmp-server community rogue-1 ro\n",
		"cut":    strings.Join(kept, "\n") + "\n",
	}
}

// allocBytes is the bytes f allocates per call, averaged over runs.
func allocBytes(runs int, f func()) float64 {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestComputeSplitsOnlyTheMiddle: Compute splits the old config once and
// of the new one only the lines between the common runs. A one-line
// change allocates a constant number of times at any size, and as the
// config grows tenfold its bytes grow by one string header (16 B) per
// line of the old config; splitting the new side whole as well cost two.
func TestComputeSplitsOnlyTheMiddle(t *testing.T) {
	bytes := map[int]float64{}
	for _, n := range []int{200, 2000} {
		old := deviceConfig(n)
		lines := Lines(old)
		if len(lines) != n {
			t.Fatalf("deviceConfig(%d) has %d lines", n, len(lines))
		}
		lines[n/2] = "interface et99/1 shutdown"
		new := strings.Join(lines, "\n") + "\n"
		compute := func() {
			if d := Compute(old, new); d.Stats(false).Changed() != 2 {
				t.Fatalf("a one-line change of %d lines diffs as %+v", n, d.Stats(false))
			}
		}
		if allocs := testing.AllocsPerRun(50, compute); allocs > 16 {
			t.Errorf("Compute allocates %v times for a one-line change of %d lines, want at most 16", allocs, n)
		}
		bytes[n] = allocBytes(50, compute)
	}
	// The bound is per line of the larger config: the allocator rounds the
	// 2,000-line split up to its 32 KB size class.
	if grew := bytes[2000] - bytes[200]; grew > 16*2000 {
		t.Errorf("from 200 to 2,000 lines Compute's bytes grew by %.0f (%.0f → %.0f), want at most 16 B per line of the old config (%d)",
			grew, bytes[200], bytes[2000], 16*2000)
	}
}

// TestMyersTraceIsQuadraticInTheEdits: the backtracking trace holds the
// 2d-1 diagonals step d reads, so the benchmark's ~120-edit diff over
// ~6,000 lines allocates well under what one copy of v per step cost
// (23.9 MB).
func TestMyersTraceIsQuadraticInTheEdits(t *testing.T) {
	oldL, newL := typicalConfigChange()
	if b := allocBytes(5, func() { ComputeLines(oldL, newL) }); b > 2<<20 {
		t.Errorf("ComputeLines on the 6,000-line pair allocates %.1f MB, want under 2 MB", b/(1<<20))
	}
}

// BenchmarkComputeConfigChange diffs string configs as the config check
// and the dryrun do, for drift-storm's two drifts on a small and a large
// config.
func BenchmarkComputeConfigChange(b *testing.B) {
	for _, n := range []int{200, 2000} {
		old := deviceConfig(n)
		for _, change := range []string{"append", "cut"} {
			new := configChanges(old)[change]
			b.Run(fmt.Sprintf("%s/%d", change, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if Compute(old, new).Empty() {
						b.Fatal("expected changes")
					}
				}
			})
		}
	}
}
