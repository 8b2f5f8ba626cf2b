package confdiff

import (
	"reflect"
	"slices"
	"strings"
	"testing"
)

// FuzzCompute checks Compute on arbitrary pairs of configs: it is the
// Diff of the pre-split lines (Compute walks the new config in place and
// splits only its middle); its edits turn the old lines into the new
// ones; it is empty exactly when the two split into the same lines (so a
// caller may take a == b as "empty" without diffing); and Stats(true)
// counts the non-comment lines it adds and removes.
func FuzzCompute(f *testing.F) {
	for _, seed := range [][2]string{
		{"", ""},
		{"hostname a\n", "hostname a"},
		{"hostname a\ninterface et1/1\n", "hostname a\n! chaos drift\ninterface et1/1\n"},
		{"a\nb\nc\n", "c\nb\na\n"},
		{"x\n\n", "x\n"},
		{"interface ae0\n mtu 9001\n", "interface ae0\n mtu 9002\n  # note\n"},
		{"a\nb\n", "a\nb\n\n"},
		{"\n", "\n\n"},
		{"a\nx\nb", "a\ny\nb\n"},
	} {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, a, b string) {
		la, lb := Lines(a), Lines(b)
		if len(la)+len(lb) > 512 {
			t.Skip("the O(ND) trace grows with the square of the input")
		}
		d := Compute(a, b)
		if want := ComputeLines(la, lb); !reflect.DeepEqual(d, want) {
			t.Fatalf("Compute(%q, %q)\n = %v\n want %v, the Diff of the split lines", a, b, d, want)
		}
		got, err := d.Apply(la)
		if err != nil {
			t.Fatalf("applying the edits to the old lines: %v", err)
		}
		if !slices.Equal(got, lb) {
			t.Fatalf("the edits make %q, want %q", got, lb)
		}
		if d.Empty() != slices.Equal(la, lb) {
			t.Fatalf("Empty() = %v for lines %q and %q", d.Empty(), la, lb)
		}
		comment := func(l string) bool {
			l = strings.TrimSpace(l)
			return l == "" || l[0] == '!' || l[0] == '#'
		}
		var want Stats
		for _, e := range d.Edits {
			for _, l := range e.Lines {
				switch {
				case comment(l):
				case e.Kind == Add:
					want.Added++
				case e.Kind == Remove:
					want.Removed++
				}
			}
		}
		if s := d.Stats(true); s != want {
			t.Fatalf("Stats(true) = %+v, counted %+v", s, want)
		}
		// Lines both sides keep cancel, whatever the edit path: the net
		// count is the difference of the two configs' non-comment lines.
		count := func(lines []string) (n int) {
			for _, l := range lines {
				if !comment(l) {
					n++
				}
			}
			return n
		}
		if net := want.Added - want.Removed; net != count(lb)-count(la) {
			t.Fatalf("added - removed = %d, the configs differ by %d non-comment lines", net, count(lb)-count(la))
		}
	})
}
