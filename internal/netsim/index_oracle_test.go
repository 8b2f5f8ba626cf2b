package netsim

import (
	"slices"
	"strings"
	"testing"
)

// mapDiff is the symmetric difference the fleet's index update computed
// before it merged sorted lists: old is the indexed list (no repeats), cur
// the new one as scanned (repeats allowed). It returns the strings that
// appeared and those that disappeared, in the order it found them.
func mapDiff(old, cur []string) (appeared, disappeared []string) {
	oldSet := make(map[string]struct{}, len(old))
	for _, t := range old {
		oldSet[t] = struct{}{}
	}
	newSet := make(map[string]struct{}, len(cur))
	for _, t := range cur {
		if _, dup := newSet[t]; dup {
			continue
		}
		newSet[t] = struct{}{}
		if _, had := oldSet[t]; !had {
			appeared = append(appeared, t)
		}
	}
	for _, t := range old {
		if _, still := newSet[t]; !still {
			disappeared = append(disappeared, t)
		}
	}
	return appeared, disappeared
}

// FuzzIndexDiff: for any two lists, eachDiff over their sorted, unique
// forms reports exactly the strings mapDiff finds appeared and
// disappeared, each once and in order. Lists are the whitespace-separated
// fields of the inputs; seeds pair the configs the tests commit, whose
// address tokens are what the fleet diffs.
func FuzzIndexDiff(f *testing.F) {
	cfgs := []string{"", v1Config, v2Config, ringConfig(0, 4), ringConfig(1, 4), meshConfig(0, 4, true), meshConfig(0, 4, false)}
	for _, a := range cfgs {
		for _, b := range cfgs {
			f.Add(strings.Join(addrTokens(a), " "), strings.Join(addrTokens(b), " "))
		}
	}
	f.Add("a a b", "b c c")
	f.Fuzz(func(t *testing.T, a, b string) {
		old := set(strings.Fields(a))
		cur := strings.Fields(b)
		wantCame, wantGone := mapDiff(old, cur)
		var came, gone []string
		eachDiff(old, set(slices.Clone(cur)), func(s string) { gone = append(gone, s) }, func(s string) { came = append(came, s) })
		if !slices.IsSorted(came) || !slices.IsSorted(gone) {
			t.Fatalf("eachDiff out of order: came %q gone %q", came, gone)
		}
		if !slices.Equal(came, set(wantCame)) || !slices.Equal(gone, set(wantGone)) {
			t.Fatalf("old %q cur %q:\n merge: came %q gone %q\n maps:  came %q gone %q", old, cur, came, gone, wantCame, wantGone)
		}
	})
}
