package confdiff

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestIdentical(t *testing.T) {
	d := Compute("a\nb\nc\n", "a\nb\nc\n")
	if !d.Empty() {
		t.Errorf("identical inputs should produce an empty diff: %+v", d)
	}
	if s := d.Stats(false); s.Changed() != 0 {
		t.Errorf("stats = %+v", s)
	}
	if u := d.Unified(3); u != "" {
		t.Errorf("unified of empty diff = %q", u)
	}
}

func TestSimpleAddRemove(t *testing.T) {
	old := "interface ae0\n mtu 9192\n no shutdown\n"
	new := "interface ae0\n mtu 9000\n no shutdown\n ip addr 10.0.0.0/31\n"
	d := Compute(old, new)
	s := d.Stats(false)
	if s.Added != 2 || s.Removed != 1 {
		t.Errorf("stats = %+v, want 2 added 1 removed", s)
	}
	u := d.Unified(3)
	for _, want := range []string{"- " + " mtu 9192", "+ " + " mtu 9000", "+ " + " ip addr 10.0.0.0/31"} {
		if !strings.Contains(u, want) {
			t.Errorf("unified missing %q:\n%s", want, u)
		}
	}
}

func TestEmptySides(t *testing.T) {
	d := Compute("", "a\nb\n")
	if s := d.Stats(false); s.Added != 2 || s.Removed != 0 {
		t.Errorf("add-only stats = %+v", s)
	}
	d = Compute("a\nb\n", "")
	if s := d.Stats(false); s.Added != 0 || s.Removed != 2 {
		t.Errorf("remove-only stats = %+v", s)
	}
	d = Compute("", "")
	if !d.Empty() {
		t.Errorf("both empty should be empty diff")
	}
}

func TestCommentsExcluded(t *testing.T) {
	old := "line1\n"
	new := "line1\n! comment added\n# another comment\nreal line\n\n"
	d := Compute(old, new)
	if s := d.Stats(true); s.Changed() != 1 {
		t.Errorf("comment-excluding stats = %+v, want 1 changed", s)
	}
	if s := d.Stats(false); s.Changed() != 4 {
		t.Errorf("full stats = %+v, want 4 changed", s)
	}
}

func TestMinimality(t *testing.T) {
	// Myers produces the shortest edit script: changing 1 line in the
	// middle of 100 must cost exactly 2 (one remove, one add).
	var a, b []string
	for i := 0; i < 100; i++ {
		l := "line"
		a = append(a, l)
		if i == 50 {
			b = append(b, "changed")
		} else {
			b = append(b, l)
		}
	}
	// Make lines unique so the diff is unambiguous.
	for i := range a {
		a[i] = a[i] + string(rune('0'+i%10)) + string(rune('a'+(i/10)%26))
		if i != 50 {
			b[i] = a[i]
		}
	}
	d := ComputeLines(a, b)
	if s := d.Stats(false); s.Added != 1 || s.Removed != 1 {
		t.Errorf("stats = %+v, want 1/1", s)
	}
}

func TestApplyReconstructs(t *testing.T) {
	a := []string{"a", "b", "c", "d"}
	b := []string{"a", "x", "c", "e", "f"}
	d := ComputeLines(a, b)
	got, err := d.Apply(a)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, b) {
		t.Errorf("Apply = %v, want %v", got, b)
	}
	// Applying against the wrong base fails loudly.
	if _, err := d.Apply([]string{"wrong"}); err == nil {
		t.Error("Apply against wrong base should fail")
	}
}

func TestUnifiedContextTruncation(t *testing.T) {
	var a, b []string
	for i := 0; i < 50; i++ {
		a = append(a, strings.Repeat("x", i%7+1))
	}
	b = append(b, a...)
	b[25] = "CHANGED"
	d := ComputeLines(a, b)
	u := d.Unified(2)
	if !strings.Contains(u, "...") {
		t.Errorf("long equal runs should be elided:\n%s", u)
	}
	if !strings.Contains(u, "+ CHANGED") {
		t.Errorf("change missing from unified output:\n%s", u)
	}
	if n := strings.Count(u, "\n"); n > 12 {
		t.Errorf("unified output too long (%d lines):\n%s", n, u)
	}
}

// Property: diff(a,b) applied to a always yields b.
func TestQuickDiffApplyIdentity(t *testing.T) {
	vocab := []string{"interface ae0", " mtu 9192", " no shutdown", "!", "router bgp 65001", " neighbor 10.0.0.1"}
	f := func(seedA, seedB int64, lenA, lenB uint8) bool {
		ra := rand.New(rand.NewSource(seedA))
		rb := rand.New(rand.NewSource(seedB))
		a := make([]string, int(lenA)%64)
		for i := range a {
			a[i] = vocab[ra.Intn(len(vocab))]
		}
		b := make([]string, int(lenB)%64)
		for i := range b {
			b[i] = vocab[rb.Intn(len(vocab))]
		}
		d := ComputeLines(a, b)
		got, err := d.Apply(a)
		if err != nil {
			return false
		}
		if len(got) != len(b) {
			return false
		}
		for i := range b {
			if got[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: stats are symmetric — diff(a,b).Added == diff(b,a).Removed.
func TestQuickDiffSymmetry(t *testing.T) {
	f := func(a, b []string) bool {
		d1 := ComputeLines(a, b).Stats(false)
		d2 := ComputeLines(b, a).Stats(false)
		return d1.Added == d2.Removed && d1.Removed == d2.Added
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestLines(t *testing.T) {
	if got := Lines(""); got != nil {
		t.Errorf("Lines(\"\") = %v", got)
	}
	if got := Lines("a\nb\n"); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Errorf("Lines = %v", got)
	}
	if got := Lines("a\nb"); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Errorf("Lines without trailing newline = %v", got)
	}
	if got := Lines("a\n\nb\n"); !reflect.DeepEqual(got, []string{"a", "", "b"}) {
		t.Errorf("Lines with blank line = %v", got)
	}
}

// typicalConfigChange is a ~6,000-line config with ~40 changes spread
// over it, the typical POP/DC device change size from Fig. 16.
func typicalConfigChange() (oldL, newL []string) {
	for i := 0; i < 2000; i++ {
		l := "interface et" + string(rune('1'+i%8)) + "/1"
		oldL = append(oldL, l, " mtu 9192", " no shutdown")
		if i%50 == 0 {
			newL = append(newL, l, " mtu 9000", " no shutdown", " load-interval 30")
		} else {
			newL = append(newL, l, " mtu 9192", " no shutdown")
		}
	}
	return oldL, newL
}

func BenchmarkDiffTypicalConfigChange(b *testing.B) {
	oldL, newL := typicalConfigChange()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := ComputeLines(oldL, newL)
		if d.Empty() {
			b.Fatal("expected changes")
		}
	}
}
