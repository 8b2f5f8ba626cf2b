// Package confdiff computes line-based diffs between device configurations.
//
// Robotron's deployment dryrun mode presents engineers with "a diff listing
// all updated lines from the new configurations" (SIGCOMM '16, §5.3.2), and
// config monitoring compares running configs against Robotron-generated
// golden configs (§5.4.3). Figure 16's evaluation metric — "total updated
// config lines (changed/added/removed, excluding comments) on a device in a
// particular week" — is also computed with this package.
//
// The implementation is Myers' O(ND) greedy algorithm over lines.
package confdiff

import (
	"fmt"
	"strings"
)

// OpKind classifies one diff hunk line.
type OpKind int

const (
	Equal OpKind = iota
	Add
	Remove
)

func (k OpKind) String() string {
	switch k {
	case Equal:
		return " "
	case Add:
		return "+"
	case Remove:
		return "-"
	}
	return "?"
}

// Edit is a run of consecutive lines sharing one operation.
type Edit struct {
	Kind  OpKind
	Lines []string
}

// Diff is the edit script between two configurations.
type Diff struct {
	Edits []Edit
}

// Lines splits a config into lines, treating "\n" as the separator and
// dropping a single trailing empty line (configs conventionally end with a
// newline).
func Lines(s string) []string {
	if s == "" {
		return nil
	}
	lines := strings.Split(s, "\n")
	if len(lines) > 0 && lines[len(lines)-1] == "" {
		lines = lines[:len(lines)-1]
	}
	return lines
}

// Compute diffs two configurations. It deep-equals
// ComputeLines(Lines(old), Lines(new)) but splits only what it must: old
// whole, since its lines back every Equal run, and of new only the lines
// between the common prefix and suffix, found by walking new in place.
func Compute(old, new string) Diff {
	a := Lines(old)
	if new == "" {
		return ComputeLines(a, nil)
	}
	// Lines' rule: a single trailing newline ends the last line.
	body := strings.TrimSuffix(new, "\n")
	nb := strings.Count(body, "\n") + 1

	// lo is the byte offset of new's line pre, hi the end of its line
	// nb-1-suf.
	pre, lo := 0, 0
	for pre < len(a) && pre < nb {
		line, next := body[lo:], len(body)
		if i := strings.IndexByte(line, '\n'); i >= 0 {
			line, next = line[:i], lo+i+1
		}
		if line != a[pre] {
			break
		}
		pre++
		lo = next
	}
	suf, hi := 0, len(body)
	for suf < len(a)-pre && suf < nb-pre {
		start := strings.LastIndexByte(body[:hi], '\n') + 1
		if body[start:hi] != a[len(a)-1-suf] {
			break
		}
		suf++
		hi = start - 1
	}
	var mid []string
	if pre+suf < nb {
		mid = strings.Split(body[lo:hi], "\n")
	}
	return assemble(a, pre, suf, myers(a[pre:len(a)-suf], mid))
}

// ComputeLines diffs two pre-split line slices. The returned Diff may
// share the backing arrays of a and b: its Equal runs of the common
// prefix and suffix are subslices of a, so a caller that writes to a
// after the call sees the diff change.
func ComputeLines(a, b []string) Diff {
	// Trim common prefix and suffix first; device config changes are
	// usually small relative to the config, so this bounds the O(ND) core.
	pre := 0
	for pre < len(a) && pre < len(b) && a[pre] == b[pre] {
		pre++
	}
	suf := 0
	for suf < len(a)-pre && suf < len(b)-pre && a[len(a)-1-suf] == b[len(b)-1-suf] {
		suf++
	}
	return assemble(a, pre, suf, myers(a[pre:len(a)-suf], b[pre:len(b)-suf]))
}

// assemble wraps the core's edits in a's common prefix of pre lines and
// suffix of suf lines. After a maximal trim the core neither begins nor
// ends with an Equal edit, so the two runs never merge and are kept
// uncopied.
func assemble(a []string, pre, suf int, core Diff) Diff {
	d := Diff{Edits: make([]Edit, 0, len(core.Edits)+2)}
	d.share(Equal, a[:pre])
	for _, e := range core.Edits {
		d.share(e.Kind, e.Lines)
	}
	d.share(Equal, a[len(a)-suf:])
	return d
}

// share is append without the copy: a new edit keeps lines' backing
// array, cap-clipped so that a later merge into it reallocates instead of
// writing past its end.
func (d *Diff) share(k OpKind, lines []string) {
	if n := len(d.Edits); len(lines) == 0 || n > 0 && d.Edits[n-1].Kind == k {
		d.append(k, lines)
		return
	}
	d.Edits = append(d.Edits, Edit{Kind: k, Lines: lines[:len(lines):len(lines)]})
}

// append adds lines to the edit list, merging with the previous edit when
// the operation matches.
func (d *Diff) append(k OpKind, lines []string) {
	if len(lines) == 0 {
		return
	}
	if n := len(d.Edits); n > 0 && d.Edits[n-1].Kind == k {
		d.Edits[n-1].Lines = append(d.Edits[n-1].Lines, lines...)
		return
	}
	cp := make([]string, len(lines))
	copy(cp, lines)
	d.Edits = append(d.Edits, Edit{Kind: k, Lines: cp})
}

// myers computes the shortest edit script via the greedy O(ND) algorithm.
func myers(a, b []string) Diff {
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
	// v[k+max] = furthest x along diagonal k. Backtracking from step d
	// reads only diagonals -(d-1)..d-1 of the v step d started from, so
	// trace keeps just those 2d-1 entries per step, (d-1)² onwards: the
	// whole trace is O(D²), not O(D·(n+m)).
	v := make([]int, 2*max+1)
	var trace []int
	var dFound = -1
outer:
	for d := 0; d <= max; d++ {
		if d > 0 {
			trace = append(trace, v[max-(d-1):max+d]...)
		}
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
		// vPrev[k+d-1] is diagonal k of the v step d started from.
		vPrev := trace[(d-1)*(d-1) : d*d]
		k := x - y
		var prevK int
		if k == -d || (k != d && vPrev[k-1+d-1] < vPrev[k+1+d-1]) {
			prevK = k + 1
		} else {
			prevK = k - 1
		}
		prevX := vPrev[prevK+d-1]
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

// Stats summarizes a diff.
type Stats struct {
	Added   int
	Removed int
}

// Changed returns added+removed, the paper's "total updated config lines".
func (s Stats) Changed() int { return s.Added + s.Removed }

// Stats counts added and removed lines. When skipComments is true, lines
// whose first non-space character marks a comment in common router config
// syntaxes ('!', '#') are excluded, matching Fig. 16's methodology.
func (d Diff) Stats(skipComments bool) Stats {
	var s Stats
	for _, e := range d.Edits {
		if e.Kind == Equal {
			continue
		}
		for _, l := range e.Lines {
			if skipComments && isComment(l) {
				continue
			}
			if e.Kind == Add {
				s.Added++
			} else {
				s.Removed++
			}
		}
	}
	return s
}

func isComment(line string) bool {
	t := strings.TrimSpace(line)
	return t == "" || strings.HasPrefix(t, "!") || strings.HasPrefix(t, "#")
}

// Empty reports whether the two inputs were identical.
func (d Diff) Empty() bool {
	for _, e := range d.Edits {
		if e.Kind != Equal {
			return false
		}
	}
	return true
}

// Unified renders the diff in a unified-diff-like format with n context
// lines around changes. Engineers review this output during dryrun.
func (d Diff) Unified(n int) string {
	if d.Empty() {
		return ""
	}
	var b strings.Builder
	for i, e := range d.Edits {
		switch e.Kind {
		case Equal:
			lines := e.Lines
			if len(lines) > 2*n+1 {
				head, tail := lines[:n], lines[len(lines)-n:]
				if i == 0 {
					head = nil
				}
				if i == len(d.Edits)-1 {
					tail = nil
				}
				for _, l := range head {
					writeLine(&b, Equal, l)
				}
				if i != 0 && i != len(d.Edits)-1 || len(head) > 0 || len(tail) > 0 {
					b.WriteString("  ...\n")
				}
				// Re-anchor the tail context: when the elision cuts into
				// the middle of an indented block, the change below would
				// render without its enclosing stanza (which interface?
				// which protocol?). Emit the block's header line unless it
				// already appeared in the head context.
				if len(tail) > 0 {
					if hdr, at, ok := stanzaHeader(lines, len(lines)-n); ok && !(len(head) > 0 && at < n) {
						writeLine(&b, Equal, hdr)
					}
				}
				for _, l := range tail {
					writeLine(&b, Equal, l)
				}
			} else {
				for _, l := range lines {
					writeLine(&b, Equal, l)
				}
			}
		case Add, Remove:
			for _, l := range e.Lines {
				writeLine(&b, e.Kind, l)
			}
		}
	}
	return b.String()
}

// writeLine writes one rendered diff line: k's mark, a space, the line
// and a newline.
func writeLine(b *strings.Builder, k OpKind, l string) {
	b.WriteString(k.String())
	b.WriteByte(' ')
	b.WriteString(l)
	b.WriteByte('\n')
}

// stanzaHeader returns the innermost enclosing block header for
// lines[start]: the nearest preceding non-blank line at column zero, with
// its index. ok is false when lines[start] itself starts a block (it is
// not indented) or no header precedes it.
func stanzaHeader(lines []string, start int) (string, int, bool) {
	if start < 0 || start >= len(lines) || !indented(lines[start]) {
		return "", 0, false
	}
	for i := start - 1; i >= 0; i-- {
		if l := lines[i]; l != "" && !indented(l) {
			return l, i, true
		}
	}
	return "", 0, false
}

func indented(s string) bool {
	return s != "" && (s[0] == ' ' || s[0] == '\t')
}

// HunkContaining renders just the change hunk whose added/removed lines
// contain needle as a substring, with n context lines on each side and
// stanza-header re-anchoring, the counterexample format of the pre-deploy
// verification gate. An empty needle (or one found nowhere) selects the
// first change hunk; an all-equal diff yields "".
func (d Diff) HunkContaining(needle string, n int) string {
	target := -1
scan:
	for i, e := range d.Edits {
		if e.Kind == Equal {
			continue
		}
		for _, l := range e.Lines {
			if strings.Contains(l, needle) {
				target = i
				break scan
			}
		}
	}
	if target < 0 {
		for i, e := range d.Edits {
			if e.Kind != Equal {
				target = i
				break
			}
		}
	}
	if target < 0 {
		return ""
	}
	// Widen to the whole run of consecutive change edits (a Remove
	// followed by its replacement Add is one hunk).
	start, end := target, target
	for start > 0 && d.Edits[start-1].Kind != Equal {
		start--
	}
	for end < len(d.Edits)-1 && d.Edits[end+1].Kind != Equal {
		end++
	}
	var b strings.Builder
	if start > 0 {
		lines := d.Edits[start-1].Lines
		from := len(lines) - n
		if from < 0 {
			from = 0
		}
		if hdr, at, ok := stanzaHeader(lines, from); ok && at < from {
			writeLine(&b, Equal, hdr)
			if at+1 < from {
				b.WriteString("  ...\n")
			}
		}
		for _, l := range lines[from:] {
			writeLine(&b, Equal, l)
		}
	}
	for i := start; i <= end; i++ {
		for _, l := range d.Edits[i].Lines {
			writeLine(&b, d.Edits[i].Kind, l)
		}
	}
	if end < len(d.Edits)-1 {
		lines := d.Edits[end+1].Lines
		to := n
		if to > len(lines) {
			to = len(lines)
		}
		for _, l := range lines[:to] {
			writeLine(&b, Equal, l)
		}
		if to < len(lines) {
			b.WriteString("  ...\n")
		}
	}
	return b.String()
}

// Apply reconstructs the new text from the old text plus the diff,
// verifying the old side matches. Used to validate that a diff is a
// faithful patch (and by property tests).
func (d Diff) Apply(old []string) ([]string, error) {
	var out []string
	pos := 0
	for _, e := range d.Edits {
		switch e.Kind {
		case Equal, Remove:
			for _, l := range e.Lines {
				if pos >= len(old) || old[pos] != l {
					return nil, fmt.Errorf("confdiff: patch mismatch at line %d: have %q, want %q", pos, lineAt(old, pos), l)
				}
				pos++
			}
			if e.Kind == Equal {
				out = append(out, e.Lines...)
			}
		case Add:
			out = append(out, e.Lines...)
		}
	}
	if pos != len(old) {
		return nil, fmt.Errorf("confdiff: patch consumed %d of %d lines", pos, len(old))
	}
	return out, nil
}

func lineAt(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return "<EOF>"
}
