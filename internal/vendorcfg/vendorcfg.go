// Package vendorcfg is the grammar of the two vendor dialects' configs:
// what a line declares — a port, a BGP peer — and the address tokens it
// holds. The simulated device (netsim) applies a running config through
// it and the pre-deploy gate (verify) reads a candidate through it, so the
// gate judges a config as the device that runs it would.
//
// Syntax names a dialect: "vendor2" is the brace-structured one, any other
// reads as the flat, vendor1 one. Whitespace is [\t\n\f\r ] throughout,
// and a line ends at '\n' only.
package vendorcfg

import (
	"slices"
	"strconv"
	"strings"
)

// Config is what a running config declares: its ports, its BGP peers,
// the address tokens it holds and the speed its ports come up at. The
// three lists are sorted and unique.
type Config struct {
	Ports  []string
	Peers  []string
	Tokens []string
	Speed  int64
}

// Scan reads a config in one pass over its lines: the ports (Port), the
// peers (Neighbor), the address tokens (AppendAddrTokens) and the speed,
// which is that of the first "speed N" line, 10000 without one.
//
// The grammar is exactly that of the regular expressions it replaced in
// netsim, and the tokens those of the whole-config tokenizer it absorbed;
// netsim's FuzzReparse keeps both as its oracles.
func Scan(syntax, cfg string) Config {
	sc := Config{Speed: 10000}
	haveSpeed := false
	for cfg != "" {
		line := cfg
		if i := strings.IndexByte(cfg, '\n'); i >= 0 {
			line, cfg = cfg[:i], cfg[i+1:]
		} else {
			cfg = ""
		}
		if name, ok := Port(syntax, line); ok {
			sc.Ports = append(sc.Ports, name)
		}
		if addr, ok := Neighbor(line); ok {
			sc.Peers = append(sc.Peers, addr)
		}
		sc.Tokens = AppendAddrTokens(sc.Tokens, line)
		if rest, ok := strings.CutPrefix(trimSpace(line), "speed "); ok && !haveSpeed {
			rest = trimSpaces(rest)
			if n := digits(rest); n > 0 {
				// The first speed line decides, even one too large to
				// parse (which leaves the default).
				haveSpeed = true
				if s, err := strconv.ParseInt(rest[:n], 10, 64); err == nil {
					sc.Speed = s
				}
			}
		}
	}
	sc.Ports, sc.Peers, sc.Tokens = sortedSet(sc.Ports), sortedSet(sc.Peers), sortedSet(sc.Tokens)
	return sc
}

// sortedSet sorts xs and drops repeats, in place.
func sortedSet(xs []string) []string {
	slices.Sort(xs)
	return slices.Compact(xs)
}

// Port returns the port a line declares, if it declares one: a vendor1
// "interface et1/1" line, or a vendor2 "et-0/0/1 {" or "replace: ae0 {"
// line whose name is a physical, aggregate or loopback interface (et, xe,
// ge, ae, lo, then a number). Top-level stanzas like "class-of-service {"
// are not ports, and neither are TE tunnels.
func Port(syntax, line string) (string, bool) {
	if syntax != "vendor2" {
		rest, ok := strings.CutPrefix(line, "interface ")
		name := nonSpace(trimSpaces(rest))
		return name, ok && name != "" && !strings.HasPrefix(name, "tunnel")
	}
	if rest, ok := strings.CutPrefix(line, "replace: "); ok {
		line = trimSpaces(rest)
	}
	name := nonSpace(line)
	open := line[len(name):]
	if after := trimSpaces(open); len(after) == len(open) || !strings.HasPrefix(after, "{") {
		return "", false
	}
	if len(name) < 3 {
		return "", false
	}
	switch name[:2] {
	case "et", "xe", "ge", "ae", "lo":
	default:
		return "", false
	}
	// The number starts right after the prefix: "-", "/" and "." may
	// precede its first digit, nothing else may.
	for i := 2; i < len(name); i++ {
		switch c := name[i]; {
		case c >= '0' && c <= '9':
			return name, true
		case c != '-' && c != '/' && c != '.':
			return "", false
		}
	}
	return "", false
}

// Neighbor returns the peer address a line declares, if it declares one:
// a "neighbor X" line, optionally followed by "remote-as N" (vendor1)
// and/or "{" (vendor2), and by nothing else. Both dialects read it alike.
func Neighbor(line string) (string, bool) {
	rest, ok := strings.CutPrefix(trimSpace(line), "neighbor ")
	if !ok {
		return "", false
	}
	rest = trimSpaces(rest)
	addr := nonSpace(rest)
	tail := rest[len(addr):]
	switch {
	case addr == "":
		return "", false
	case len(addr) > 1 && addr[len(addr)-1] == '{' && trimSpace(tail) == "":
		return addr[:len(addr)-1], true // "neighbor X{"
	case neighborTail(tail):
		return addr, true
	}
	return "", false
}

// neighborTail reports whether what follows a neighbor's address is
// [" remote-as N"][" {"] and then whitespace.
func neighborTail(tail string) bool {
	if rest := trimSpaces(tail); len(rest) < len(tail) {
		if as, ok := strings.CutPrefix(rest, "remote-as "); ok {
			as = trimSpaces(as)
			if n := digits(as); n > 0 && openTail(as[n:]) {
				return true
			}
		}
	}
	return openTail(tail)
}

// openTail reports whether s is an optional "{" (after spaces) and then
// whitespace.
func openTail(s string) bool {
	if rest, ok := strings.CutPrefix(trimSpaces(s), "{"); ok {
		return trimSpace(rest) == ""
	}
	return trimSpace(s) == ""
}

// Addr is the address a config states for a prefix, such as in the
// neighbor statement of a session over it: the prefix without its length,
// "2401::1/127" -> "2401::1".
func Addr(prefix string) string {
	if i := strings.IndexByte(prefix, '/'); i >= 0 {
		return prefix[:i]
	}
	return prefix
}

// AppendAddrTokens appends the address-like tokens of s to out: maximal
// runs of [0-9a-fA-F:.] that contain at least one digit and at least one
// '.' or ':'. IPv4 and IPv6 addresses qualify; interface names, AS
// numbers, and hostnames do not (prefix lengths are cut off by the '/').
// Exact token matching is what keeps a session to 10.0.0.1 from being
// established by a config that merely contains 10.0.0.12.
func AppendAddrTokens(out []string, s string) []string {
	for i, n := 0, len(s); i < n; {
		if addrClass[s[i]] == 0 {
			i++
			continue
		}
		j, seen := i, uint8(0)
		for ; j < n && addrClass[s[j]] != 0; j++ {
			seen |= addrClass[s[j]]
		}
		if seen&(addrDigit|addrSep) == addrDigit|addrSep {
			out = append(out, s[i:j])
		}
		i = j
	}
	return out
}

// addrClass classifies the bytes of an address token: nonzero for
// [0-9a-fA-F:.], with addrDigit set for digits and addrSep for '.' and ':'.
var addrClass = func() (t [256]uint8) {
	const hexLetters = "abcdefABCDEF"
	for i := range hexLetters {
		t[hexLetters[i]] = addrHex
	}
	for c := '0'; c <= '9'; c++ {
		t[c] = addrDigit
	}
	t['.'], t[':'] = addrSep, addrSep
	return t
}()

const (
	addrHex uint8 = 1 << iota
	addrDigit
	addrSep
)

// isSpace is the whitespace of the grammar: [\t\n\f\r ].
func isSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\f' || c == '\r'
}

// trimSpace drops leading whitespace.
func trimSpace(s string) string {
	for s != "" && isSpace(s[0]) {
		s = s[1:]
	}
	return s
}

// trimSpaces drops leading ' ' characters only.
func trimSpaces(s string) string {
	for s != "" && s[0] == ' ' {
		s = s[1:]
	}
	return s
}

// nonSpace returns the leading run of non-whitespace bytes.
func nonSpace(s string) string {
	for i := 0; i < len(s); i++ {
		if isSpace(s[i]) {
			return s[:i]
		}
	}
	return s
}

// digits returns the length of s's leading run of ASCII digits.
func digits(s string) int {
	n := 0
	for n < len(s) && s[n] >= '0' && s[n] <= '9' {
		n++
	}
	return n
}
