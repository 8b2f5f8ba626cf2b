// Package ipam allocates IP prefixes for network designs.
//
// Robotron's design tools allocate point-to-point addresses, loopbacks, and
// rack prefixes from pre-defined pools using design rules (SIGCOMM '16,
// §5.1, §7): every /127 (v6) or /31 (v4) point-to-point subnet is assigned
// to exactly one circuit, both endpoint addresses must come from the same
// subnet, and conflicting allocations — the paper reports circuits
// "misconfigured with conflicting IPs" before automation — must be
// impossible by construction.
package ipam

import (
	"fmt"
	"net/netip"
	"slices"
	"sync"
)

// Pool hands out non-overlapping sub-prefixes of a root prefix. It is safe
// for concurrent use.
type Pool struct {
	mu   sync.Mutex
	root netip.Prefix
	// spans holds the handed-out prefixes in address order, each with an
	// owner tag (circuit name, device name, ...) for auditability. They
	// are disjoint, so a prefix is found by binary search.
	spans []span
	// cursor[bits] is the next candidate subnet of that length, advanced on
	// allocation; Free resets it so freed space is found again.
	cursor map[int]netip.Prefix
}

// NewPool creates a pool over root, e.g. "2401:db00:f000::/40" or
// "10.128.0.0/10".
func NewPool(root string) (*Pool, error) {
	p, err := netip.ParsePrefix(root)
	if err != nil {
		return nil, fmt.Errorf("ipam: bad pool root %q: %w", root, err)
	}
	p = p.Masked()
	return &Pool{
		root:   p,
		cursor: make(map[int]netip.Prefix),
	}, nil
}

// MustPool is NewPool that panics, for statically known roots.
func MustPool(root string) *Pool {
	p, err := NewPool(root)
	if err != nil {
		panic(err)
	}
	return p
}

// Root returns the pool's root prefix.
func (p *Pool) Root() netip.Prefix { return p.root }

// Allocate reserves the first free subnet of the given prefix length and
// records owner as its holder.
func (p *Pool) Allocate(bits int, owner string) (netip.Prefix, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if bits < p.root.Bits() || bits > p.root.Addr().BitLen() {
		return netip.Prefix{}, fmt.Errorf("ipam: prefix length /%d out of range for pool %s", bits, p.root)
	}
	cand, ok := p.cursor[bits]
	if !ok {
		cand = netip.PrefixFrom(p.root.Addr(), bits)
	}
	for p.root.Overlaps(cand) {
		if !p.overlapsAllocated(cand) {
			p.add(cand, owner)
			if next, err := nextSubnet(cand); err == nil {
				p.cursor[bits] = next
			} else {
				// The last subnet of the address space was just handed
				// out. Storing the wrapped (zero) prefix would poison the
				// cursor: it never compares less-than in Free's rewind,
				// so freed space would be unfindable forever. Drop the
				// cursor instead; the next Allocate rescans from the root.
				delete(p.cursor, bits)
			}
			return cand, nil
		}
		var err error
		cand, err = nextSubnet(cand)
		if err != nil {
			break
		}
	}
	return netip.Prefix{}, fmt.Errorf("ipam: pool %s exhausted for /%d", p.root, bits)
}

// Reserve marks a specific prefix as allocated (e.g. when importing an
// existing design). It fails if the prefix is outside the pool or overlaps
// an existing allocation.
func (p *Pool) Reserve(prefix netip.Prefix, owner string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	prefix = prefix.Masked()
	if !p.root.Overlaps(prefix) || prefix.Bits() < p.root.Bits() {
		return fmt.Errorf("ipam: %s is outside pool %s", prefix, p.root)
	}
	if p.overlapsAllocated(prefix) {
		return fmt.Errorf("ipam: %s conflicts with an existing allocation", prefix)
	}
	p.add(prefix, owner)
	return nil
}

// Free releases an allocated prefix.
func (p *Pool) Free(prefix netip.Prefix) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	prefix = prefix.Masked()
	i, ok := p.find(prefix)
	if !ok {
		return fmt.Errorf("ipam: %s was not allocated from this pool", prefix)
	}
	p.spans = slices.Delete(p.spans, i, i+1)
	// Rewind the cursor so the freed space is reconsidered. An invalid
	// cursor (legacy wrapped-state) rewinds too: a zero netip.Addr sorts
	// before every real address, so Less alone would never reclaim.
	if cur, ok := p.cursor[prefix.Bits()]; ok && (!cur.IsValid() || prefix.Addr().Less(cur.Addr())) {
		p.cursor[prefix.Bits()] = prefix
	}
	return nil
}

// Owner returns who holds a prefix ("" when unallocated).
func (p *Pool) Owner(prefix netip.Prefix) string {
	p.mu.Lock()
	defer p.mu.Unlock()
	if i, ok := p.find(prefix.Masked()); ok {
		return p.spans[i].owner
	}
	return ""
}

// Allocations returns all handed-out prefixes in address order.
func (p *Pool) Allocations() []netip.Prefix {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]netip.Prefix, len(p.spans))
	for i, s := range p.spans {
		out[i] = s.pfx
	}
	return out
}

// Used returns the number of active allocations.
func (p *Pool) Used() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.spans)
}

// span is one handed-out prefix and its owner.
type span struct {
	pfx   netip.Prefix
	owner string
}

// search returns the index of the first span starting at or after addr.
func (p *Pool) search(addr netip.Addr) int {
	i, _ := slices.BinarySearchFunc(p.spans, addr, func(s span, a netip.Addr) int { return s.pfx.Addr().Compare(a) })
	return i
}

// find returns the index of the span that is prefix, if one is.
func (p *Pool) find(prefix netip.Prefix) (int, bool) {
	i := p.search(prefix.Addr())
	return i, i < len(p.spans) && p.spans[i].pfx == prefix
}

// overlapsAllocated reports whether cand overlaps a span. Two prefixes
// overlap exactly when one holds the other's first address, and the spans
// are disjoint: only the last span starting before cand can hold cand's
// first address, and only the first starting at or after it can start
// inside cand.
func (p *Pool) overlapsAllocated(cand netip.Prefix) bool {
	i := p.search(cand.Addr())
	return i < len(p.spans) && cand.Contains(p.spans[i].pfx.Addr()) ||
		i > 0 && p.spans[i-1].pfx.Contains(cand.Addr())
}

// add records a prefix that overlaps no span.
func (p *Pool) add(prefix netip.Prefix, owner string) {
	p.spans = slices.Insert(p.spans, p.search(prefix.Addr()), span{prefix, owner})
}

// nextSubnet returns the subnet immediately after p at the same length.
func nextSubnet(p netip.Prefix) (netip.Prefix, error) {
	a := p.Masked().Addr()
	bits := p.Bits()
	bytes := a.As16()
	// Add 1 at the bit position (bits-1) within the 128-bit (or mapped)
	// address space.
	bitLen := a.BitLen()
	if bitLen == 32 {
		b4 := a.As4()
		copy(bytes[12:], b4[:])
	}
	offset := bits - 1
	if bitLen == 32 {
		offset += 96
	}
	byteIdx := offset / 8
	bitIdx := uint(7 - offset%8)
	carry := byte(1 << bitIdx)
	// For v4 the carry must stop at byte 12, where the mapped address
	// begins: letting it ripple into the ::ffff: marker bytes silently
	// swallows the wrap and yields 0.0.0.0 instead of an error.
	low := 0
	if bitLen == 32 {
		low = 12
	}
	for i := byteIdx; i >= low; i-- {
		sum := uint16(bytes[i]) + uint16(carry)
		bytes[i] = byte(sum)
		if sum <= 0xff {
			carry = 0
			break
		}
		carry = 1
	}
	if carry != 0 {
		return netip.Prefix{}, fmt.Errorf("ipam: address space wrapped")
	}
	var next netip.Addr
	if bitLen == 32 {
		next = netip.AddrFrom4([4]byte(bytes[12:16]))
	} else {
		next = netip.AddrFrom16(bytes)
	}
	return netip.PrefixFrom(next, bits), nil
}

// P2P is a point-to-point subnet with its two usable addresses.
type P2P struct {
	Subnet netip.Prefix
	A, Z   netip.Addr
}

// APrefix returns the A-side address with the subnet's prefix length
// (e.g. "10.0.0.0/31"), the form stored on interface objects.
func (p P2P) APrefix() string { return netip.PrefixFrom(p.A, p.Subnet.Bits()).String() }

// ZPrefix returns the Z-side address with the subnet's prefix length.
func (p P2P) ZPrefix() string { return netip.PrefixFrom(p.Z, p.Subnet.Bits()).String() }

// AllocateP2P reserves a point-to-point subnet — /31 for IPv4 pools, /127
// for IPv6 pools per the paper's Fig. 4 — and returns both endpoint
// addresses, guaranteed to be in the same subnet.
func (p *Pool) AllocateP2P(owner string) (P2P, error) {
	bits := 127
	if p.root.Addr().Is4() {
		bits = 31
	}
	sub, err := p.Allocate(bits, owner)
	if err != nil {
		return P2P{}, err
	}
	a := sub.Addr()
	z := a.Next()
	return P2P{Subnet: sub, A: a, Z: z}, nil
}

// AllocateHost reserves a single-address prefix (/32 or /128), used for
// loopbacks.
func (p *Pool) AllocateHost(owner string) (netip.Prefix, error) {
	bits := 128
	if p.root.Addr().Is4() {
		bits = 32
	}
	return p.Allocate(bits, owner)
}

// SameSubnet reports whether two addresses fall in one subnet of the given
// prefix length. Robotron's design validation rejects circuit endpoints
// from different subnets (§1: "point-to-point IP addresses of a circuit
// are rejected if they belong to different subnets").
func SameSubnet(a, z netip.Addr, bits int) bool {
	if a.Is4() != z.Is4() {
		return false
	}
	if bits < 0 || bits > a.BitLen() {
		// An out-of-range length yields invalid (equal) masked prefixes
		// for *any* two addresses; report the pair as distinct rather
		// than vacuously same-subnet.
		return false
	}
	pa := netip.PrefixFrom(a, bits).Masked()
	pz := netip.PrefixFrom(z, bits).Masked()
	return pa == pz
}

// ParseAddrPort is a small helper: parse "addr/bits" into address and bits.
func ParsePrefixAddr(s string) (netip.Addr, int, error) {
	p, err := netip.ParsePrefix(s)
	if err != nil {
		return netip.Addr{}, 0, fmt.Errorf("ipam: bad prefix %q: %w", s, err)
	}
	return p.Addr(), p.Bits(), nil
}
