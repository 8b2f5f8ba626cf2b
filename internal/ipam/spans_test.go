package ipam

import (
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"sort"
	"testing"
)

// linearPool is the pool as it was before it kept its allocations as
// address-ordered spans: every candidate is checked against every
// allocation. It is the oracle the span index is held to.
type linearPool struct {
	root      netip.Prefix
	allocated map[netip.Prefix]string
	cursor    map[int]netip.Prefix
}

func newLinearPool(root string) *linearPool {
	return &linearPool{
		root:      netip.MustParsePrefix(root).Masked(),
		allocated: map[netip.Prefix]string{},
		cursor:    map[int]netip.Prefix{},
	}
}

func (p *linearPool) overlaps(cand netip.Prefix) bool {
	for a := range p.allocated {
		if a.Overlaps(cand) {
			return true
		}
	}
	return false
}

func (p *linearPool) allocate(bits int, owner string) (netip.Prefix, error) {
	if bits < p.root.Bits() || bits > p.root.Addr().BitLen() {
		return netip.Prefix{}, fmt.Errorf("ipam: prefix length /%d out of range for pool %s", bits, p.root)
	}
	cand, ok := p.cursor[bits]
	if !ok {
		cand = netip.PrefixFrom(p.root.Addr(), bits)
	}
	for p.root.Overlaps(cand) {
		if !p.overlaps(cand) {
			p.allocated[cand] = owner
			if next, err := nextSubnet(cand); err == nil {
				p.cursor[bits] = next
			} else {
				delete(p.cursor, bits)
			}
			return cand, nil
		}
		var err error
		if cand, err = nextSubnet(cand); err != nil {
			break
		}
	}
	return netip.Prefix{}, fmt.Errorf("ipam: pool %s exhausted for /%d", p.root, bits)
}

func (p *linearPool) reserve(prefix netip.Prefix, owner string) error {
	prefix = prefix.Masked()
	if !p.root.Overlaps(prefix) || prefix.Bits() < p.root.Bits() {
		return fmt.Errorf("ipam: %s is outside pool %s", prefix, p.root)
	}
	if p.overlaps(prefix) {
		return fmt.Errorf("ipam: %s conflicts with an existing allocation", prefix)
	}
	p.allocated[prefix] = owner
	return nil
}

func (p *linearPool) free(prefix netip.Prefix) error {
	prefix = prefix.Masked()
	if _, ok := p.allocated[prefix]; !ok {
		return fmt.Errorf("ipam: %s was not allocated from this pool", prefix)
	}
	delete(p.allocated, prefix)
	if cur, ok := p.cursor[prefix.Bits()]; ok && (!cur.IsValid() || prefix.Addr().Less(cur.Addr())) {
		p.cursor[prefix.Bits()] = prefix
	}
	return nil
}

func (p *linearPool) allocations() []netip.Prefix {
	out := make([]netip.Prefix, 0, len(p.allocated))
	for pfx := range p.allocated {
		out = append(out, pfx)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Addr() != out[j].Addr() {
			return out[i].Addr().Less(out[j].Addr())
		}
		return out[i].Bits() < out[j].Bits()
	})
	return out
}

// TestSpansAnswerAsTheLinearScan: over seeded sequences of Allocate,
// Reserve and Free of mixed lengths — reservations of random subnets that
// nest in, contain or miss what is held, frees of held and unheld
// prefixes — the span-indexed pool returns what the linear scan it
// replaced returns, error for error, and holds the same allocations with
// the same owners after every step.
func TestSpansAnswerAsTheLinearScan(t *testing.T) {
	for _, root := range []string{"10.8.0.0/24", "2401:db00:f000::/116", "255.255.255.0/25", "ffff:ffff:ffff:ffff:ffff:ffff:ffff:ff00/120"} {
		for seed := int64(1); seed <= 25; seed++ {
			rng := rand.New(rand.NewSource(seed))
			p, oracle := MustPool(root), newLinearPool(root)
			width := oracle.root.Addr().BitLen()
			// randomSubnet is a random subnet of the root, or a stretch
			// around it, at a length near the root's.
			randomSubnet := func() netip.Prefix {
				bits := oracle.root.Bits() - 1 + rng.Intn(width-oracle.root.Bits()+2)
				bits = min(max(bits, 0), width)
				a := oracle.root.Addr().As16()
				off := 16 - width/8
				for i := off + oracle.root.Bits()/8; i < 16; i++ {
					a[i] = byte(rng.Intn(256))
				}
				addr := netip.AddrFrom16(a)
				if width == 32 {
					addr = netip.AddrFrom4([4]byte(a[12:]))
				}
				return netip.PrefixFrom(addr, bits).Masked()
			}
			var held []netip.Prefix
			for step := 0; step < 400; step++ {
				var got, want string
				switch op := rng.Intn(10); {
				case op < 5:
					bits := width - rng.Intn(5)
					if rng.Intn(20) == 0 {
						bits = oracle.root.Bits() - 1 // out of range
					}
					owner := fmt.Sprint("o", step)
					a, aerr := p.Allocate(bits, owner)
					b, berr := oracle.allocate(bits, owner)
					got, want = fmt.Sprint(a, aerr), fmt.Sprint(b, berr)
					if berr == nil {
						held = append(held, b)
					}
				case op < 7:
					pfx, owner := randomSubnet(), fmt.Sprint("r", step)
					got, want = fmt.Sprint(p.Reserve(pfx, owner)), fmt.Sprint(oracle.reserve(pfx, owner))
					if oracle.allocated[pfx] == owner {
						held = append(held, pfx)
					}
				default:
					pfx := randomSubnet()
					if len(held) > 0 && rng.Intn(4) != 0 {
						i := rng.Intn(len(held))
						pfx = held[i]
						held = append(held[:i], held[i+1:]...)
					}
					got, want = fmt.Sprint(p.Free(pfx)), fmt.Sprint(oracle.free(pfx))
				}
				if got != want {
					t.Fatalf("%s seed %d step %d: pool answered %s, the linear scan %s", root, seed, step, got, want)
				}
				if got, want := p.Allocations(), oracle.allocations(); !reflect.DeepEqual(got, want) || p.Used() != len(want) {
					t.Fatalf("%s seed %d step %d: pool holds %v (%d used), the linear scan %v", root, seed, step, got, p.Used(), want)
				}
				for pfx, owner := range oracle.allocated {
					if got := p.Owner(pfx); got != owner {
						t.Fatalf("%s seed %d step %d: %s is owned by %q, the linear scan says %q", root, seed, step, pfx, got, owner)
					}
				}
				if pfx := randomSubnet(); p.Owner(pfx) != oracle.allocated[pfx] {
					t.Fatalf("%s seed %d step %d: %s is owned by %q, the linear scan says %q", root, seed, step, pfx, p.Owner(pfx), oracle.allocated[pfx])
				}
			}
		}
	}
}
