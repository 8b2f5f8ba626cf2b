package netsim

import (
	"fmt"
	"os"
	"testing"

	"github.com/robotron-net/robotron/internal/vclock"
)

// The scale benchmarks measure the netsim hot path — what a single config
// commit costs as the fleet grows — at fleet sizes far beyond the 256
// devices the original benchmarks stopped at. The 16384 and 100k sizes
// are gated behind ROBOTRON_BENCH_LARGE=1 so `make bench` stays fast by
// default; `make bench-scale` sets the variable.

func benchLarge() bool { return os.Getenv("ROBOTRON_BENCH_LARGE") == "1" }

// scaleFleetSizes returns the fleet sizes to benchmark.
func scaleFleetSizes() []int {
	sizes := []int{256, 4096}
	if benchLarge() {
		sizes = append(sizes, 16384)
	}
	return sizes
}

// ringAddrs returns the two /31 endpoint addresses of ring link l.
func ringAddrs(l int) (a, z string) {
	base := l * 2
	return fmt.Sprintf("10.%d.%d.%d", (base>>16)&255, (base>>8)&255, base&255),
		fmt.Sprintf("10.%d.%d.%d", (base>>16)&255, (base>>8)&255, (base&255)+1)
}

// ringConfig builds the vendor1 config of device i in an n-device ring:
// two point-to-point interfaces and an eBGP session to each ring
// neighbor's far-end address.
func ringConfig(i, n int) string {
	left := (i - 1 + n) % n
	leftPeer, leftNear := ringAddrs(left) // link left: (left dev side, our side)
	rightNear, rightPeer := ringAddrs(i)  // link i: (our side, right dev side)
	return fmt.Sprintf(`hostname dev%06d
interface et1/1
 ip addr %s/31
interface et1/2
 ip addr %s/31
neighbor %s remote-as 65000
neighbor %s remote-as 65000
`, i, leftNear, rightNear, leftPeer, rightPeer)
}

// buildRingFleet wires n devices in a ring and commits every config.
func buildRingFleet(tb testing.TB, n int) *Fleet {
	tb.Helper()
	f := NewFleet(vclock.RealClock())
	for i := 0; i < n; i++ {
		if _, err := f.AddDevice(fmt.Sprintf("dev%06d", i), Vendor1, "bb", "bench"); err != nil {
			tb.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		d, _ := f.Device(fmt.Sprintf("dev%06d", i))
		if err := d.LoadConfig(ringConfig(i, n)); err != nil {
			tb.Fatal(err)
		}
		if err := d.Commit(); err != nil {
			tb.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		if err := f.Wire(fmt.Sprintf("dev%06d", i), "et1/2", fmt.Sprintf("dev%06d", (i+1)%n), "et1/1"); err != nil {
			tb.Fatal(err)
		}
	}
	return f
}

// BenchmarkScaleRecomputeCommit is the hot path of the management plane:
// one device commits a config change and the fleet's derived state
// (links, LLDP, BGP) settles. Before the incremental engine this cost a
// full-fleet rederivation per commit.
func BenchmarkScaleRecomputeCommit(b *testing.B) {
	for _, n := range scaleFleetSizes() {
		b.Run(fmt.Sprintf("fleet=%d", n), func(b *testing.B) {
			f := buildRingFleet(b, n)
			d, _ := f.Device("dev000000")
			cfg := ringConfig(0, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := d.LoadConfig(cfg); err != nil {
					b.Fatal(err)
				}
				if err := d.Commit(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkScaleRecompute100k is the 100k-device microbench: single
// device commit at a fleet size matching the paper's production estate.
func BenchmarkScaleRecompute100k(b *testing.B) {
	if !benchLarge() {
		b.Skip("set ROBOTRON_BENCH_LARGE=1 to run the 100k microbench")
	}
	n := 100_000
	f := buildRingFleet(b, n)
	d, _ := f.Device("dev000000")
	cfg := ringConfig(0, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.LoadConfig(cfg); err != nil {
			b.Fatal(err)
		}
		if err := d.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}
