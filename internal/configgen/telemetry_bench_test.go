package configgen

import (
	"testing"

	"github.com/robotron-net/robotron/internal/fbnet"
	"github.com/robotron-net/robotron/internal/telemetry"
)

// benchMemoizedRegen runs the BenchmarkGenerateSiteMemoized harness —
// warm site, one device invalidated per iteration — against a generator
// built on reg (nil = no-op counters) over the bench site's store.
func benchMemoizedRegen(b *testing.B, reg *telemetry.Registry) {
	site := newBenchSite(b)
	g, err := NewGenerator(site.store, site.repo, site.intent, reg)
	if err != nil {
		b.Fatal(err)
	}
	var tunnelID int64
	_, err = g.store.Mutate(func(m *fbnet.Mutation) error {
		head, err := m.FindOne("Device", fbnet.Eq("name", "pr1.bench-c1"))
		if err != nil {
			return err
		}
		tail, err := m.FindOne("Device", fbnet.Eq("name", "pr2.bench-c1"))
		if err != nil {
			return err
		}
		tunnelID, err = m.Create("MplsTunnel", map[string]any{
			"name": "bench-te", "head_device": head.ID, "tail_device": tail.ID,
			"bandwidth_mbps": 1000})
		return err
	})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := generateSite(g, "bench", 1); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := g.store.Mutate(func(m *fbnet.Mutation) error {
			return m.Update("MplsTunnel", tunnelID, map[string]any{
				"bandwidth_mbps": int64(1000 + i%2)})
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := generateSite(g, "bench", 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTelemetryOverhead compares memoized site regeneration by a
// generator built on a live registry against one built on nil;
// the instrumented run must stay within a few percent of disabled.
func BenchmarkTelemetryOverhead(b *testing.B) {
	b.Run("instrumented", func(b *testing.B) { benchMemoizedRegen(b, telemetry.NewRegistry()) })
	b.Run("disabled", func(b *testing.B) { benchMemoizedRegen(b, nil) })
}
