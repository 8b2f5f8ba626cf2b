package configgen

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"github.com/robotron-net/robotron/internal/design"
	"github.com/robotron-net/robotron/internal/fbnet"
	"github.com/robotron-net/robotron/internal/verify"
)

// TestMemoizedSiteRegeneration: regenerating an unchanged site is answered
// entirely from the memo caches; after a one-device change only the
// affected derivations re-run.
func TestMemoizedSiteRegeneration(t *testing.T) {
	_, g := newPOP(t)
	if _, err := generateSite(g, "pop1", 0); err != nil {
		t.Fatal(err)
	}
	cold := g.Stats()
	if cold.Derives != 6 || cold.DeriveHits != 0 {
		t.Fatalf("cold stats = %+v, want 6 derives, 0 hits", cold)
	}

	// Unchanged store: everything hits.
	if _, err := generateSite(g, "pop1", 0); err != nil {
		t.Fatal(err)
	}
	warm := g.Stats()
	if warm.Derives != cold.Derives {
		t.Errorf("unchanged regen re-derived: %d -> %d", cold.Derives, warm.Derives)
	}
	if warm.DeriveHits != cold.DeriveHits+6 {
		t.Errorf("derive hits = %d, want %d", warm.DeriveHits, cold.DeriveHits+6)
	}
	if warm.Renders != cold.Renders || warm.RoundTrips != cold.RoundTrips {
		t.Errorf("unchanged regen re-rendered: %+v -> %+v", cold, warm)
	}
	if warm.RenderHits != cold.RenderHits+6 {
		t.Errorf("render hits = %d, want %d", warm.RenderHits, cold.RenderHits+6)
	}

	// Writes to tables no derivation read — what monitoring commits
	// between two generations — are skipped on the table name: still all
	// hits, nothing re-derived.
	_, err := g.store.Mutate(func(m *fbnet.Mutation) error {
		if _, err := m.Create("DerivedConfig", map[string]any{
			"device_name": "psw1.pop1-c1", "config_hash": "h", "collected_unix": int64(1), "conforms": true,
		}); err != nil {
			return err
		}
		_, err := m.Create("OperationalEvent", map[string]any{
			"device_name": "psw1.pop1-c1", "kind": "config-changed", "at_unix": int64(1),
		})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := generateSite(g, "pop1", 0); err != nil {
		t.Fatal(err)
	}
	unrelated := g.Stats()
	if unrelated.Derives != warm.Derives || unrelated.DeriveHits != warm.DeriveHits+6 {
		t.Errorf("writes to unread tables invalidated the memo: %+v -> %+v", warm, unrelated)
	}
	warm = unrelated

	// A write to a table the derivations did read still invalidates, and
	// precisely: one device changes, and only derivations that read its
	// row re-run (the device itself plus the 2 PRs that render a
	// description of it), not the whole site.
	_, err = g.store.Mutate(func(m *fbnet.Mutation) error {
		dev, err := m.FindOne("Device", fbnet.Eq("name", "psw1.pop1-c1"))
		if err != nil {
			return err
		}
		return m.Update("Device", dev.ID, map[string]any{"loopback_v6": "2401:db00:ffff::99/128"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := generateSite(g, "pop1", 0); err != nil {
		t.Fatal(err)
	}
	after := g.Stats()
	redone := after.Derives - warm.Derives
	if redone == 0 || redone >= 6 {
		t.Errorf("one-device change re-derived %d of 6", redone)
	}
	// The change must actually land in the device's config.
	cfg, err := g.GenerateDevice("psw1.pop1-c1")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(cfg, "2401:db00:ffff::99") {
		t.Error("updated loopback missing from regenerated config")
	}
}

// TestMemoSyslogTargetInvalidates: generator-level knobs baked into the
// derived data are part of the cache key.
func TestMemoSyslogTargetInvalidates(t *testing.T) {
	_, g := newPOP(t)
	if _, err := g.GenerateDevice("pr1.pop1-c1"); err != nil {
		t.Fatal(err)
	}
	before := g.Stats()
	g.SyslogTarget = "2401:db00::5140"
	cfg, err := g.GenerateDevice("pr1.pop1-c1")
	if err != nil {
		t.Fatal(err)
	}
	after := g.Stats()
	if after.Derives != before.Derives+1 {
		t.Errorf("syslog change did not re-derive: %+v -> %+v", before, after)
	}
	if !strings.Contains(cfg, "2401:db00::5140") {
		t.Error("new syslog target missing from config")
	}
}

// TestMemoTemplateRecommitRerendersOnly: a template change re-renders from
// the cached wire form without re-deriving.
func TestMemoTemplateRecommitRerendersOnly(t *testing.T) {
	_, g := newPOP(t)
	if _, err := g.GenerateDevice("pr1.pop1-c1"); err != nil {
		t.Fatal(err)
	}
	before := g.Stats()
	body, _ := g.repo.GetHead(TemplatePath("vendor1"))
	body = strings.Replace(body, "hostname {{ device.name }}",
		"hostname {{ device.name }}\nservice memo-marker", 1)
	if _, err := g.repo.Commit(TemplatePath("vendor1"), body, "e2", "marker"); err != nil {
		t.Fatal(err)
	}
	cfg, err := g.GenerateDevice("pr1.pop1-c1")
	if err != nil {
		t.Fatal(err)
	}
	after := g.Stats()
	if after.Derives != before.Derives {
		t.Errorf("template recommit re-derived: %+v -> %+v", before, after)
	}
	if after.DeriveHits != before.DeriveHits+1 {
		t.Errorf("derive hits = %d, want %d", after.DeriveHits, before.DeriveHits+1)
	}
	if after.Renders != before.Renders+1 {
		t.Errorf("template recommit did not re-render: %+v -> %+v", before, after)
	}
	if !strings.Contains(cfg, "service memo-marker") {
		t.Error("template change missing from config")
	}
}

// TestRoundTripRunsOnFreshRenders: the Thrift wire round-trip is skipped
// only when the rendered config itself is served from cache; every fresh
// render — whether from a fresh derivation or a cached one meeting a new
// template — still decodes the wire form.
func TestRoundTripRunsOnFreshRenders(t *testing.T) {
	_, g := newPOP(t)
	if _, err := g.GenerateDevice("pr1.pop1-c1"); err != nil {
		t.Fatal(err)
	}
	s := g.Stats()
	if s.RoundTrips != 1 || s.Renders != 1 {
		t.Fatalf("fresh generate: %+v, want 1 round-trip and 1 render", s)
	}
	// Cache hit: no additional round-trip.
	if _, err := g.GenerateDevice("pr1.pop1-c1"); err != nil {
		t.Fatal(err)
	}
	if s2 := g.Stats(); s2.RoundTrips != 1 {
		t.Errorf("memoized hit round-tripped: %+v", s2)
	}
	// Template change: derive is cached, render is fresh — the round-trip
	// must run again (generation still consumes the wire form).
	body, _ := g.repo.GetHead(TemplatePath("vendor1"))
	if _, err := g.repo.Commit(TemplatePath("vendor1"), body+"\n", "e2", "bump"); err != nil {
		t.Fatal(err)
	}
	if _, err := g.GenerateDevice("pr1.pop1-c1"); err != nil {
		t.Fatal(err)
	}
	if s3 := g.Stats(); s3.RoundTrips != 2 || s3.Renders != 2 {
		t.Errorf("fresh render skipped the round-trip: %+v", s3)
	}
}

// TestGenerateSitePartialErrors: one broken device yields its own error
// entry and does not block the rest of the site.
func TestGenerateSitePartialErrors(t *testing.T) {
	_, g := newPOP(t)
	// Attach a policy with no terms (the §8 "still under development"
	// hazard) to a session whose local side is pr1.
	var victim string
	_, err := g.store.Mutate(func(m *fbnet.Mutation) error {
		pid, err := m.Create("RoutingPolicy", map[string]any{"name": "wip-policy"})
		if err != nil {
			return err
		}
		pr1, err := m.FindOne("Device", fbnet.Eq("name", "pr1.pop1-c1"))
		if err != nil {
			return err
		}
		sessions, err := m.Find("BgpV6Session", fbnet.Eq("local_device", pr1.ID))
		if err != nil {
			return err
		}
		if len(sessions) == 0 {
			return fmt.Errorf("pr1 has no local sessions")
		}
		victim = "pr1.pop1-c1"
		return m.Update("BgpV6Session", sessions[0].ID, map[string]any{"import_policy": pid})
	})
	if err != nil {
		t.Fatal(err)
	}
	cfgs, err := generateSite(g, "pop1", 0)
	if err == nil {
		t.Fatal("broken device did not surface an error")
	}
	var devErrs DeviceErrors
	if !errors.As(err, &devErrs) {
		t.Fatalf("error is %T, want DeviceErrors", err)
	}
	if len(devErrs) != 1 || devErrs[victim] == nil {
		t.Fatalf("device errors = %v, want only %s", devErrs, victim)
	}
	if !strings.Contains(err.Error(), "no terms") || !strings.Contains(err.Error(), victim) {
		t.Errorf("error message lacks detail: %v", err)
	}
	if len(cfgs) != 5 {
		t.Errorf("partial result = %d configs, want 5", len(cfgs))
	}
	if _, ok := cfgs[victim]; ok {
		t.Error("failed device present in the partial result")
	}
}

// TestGeneratorConcurrentUse hammers one Generator from many goroutines
// while templates are recommitted and the store mutates underneath — the
// memo layer must stay consistent (run under -race by make tier1).
func TestGeneratorConcurrentUse(t *testing.T) {
	_, g := newPOP(t)
	devices := []string{
		"pr1.pop1-c1", "pr2.pop1-c1",
		"psw1.pop1-c1", "psw2.pop1-c1", "psw3.pop1-c1", "psw4.pop1-c1",
	}
	const workers = 8
	const iters = 40
	var wg sync.WaitGroup
	errCh := make(chan error, workers+1)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				name := devices[(w+i)%len(devices)]
				cfg, err := g.GenerateDevice(name)
				if err != nil {
					errCh <- fmt.Errorf("worker %d: %s: %w", w, name, err)
					return
				}
				if !strings.Contains(cfg, name) {
					errCh <- fmt.Errorf("worker %d: config for %s lacks its hostname", w, name)
					return
				}
				if i%10 == 0 {
					if _, err := generateSite(g, "pop1", 4); err != nil {
						errCh <- fmt.Errorf("worker %d: site: %w", w, err)
						return
					}
				}
			}
		}(w)
	}
	// Concurrent template churn and store churn.
	wg.Add(1)
	go func() {
		defer wg.Done()
		base, _ := g.repo.GetHead(TemplatePath("vendor1"))
		for i := 0; i < 20; i++ {
			body := base + strings.Repeat("\n", i%3)
			if _, err := g.repo.Commit(TemplatePath("vendor1"), body, "e2", "churn"); err != nil {
				errCh <- err
				return
			}
			_, err := g.store.Mutate(func(m *fbnet.Mutation) error {
				dev, err := m.FindOne("Device", fbnet.Eq("name", devices[i%len(devices)]))
				if err != nil {
					return err
				}
				return m.Update("Device", dev.ID, map[string]any{
					"mgmt_ip": fmt.Sprintf("10.42.0.%d", i+1)})
			})
			if err != nil {
				errCh <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	// The dust settles: what the memo kept through the churn — nothing was
	// reset — is what a generator that never saw it produces.
	assertMemoEqualsCold(t, g, devices, "after concurrent churn")
}

// assertMemoEqualsCold generates names on g and on a fresh generator over
// the same store and repository and requires identical configs and
// identical per-device failures.
func assertMemoEqualsCold(t *testing.T, g *Generator, names []string, step string) map[string]string {
	t.Helper()
	cold, err := NewGenerator(g.store, g.repo, verify.NewChecker(g.store, nil, nil), nil)
	if err != nil {
		t.Fatal(err)
	}
	cold.SyslogTarget = g.SyslogTarget
	got, gotErr := g.GenerateMany(names, 4)
	want, wantErr := cold.GenerateMany(names, 4)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: memoized errors\n%v\ncold errors\n%v", step, gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		for _, n := range names {
			if got[n] != want[n] {
				t.Fatalf("%s: memoized config for %s differs from a cold generator's\nmemo:\n%s\ncold:\n%s", step, n, got[n], want[n])
			}
		}
	}
	return got
}

// benchTopology is a 16-device single-site cluster (4 PRs x 12 PSWs) used
// by the generation benchmarks.
func benchTopology() design.TopologyTemplate {
	return design.TopologyTemplate{
		Name:       "bench-16dev",
		Generation: "bench-gen1",
		Devices: []design.DeviceSpec{
			{Role: "pr", Count: 4, HwProfile: "Router_Vendor1", NamePrefix: "pr"},
			{Role: "psw", Count: 12, HwProfile: "Switch_Vendor2", NamePrefix: "psw"},
		},
		Links: []design.LinkSpec{
			{ARole: "pr", ZRole: "psw", CircuitsPerLink: 2, EBGP: true},
		},
		Addressing: design.AddressingSpec{
			V6:          true,
			LocalASBase: map[string]int64{"pr": 65000, "psw": 65100},
		},
	}
}

// newBenchSite builds the 16-device benchmark site.
func newBenchSite(tb testing.TB) *Generator {
	tb.Helper()
	d, g := newPOP(tb)
	if _, err := d.EnsureSite("bench", "pop", "apac"); err != nil {
		tb.Fatal(err)
	}
	if _, err := d.BuildCluster(testCtx("pop"), "bench", "bench-c1", benchTopology()); err != nil {
		tb.Fatal(err)
	}
	return g
}

// BenchmarkGenerateSiteSerial is the cold, single-worker baseline.
func BenchmarkGenerateSiteSerial(b *testing.B) {
	g := newBenchSite(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.ResetMemo()
		if _, err := generateSite(g, "bench", 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGenerateSiteParallel is the cold 8-worker pool. The speedup
// over Serial tracks available cores (GOMAXPROCS).
func BenchmarkGenerateSiteParallel(b *testing.B) {
	g := newBenchSite(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.ResetMemo()
		if _, err := generateSite(g, "bench", 8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGenerateSiteMemoized regenerates the warm site after a change
// that invalidates exactly one device's derivation per iteration.
func BenchmarkGenerateSiteMemoized(b *testing.B) {
	g := newBenchSite(b)
	// A TE tunnel headed at pr1: updating its bandwidth touches a row only
	// pr1's derivation read.
	var tunnelID int64
	_, err := g.store.Mutate(func(m *fbnet.Mutation) error {
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
