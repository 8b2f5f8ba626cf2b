package configgen

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"github.com/robotron-net/robotron/internal/fbnet"
	"github.com/robotron-net/robotron/internal/relstore"
	"github.com/robotron-net/robotron/internal/revctl"
	"github.com/robotron-net/robotron/internal/telemetry"
	"github.com/robotron-net/robotron/internal/thriftlite"
)

// Memoized regeneration. Deriving a device's data object walks dozens of
// FBNet objects; regenerating a whole site after one small design change
// used to redo that walk for every device. The generator instead caches
// each derivation together with its read set — the rows it fetched and
// the reverse-index lookups it issued — and follows the store's binlog
// with one cursor: every generate call first reads the entries logged
// since the last one, once, and drops each derivation an entry touches.
// What is still cached afterwards is current, so a hit reads no log at all
// and regeneration costs O(new entries + changed devices), not O(site).

// dep is one element of a read set, in the shape a binlog entry names it.
// With col == "" it is the row whose id is val: a row the derivation
// fetched. Otherwise it is a reverse (or unique) lookup it issued: any entry
// whose Values carry col=val can add a row to its result and invalidates.
type dep struct {
	table, col string
	val        any
}

// deriveEntry is one memoized derivation, immutable after construction.
type deriveEntry struct {
	name     string // device name, its key in Generator.derived
	syslog   string // SyslogTarget baked into the derived data
	deps     map[dep]struct{}
	data     *DeviceData
	wire     []byte // thrift wire form of data
	wireHash string
}

// followLog brings the memo up to the store's log and returns the cursor:
// the sequence every derivation still cached is current at. It stops where
// the read path does, so a derive that starts now reads rows no older.
func (g *Generator) followLog() uint64 {
	db := g.store.DB()
	g.memoMu.Lock()
	defer g.memoMu.Unlock()
	visible, start := db.ReadSeq(), g.cursor
	entries := db.EntriesSince(g.cursor)
	for i := range entries {
		le := &entries[i]
		if le.Seq > visible {
			break
		}
		g.cursor = le.Seq
		switch le.Op {
		case relstore.OpCreateTable, relstore.OpAlterAddColumn:
			g.forgetAllLocked() // schema operations invalidate conservatively
			continue
		}
		g.forgetLocked(dep{le.Table, "", le.RowID})
		for col, v := range le.Values {
			g.forgetLocked(dep{le.Table, col, v})
		}
	}
	g.metrics.followed.Add(int64(g.cursor - start)) // seqs are dense
	return g.cursor
}

// forgetLocked drops every derivation whose read set holds d.
func (g *Generator) forgetLocked(d dep) {
	for len(g.index[d]) > 0 {
		g.unindexLocked(g.index[d][0])
	}
}

// indexLocked caches e, replacing the device's previous derivation, under
// every dep of its read set.
func (g *Generator) indexLocked(e *deriveEntry) {
	if old := g.derived[e.name]; old != nil {
		g.unindexLocked(old)
	}
	g.derived[e.name] = e
	for d := range e.deps {
		g.index[d] = append(g.index[d], e)
	}
}

func (g *Generator) unindexLocked(e *deriveEntry) {
	delete(g.derived, e.name)
	for d := range e.deps {
		es := g.index[d]
		last := len(es) - 1
		if last == 0 {
			delete(g.index, d)
			continue
		}
		i := slices.Index(es, e)
		es[i], es[last] = es[last], nil // order is immaterial
		g.index[d] = es[:last]
	}
}

func (g *Generator) forgetAllLocked() {
	g.derived = make(map[string]*deriveEntry)
	g.index = make(map[dep][]*deriveEntry)
}

// deriveCtx routes one derivation's store reads, recording its read set.
type deriveCtx struct {
	g    *Generator
	deps map[dep]struct{}
}

func (g *Generator) newDeriveCtx() *deriveCtx {
	return &deriveCtx{g: g, deps: make(map[dep]struct{})}
}

func (dc *deriveCtx) getByID(model string, id int64) (fbnet.Object, error) {
	dc.deps[dep{model, "", id}] = struct{}{}
	return dc.g.store.GetByID(model, id)
}

func (dc *deriveCtx) referencing(model, fkCol string, id int64) ([]int64, error) {
	dc.deps[dep{model, fkCol, id}] = struct{}{}
	return dc.g.store.DB().Referencing(model, fkCol, id)
}

func (dc *deriveCtx) findDevice(name string) (fbnet.Object, error) {
	// A later insert (or rename) of a device with this name must
	// invalidate, so the unique lookup is a dep on Device.name.
	dc.deps[dep{"Device", "name", name}] = struct{}{}
	dev, err := dc.g.store.FindOne("Device", fbnet.Eq("name", name))
	if err == nil {
		dc.deps[dep{"Device", "", dev.ID}] = struct{}{}
	}
	return dev, err
}

// GenStats counts generator work, distinguishing real derivations and
// renders from memoized reuse.
type GenStats struct {
	Derives    int64 // full derivations executed
	DeriveHits int64 // derivations answered from the memo cache
	Renders    int64 // template renders executed
	RenderHits int64 // configs answered from the render cache
	RoundTrips int64 // thrift wire round-trips decoded
}

// Stats returns a snapshot of the generator's work counters. Since the
// counters migrated onto the telemetry registry this is a thin view
// over the registry-backed values; it reads all zeros after
// Instrument(nil).
func (g *Generator) Stats() GenStats {
	return GenStats{
		Derives:    g.metrics.derives.Value(),
		DeriveHits: g.metrics.deriveHits.Value(),
		Renders:    g.metrics.renders.Value(),
		RenderHits: g.metrics.renderHits.Value(),
		RoundTrips: g.metrics.roundTrips.Value(),
	}
}

// ResetMemo drops every memoized derivation and rendered config, forcing
// cold regeneration. Counters are not reset.
func (g *Generator) ResetMemo() {
	g.memoMu.Lock()
	defer g.memoMu.Unlock()
	g.forgetAllLocked()
	g.rendered = make(map[string]string)
}

// deriveCached returns the device's derivation: the memoized one when the
// log followed so far (at, from followLog) left it standing, a fresh one
// otherwise. hit reports whether the memo answered.
func (g *Generator) deriveCached(deviceName string, at uint64) (*deriveEntry, bool, error) {
	syslog := g.SyslogTarget
	g.memoMu.Lock()
	e := g.derived[deviceName]
	g.memoMu.Unlock()
	if e != nil && e.syslog == syslog {
		g.metrics.deriveHits.Inc()
		return e, true, nil
	}

	dc := g.newDeriveCtx()
	data, err := g.derive(dc, deviceName)
	if err != nil {
		return nil, false, err
	}
	wire, err := thriftlite.Marshal(data)
	if err != nil {
		return nil, false, fmt.Errorf("configgen: serializing device data for %s: %w", deviceName, err)
	}
	e = &deriveEntry{
		name: deviceName, syslog: syslog, deps: dc.deps,
		data: data, wire: wire, wireHash: revctl.Hash(string(wire)),
	}
	g.memoMu.Lock()
	// The derive read rows at least as new as at, and whatever is logged
	// past the cursor will still be followed: at == cursor means nothing can
	// slip by. If a concurrent call moved the cursor meanwhile, the entries
	// in between were never held against this read set — return, don't cache.
	if at == g.cursor {
		g.indexLocked(e)
	}
	g.memoMu.Unlock()
	g.metrics.derives.Inc()
	return e, false, nil
}

// DeviceErrors aggregates per-device generation failures, keyed by device
// name. It is returned alongside the successfully generated configs so a
// site generation degrades to a partial result instead of aborting on the
// first broken device.
type DeviceErrors map[string]error

func (e DeviceErrors) Error() string {
	names := make([]string, 0, len(e))
	for n := range e {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	fmt.Fprintf(&b, "configgen: %d device(s) failed:", len(e))
	for _, n := range names {
		fmt.Fprintf(&b, "\n  %s: %v", n, e[n])
	}
	return b.String()
}

// GenerateMany generates configs for the named devices through a bounded
// worker pool, mirroring the deploy engine's parallel phase execution.
// parallelism <= 0 selects the default of 8 workers; the pool never
// exceeds len(names). The returned map holds every device that generated
// successfully; if any failed, err is a DeviceErrors with one entry per
// failed device. A span passed after parallelism becomes the parent of one
// child span per device (memo/render hit attrs); without one generation is
// untraced.
func (g *Generator) GenerateMany(names []string, parallelism int, span ...*telemetry.Span) (map[string]string, error) {
	var parent *telemetry.Span
	if len(span) > 0 {
		parent = span[0]
	}
	if parallelism <= 0 {
		parallelism = 8
	}
	parallelism = max(1, min(parallelism, len(names)))
	at := g.followLog()
	configs := make([]string, len(names))
	errs := make([]error, len(names))
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				var sp *telemetry.Span
				if parent != nil {
					sp = parent.Child("generate-device")
					sp.SetAttr("device", names[i])
				}
				configs[i], errs[i] = g.generateDevice(names[i], at, sp)
				if errs[i] != nil {
					sp.SetAttr("error", errs[i].Error())
				}
				sp.End()
			}
		}()
	}
	for i := range names {
		work <- i
	}
	close(work)
	wg.Wait()

	out := make(map[string]string, len(names))
	failed := DeviceErrors{}
	for i, name := range names {
		if errs[i] != nil {
			failed[name] = errs[i]
			continue
		}
		out[name] = configs[i]
	}
	if len(failed) > 0 {
		return out, failed
	}
	return out, nil
}
