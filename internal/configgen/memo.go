package configgen

import (
	"fmt"
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
// the reverse-index lookups it issued — and revalidates against the
// store's binlog: a cached derivation is reused unless some entry since
// it was computed touches a row it read (row dep) or inserts/updates a
// row into one of its reverse lookups (value dep). Regeneration cost is
// then O(changed devices), not O(site).

// rowDep identifies one row a derivation read.
type rowDep struct {
	table string
	id    int64
}

// valDep identifies one reverse-lookup (or unique-lookup) a derivation
// issued: any binlog entry whose Values carry col=val for the table can
// add a row to that lookup's result and must invalidate.
type valDep struct {
	table string
	col   string
	val   any
}

// deriveEntry is one memoized derivation. All fields except seq are
// immutable after construction; seq is advanced under Generator.memoMu as
// revalidations prove newer binlog prefixes harmless.
type deriveEntry struct {
	seq      uint64 // store sequence captured before the derive read anything
	syslog   string // SyslogTarget baked into the derived data
	rows     map[rowDep]struct{}
	vals     map[valDep]struct{}
	tables   map[string]struct{} // tables named by rows and vals
	data     *DeviceData
	wire     []byte // thrift wire form of data
	wireHash string
}

// invalidatedBy reports whether any binlog entry since the derivation
// touches its read set. Schema operations invalidate conservatively. An
// entry on a table the derivation never read cannot touch it, and most of
// a delta is such entries (monitoring's Derived rows), so they are skipped
// on the table name alone.
func (e *deriveEntry) invalidatedBy(entries []relstore.LogEntry) bool {
	for i := range entries {
		le := &entries[i]
		switch le.Op {
		case relstore.OpCreateTable, relstore.OpAlterAddColumn:
			return true
		}
		if _, read := e.tables[le.Table]; !read {
			continue
		}
		if _, ok := e.rows[rowDep{le.Table, le.RowID}]; ok {
			return true
		}
		for col, v := range le.Values {
			if _, ok := e.vals[valDep{le.Table, col, v}]; ok {
				return true
			}
		}
	}
	return false
}

// deriveCtx routes one derivation's store reads, recording its read set.
type deriveCtx struct {
	g    *Generator
	rows map[rowDep]struct{}
	vals map[valDep]struct{}
}

func (g *Generator) newDeriveCtx() *deriveCtx {
	return &deriveCtx{g: g, rows: make(map[rowDep]struct{}), vals: make(map[valDep]struct{})}
}

func (dc *deriveCtx) getByID(model string, id int64) (fbnet.Object, error) {
	dc.rows[rowDep{model, id}] = struct{}{}
	return dc.g.store.GetByID(model, id)
}

func (dc *deriveCtx) referencing(model, fkCol string, id int64) ([]int64, error) {
	dc.vals[valDep{model, fkCol, id}] = struct{}{}
	return dc.g.store.DB().Referencing(model, fkCol, id)
}

func (dc *deriveCtx) findDevice(name string) (fbnet.Object, error) {
	// A later insert (or rename) of a device with this name must
	// invalidate, so the unique lookup is a value dep on Device.name.
	dc.vals[valDep{"Device", "name", name}] = struct{}{}
	dev, err := dc.g.store.FindOne("Device", fbnet.Eq("name", name))
	if err == nil {
		dc.rows[rowDep{"Device", dev.ID}] = struct{}{}
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
	g.derived = make(map[string]*deriveEntry)
	g.rendered = make(map[string]string)
}

// deriveCached returns the device's derivation, reusing the memoized one
// when the binlog proves nothing it read has changed. hit reports
// whether the memo answered.
func (g *Generator) deriveCached(deviceName string) (*deriveEntry, bool, error) {
	// Capture the sequence before reading anything: writes that land
	// mid-derive stay in EntriesSince(seq) and force a (safe, possibly
	// spurious) re-derive next time.
	db := g.store.DB()
	seq := db.Seq()
	syslog := g.SyslogTarget

	g.memoMu.Lock()
	e, ok := g.derived[deviceName]
	var eseq uint64
	if ok {
		eseq = e.seq
	}
	g.memoMu.Unlock()

	if ok && e.syslog == syslog && !e.invalidatedBy(db.EntriesSince(eseq)) {
		g.memoMu.Lock()
		if g.derived[deviceName] == e && seq > e.seq {
			e.seq = seq // checked prefix is harmless: shorten the next scan
		}
		g.memoMu.Unlock()
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
	tables := make(map[string]struct{})
	for d := range dc.rows {
		tables[d.table] = struct{}{}
	}
	for d := range dc.vals {
		tables[d.table] = struct{}{}
	}
	e = &deriveEntry{
		seq: seq, syslog: syslog, rows: dc.rows, vals: dc.vals, tables: tables,
		data: data, wire: wire, wireHash: revctl.Hash(string(wire)),
	}
	g.memoMu.Lock()
	g.derived[deviceName] = e
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
	if parallelism > len(names) {
		parallelism = len(names)
	}
	if parallelism < 1 {
		parallelism = 1
	}
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
				configs[i], errs[i] = g.generateDevice(names[i], sp)
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
