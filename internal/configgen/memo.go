package configgen

import (
	"fmt"
	"sort"
	"strings"

	"github.com/robotron-net/robotron/internal/fanout"
	"github.com/robotron-net/robotron/internal/revctl"
	"github.com/robotron-net/robotron/internal/telemetry"
	"github.com/robotron-net/robotron/internal/thriftlite"
)

// Memoized regeneration. Deriving a device's data object walks dozens of
// FBNet objects; regenerating a whole site after one small design change
// used to redo that walk for every device. The generator instead caches
// each derivation and follows the resident intent model the verify gate
// keeps (Intent), which stamps a device whenever a row its derivation
// reads commits a change: every generate call first asks the model, once,
// which device names were stamped since the memo last asked, and drops
// their derivations — all of them when the model was rebuilt. What is
// still cached afterwards is current, so a hit reads nothing and
// regeneration costs O(changed devices), not O(site).

// Intent is the resident intent model the memo follows: the verify gate's
// *verify.Checker, seen through this interface because verify's tests
// generate configs.
type Intent interface {
	// DevicesSince brings the model up to the rows the store's readers
	// see and returns its stamp. all reports that stamp predates the
	// model (0, or a rebuild since); otherwise names holds every device
	// name whose derivation inputs changed after stamp, and every name no
	// device holds any more.
	DevicesSince(stamp uint64) (now uint64, all bool, names []string, err error)
}

// deriveEntry is one memoized derivation, immutable after construction.
type deriveEntry struct {
	syslog   string // SyslogTarget baked into the derived data
	data     *DeviceData
	wire     []byte // thrift wire form of data
	wireHash string
}

// follow brings the memo up to the intent model and returns the model's
// stamp: every derivation still cached is current at it, and a derive
// that starts now reads rows no older. Follows run one at a time, so each
// one's drops apply in stamp order.
func (g *Generator) follow() (uint64, error) {
	g.followMu.Lock()
	defer g.followMu.Unlock()
	now, all, names, err := g.intent.DevicesSince(g.stamp)
	if err != nil {
		return 0, fmt.Errorf("configgen: reading the intent model: %w", err)
	}
	g.memoMu.Lock()
	defer g.memoMu.Unlock()
	if all {
		clear(g.derived)
		clear(g.dropped)
		g.rebuilt = now
	}
	for _, name := range names {
		delete(g.derived, name)
		g.dropped[name] = now
	}
	g.stamp = now
	return now, nil
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
	clear(g.derived)
	g.rendered = make(map[string]string)
}

// deriveCached returns the device's derivation: the memoized one when the
// model followed so far (at, from follow) left it standing, a fresh one
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

	data, err := g.derive(deviceName)
	if err != nil {
		return nil, false, err
	}
	wire, err := thriftlite.Marshal(data)
	if err != nil {
		return nil, false, fmt.Errorf("configgen: serializing device data for %s: %w", deviceName, err)
	}
	e = &deriveEntry{syslog: syslog, data: data, wire: wire, wireHash: revctl.Hash(string(wire))}
	g.memoMu.Lock()
	// The derive read rows at least as new as at. If a concurrent call
	// followed the model past at meanwhile, its drops never saw this
	// entry: cache it only if none of them named the device. Whether a
	// derivation is cached thus depends on what changed, not on how
	// concurrent generations interleaved.
	if g.rebuilt <= at && g.dropped[deviceName] <= at {
		g.derived[deviceName] = e
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

// GenerateMany generates configs for the named devices on the worker pool
// the deploy engine runs its steps on (fanout.Run); parallelism is its
// width, fanout.Width's default when 0. A device that fails does not stop
// the others. The returned map holds every device that generated
// successfully; if any failed, err is a DeviceErrors with one entry per
// failed device. A span passed after parallelism becomes the parent of one
// child span per device (memo/render hit attrs); without one generation is
// untraced. When the intent model cannot be read (a store that is down),
// nothing is generated and that error is returned alone.
func (g *Generator) GenerateMany(names []string, parallelism int, span ...*telemetry.Span) (map[string]string, error) {
	var parent *telemetry.Span
	if len(span) > 0 {
		parent = span[0]
	}
	at, err := g.follow()
	if err != nil {
		return nil, err
	}
	// Each device's error rides in its value, so the pool never sees a
	// failure and dispatches every device.
	type generated struct {
		config string
		err    error
	}
	outs := fanout.Run(names, parallelism, func(name string) (generated, error) {
		var sp *telemetry.Span
		if parent != nil {
			sp = parent.Child("generate-device")
			sp.SetAttr("device", name)
		}
		cfg, err := g.generateDevice(name, at, sp)
		if err != nil {
			sp.SetAttr("error", err.Error())
		}
		sp.End()
		return generated{cfg, err}, nil
	})

	out := make(map[string]string, len(names))
	failed := DeviceErrors{}
	for _, o := range outs {
		if o.Val.err != nil {
			failed[o.Name] = o.Val.err
			continue
		}
		out[o.Name] = o.Val.config
	}
	if len(failed) > 0 {
		return out, failed
	}
	return out, nil
}
