package monitor

import (
	"sort"
	"strings"
	"sync"

	"github.com/robotron-net/robotron/internal/fbnet"
	"github.com/robotron-net/robotron/internal/revctl"
)

// DefaultSeriesRetention caps how many samples each series keeps
// (mirroring telemetry.DefaultTraceRing): monitoring runs forever, so an
// unbounded append would grow without limit at one sample per poll per
// series.
const DefaultSeriesRetention = 1024

// TimeseriesBackend stores numeric samples in memory, the stand-in for the
// metric storage active monitoring feeds. Each series is a ring: once it
// holds DefaultSeriesRetention samples, the oldest is overwritten.
type TimeseriesBackend struct {
	mu     sync.Mutex
	series map[string]*ring[Sample] // key: device/metric
}

// Sample is one datapoint.
type Sample struct {
	AtUnix int64   `json:"at_unix"`
	Value  float64 `json:"value"`
}

// historyLimit bounds the in-memory histories nothing ever trims: syslog
// alerts kept for flap rules, resolved alarms, recorded deviations.
const historyLimit = 4096

// ring is the package's one bounded history. It grows on demand up to
// limit elements and then overwrites the oldest, so a history costs what
// it holds and never more than its limit. The zero value is ready to use.
type ring[T any] struct {
	buf   []T
	start int // index of the oldest element once buf is full
	limit int // 0 means historyLimit
}

func (r *ring[T]) push(v T) {
	if r.limit == 0 {
		r.limit = historyLimit
	}
	if len(r.buf) < r.limit {
		r.buf = append(r.buf, v)
		return
	}
	r.buf[r.start] = v
	r.start = (r.start + 1) % r.limit
}

// last returns a copy of the k newest elements (all of them when fewer
// are held), oldest first.
func (r *ring[T]) last(k int) []T {
	n := len(r.buf)
	if k > n {
		k = n
	}
	out := make([]T, k)
	for i := range out {
		out[i] = r.buf[(r.start+n-k+i)%n]
	}
	return out
}

// all returns a copy of everything held, oldest first.
func (r *ring[T]) all() []T { return r.last(len(r.buf)) }

// tail returns the newest element and the one before it, in place; n is
// how many of the two are held.
func (r *ring[T]) tail() (last, prev T, n int) {
	n = min(len(r.buf), 2)
	if n > 0 {
		last = r.buf[(r.start+len(r.buf)-1)%len(r.buf)]
	}
	if n > 1 {
		prev = r.buf[(r.start+len(r.buf)-2)%len(r.buf)]
	}
	return last, prev, n
}

// NewTimeseriesBackend returns an empty timeseries store.
func NewTimeseriesBackend() *TimeseriesBackend {
	return &TimeseriesBackend{series: make(map[string]*ring[Sample])}
}

// Name implements Backend.
func (b *TimeseriesBackend) Name() string { return "timeseries" }

func (b *TimeseriesBackend) pushLocked(key string, s Sample) {
	r, ok := b.series[key]
	if !ok {
		r = &ring[Sample]{limit: DefaultSeriesRetention}
		b.series[key] = r
	}
	r.push(s)
}

// Store implements Backend: counters fan out into per-metric series;
// interface collections store per-interface octet counters, both
// directions.
func (b *TimeseriesBackend) Store(col Collection) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	at := col.At.Unix()
	for metric, v := range col.Counters {
		b.pushLocked(col.Device+"/"+metric, Sample{AtUnix: at, Value: v})
	}
	for _, ifc := range col.Interfaces {
		prefix := col.Device + "/" + ifc.Name
		b.pushLocked(prefix+"/in_octets", Sample{AtUnix: at, Value: float64(ifc.InOctets)})
		b.pushLocked(prefix+"/out_octets", Sample{AtUnix: at, Value: float64(ifc.OutOctets)})
	}
	return nil
}

// Series returns the samples of one device/metric key, oldest first.
func (b *TimeseriesBackend) Series(key string) []Sample {
	b.mu.Lock()
	defer b.mu.Unlock()
	r, ok := b.series[key]
	if !ok {
		return nil
	}
	return r.all()
}

// Last returns up to k most recent samples of a series, oldest first.
func (b *TimeseriesBackend) Last(key string, k int) []Sample {
	b.mu.Lock()
	defer b.mu.Unlock()
	r, ok := b.series[key]
	if !ok {
		return nil
	}
	return r.last(k)
}

// tail is Last(key, 2) for the alarm engine's hot path: the key arrives
// as bytes (the lookup converts them without allocating) and the samples
// are read in place, the newest as last.
func (b *TimeseriesBackend) tail(key []byte) (last, prev Sample, n int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	r, ok := b.series[string(key)]
	if !ok {
		return last, prev, 0
	}
	return r.tail()
}

// Keys lists stored series keys.
func (b *TimeseriesBackend) Keys() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]string, 0, len(b.series))
	for k := range b.series {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// DerivedBackend populates FBNet Derived models from collections
// (§4.1.2: "data in Derived models is populated based on real-time
// collection from network devices").
type DerivedBackend struct {
	store *fbnet.Store
}

// NewDerivedBackend returns a backend writing to the given FBNet store.
func NewDerivedBackend(store *fbnet.Store) *DerivedBackend {
	return &DerivedBackend{store: store}
}

// Name implements Backend.
func (b *DerivedBackend) Name() string { return "fbnet-derived" }

// Store implements Backend: the Derived rows of the collection's device
// become what the collection reports.
func (b *DerivedBackend) Store(col Collection) error {
	byDevice := fbnet.Eq("device_name", col.Device)
	at := col.At.Unix()
	_, err := b.store.Mutate(func(m *fbnet.Mutation) error {
		switch col.Data {
		case DataVersion:
			return syncDerived(m, "DerivedDevice", fbnet.Eq("name", col.Device), []string{"name"}, "",
				[]map[string]any{{
					"name": col.Device, "vendor": col.Version.Vendor,
					"os_version": col.Version.OSVersion,
					"uptime_s":   col.Version.UptimeS, "last_seen_unix": at,
				}})
		case DataInterfaces:
			rows := make([]map[string]any, len(col.Interfaces))
			for i, ifc := range col.Interfaces {
				rows[i] = map[string]any{
					"device_name": col.Device, "name": ifc.Name,
					"oper_status": ifc.OperStatus, "speed_mbps": ifc.SpeedMbps,
					"last_change_unix": at,
				}
			}
			return syncDerived(m, "DerivedInterface", byDevice, []string{"name"}, "last_change_unix", rows)
		case DataLLDP:
			rows := make([]map[string]any, len(col.LLDP))
			for i, n := range col.LLDP {
				rows[i] = map[string]any{
					"device_name": col.Device, "interface_name": n.LocalInterface,
					"neighbor_device": n.NeighborDevice, "neighbor_interface": n.NeighborInterface,
				}
			}
			return syncDerived(m, "DerivedLldpNeighbor", byDevice,
				[]string{"interface_name", "neighbor_device", "neighbor_interface"}, "", rows)
		case DataBGP:
			rows := make([]map[string]any, len(col.BGP))
			for i, p := range col.BGP {
				rows[i] = map[string]any{
					"device_name": col.Device, "peer_addr": p.PeerAddr,
					"family": p.Family, "state": p.State,
				}
			}
			return syncDerived(m, "DerivedBgpSession", byDevice, []string{"peer_addr"}, "", rows)
		}
		return nil
	})
	return err
}

// syncDerived is the one writer of observed state (DESIGN.md §15.5): it
// makes the rows of a Derived model inside scope — one device's rows, or
// the whole table when scope is nil — equal to want, the set the latest
// collection reports. Rows are matched by the string columns named in key.
// A reported row that is missing is created, one that is stored has only
// its differing columns updated, and a stored row no longer reported is
// deleted; when nothing differs nothing is written, so an unchanged
// observation appends no binlog entry and every row keeps its id. stamp
// names a column that records when the row last changed ("" for none): it
// is written when the row is created or another column moves, never alone.
// Values must be in stored form (string, int64, bool).
func syncDerived(m *fbnet.Mutation, model string, scope fbnet.Query, key []string, stamp string, want []map[string]any) error {
	keyOf := func(fields map[string]any) string {
		parts := make([]string, len(key))
		for i, col := range key {
			parts[i], _ = fields[col].(string)
		}
		return strings.Join(parts, "\x00")
	}
	stored, err := m.Find(model, scope)
	if err != nil {
		return err
	}
	storedKeys := make([]string, len(stored))
	current := make(map[string]fbnet.Object, len(stored))
	for i, o := range stored {
		storedKeys[i] = keyOf(o.Fields)
		current[storedKeys[i]] = o
	}
	reported := make(map[string]bool, len(want))
	for _, row := range want { // a key reported twice: the last row wins
		k := keyOf(row)
		reported[k] = true
		cur, ok := current[k]
		if !ok {
			id, err := m.Create(model, row)
			if err != nil {
				return err
			}
			current[k] = fbnet.Object{Model: model, ID: id, Fields: row}
			continue
		}
		var changes map[string]any
		for col, v := range row {
			if col != stamp && cur.Fields[col] != v {
				if changes == nil {
					changes = make(map[string]any)
				}
				changes[col] = v
			}
		}
		if changes == nil {
			continue
		}
		if stamp != "" {
			changes[stamp] = row[stamp]
		}
		if err := m.Update(model, cur.ID, changes); err != nil {
			return err
		}
		current[k] = fbnet.Object{Model: model, ID: cur.ID, Fields: row}
	}
	for i, o := range stored {
		if !reported[storedKeys[i]] {
			if err := m.Delete(model, o.ID); err != nil {
				return err
			}
		}
	}
	return nil
}

// DeriveCircuits syncs the DerivedCircuit objects to LLDP adjacency: "a
// circuit object is created if the LLDP data from two devices shows that
// the physical interfaces connected to both ends are neighbors to each
// other" (§4.1.2). Only adjacencies confirmed from both sides produce a
// circuit. Returns the number of derived circuits.
func DeriveCircuits(store *fbnet.Store) (int, error) {
	neighbors, err := store.Find("DerivedLldpNeighbor", nil)
	if err != nil {
		return 0, err
	}
	type end struct{ dev, ifc string }
	claims := make(map[[2]end]bool, len(neighbors))
	for _, n := range neighbors {
		a := end{dev: n.String("device_name"), ifc: n.String("interface_name")}
		z := end{dev: n.String("neighbor_device"), ifc: n.String("neighbor_interface")}
		claims[[2]end{a, z}] = true
	}
	var confirmed [][2]end
	for pair := range claims {
		rev := [2]end{pair[1], pair[0]}
		if !claims[rev] {
			continue
		}
		// Keep one canonical orientation per circuit.
		if pair[0].dev > pair[1].dev || (pair[0].dev == pair[1].dev && pair[0].ifc > pair[1].ifc) {
			continue
		}
		confirmed = append(confirmed, pair)
	}
	sort.Slice(confirmed, func(i, j int) bool {
		if confirmed[i][0].dev != confirmed[j][0].dev {
			return confirmed[i][0].dev < confirmed[j][0].dev
		}
		return confirmed[i][0].ifc < confirmed[j][0].ifc
	})
	rows := make([]map[string]any, len(confirmed))
	for i, pair := range confirmed {
		rows[i] = map[string]any{
			"a_device": pair[0].dev, "a_interface": pair[0].ifc,
			"z_device": pair[1].dev, "z_interface": pair[1].ifc,
			"source": "lldp",
		}
	}
	_, err = store.Mutate(func(m *fbnet.Mutation) error {
		return syncDerived(m, "DerivedCircuit", nil,
			[]string{"a_device", "a_interface", "z_device", "z_interface"}, "", rows)
	})
	if err != nil {
		return 0, err
	}
	return len(confirmed), nil
}

// RecordEvents subscribes an FBNet store to a classifier: every alerted
// (non-ignored) syslog message becomes an OperationalEvent object in the
// Derived group, giving audits and engineers a queryable event history
// ("operational events" are one of the model domains, §4.1.1).
func RecordEvents(cls *Classifier, store *fbnet.Store) {
	cls.OnAlert(func(a Alert) {
		// Event recording is best-effort: a failed write must not block
		// the alerting path.
		_, _ = store.Mutate(func(m *fbnet.Mutation) error {
			_, err := m.Create("OperationalEvent", map[string]any{
				"device_name": a.Message.Host,
				"kind":        a.Rule,
				"detail":      a.Message.Text,
				"urgency":     a.Urgency.String(),
				"at_unix":     a.Message.Time.Unix(),
			})
			return err
		})
	})
}

// ConfigBackend archives every collected running config in the revision-
// controlled backup repository (§5.4.3: "each collected running config is
// also backed up in a revision control system").
type ConfigBackend struct {
	repo *revctl.Repo
}

// NewConfigBackend returns a backend writing under backups/ in repo.
func NewConfigBackend(repo *revctl.Repo) *ConfigBackend {
	return &ConfigBackend{repo: repo}
}

// Name implements Backend.
func (b *ConfigBackend) Name() string { return "config-backup" }

// BackupPath is the repository path of a device's config backups.
func BackupPath(device string) string { return "backups/" + device }

// Store implements Backend.
func (b *ConfigBackend) Store(col Collection) error {
	if col.Data != DataConfig {
		return nil
	}
	_, err := b.repo.Commit(BackupPath(col.Device), col.Config, "monitor", "periodic running-config backup")
	return err
}
