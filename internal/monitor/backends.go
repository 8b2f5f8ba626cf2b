package monitor

import (
	"math/bits"
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
//
// It also keeps the marks the alarm engines evaluate by (DESIGN.md §15.2):
// per device, the stamp of the last change to what the device's rules
// read — a collection stored here, or a change a DerivedBackend built
// over this backend wrote to the device's observed state. Stamps only grow, and
// each engine keeps its own cursor (markedSince), so every engine over
// the backend sees every mark.
type TimeseriesBackend struct {
	mu     sync.Mutex
	series map[string]*ring[Sample] // key: device/metric
	key    []byte                   // the series key Store is filling, reused under mu
	marks  map[string]uint64        // device → stamp of its last mark
	stamp  uint64                   // the last stamp handed out
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
	return &TimeseriesBackend{series: make(map[string]*ring[Sample]), marks: make(map[string]uint64)}
}

// mark stamps device as changed.
func (b *TimeseriesBackend) mark(device string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.markLocked(device)
}

func (b *TimeseriesBackend) markLocked(device string) {
	b.stamp++
	b.marks[device] = b.stamp
}

// markedSince calls fn with every device marked after stamp and returns
// the stamp to pass next time. A reader that has seen every mark pays
// nothing for the devices it already saw.
func (b *TimeseriesBackend) markedSince(stamp uint64, fn func(device string)) uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	if stamp == b.stamp {
		return stamp
	}
	for device, at := range b.marks {
		if at > stamp {
			fn(device)
		}
	}
	return b.stamp
}

// Name implements Backend.
func (b *TimeseriesBackend) Name() string { return "timeseries" }

// pushLocked appends s to the series named by b.key; only a new series
// turns the key into a string.
func (b *TimeseriesBackend) pushLocked(s Sample) {
	r, ok := b.series[string(b.key)]
	if !ok {
		r = &ring[Sample]{limit: DefaultSeriesRetention}
		b.series[string(b.key)] = r
	}
	r.push(s)
}

// Store implements Backend: counters fan out into per-metric series;
// interface collections store per-interface octet counters, both
// directions. The collection marks its device once. Storing into series
// that exist allocates nothing.
func (b *TimeseriesBackend) Store(col Collection) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.markLocked(col.Device)
	at := col.At.Unix()
	b.key = append(append(b.key[:0], col.Device...), '/')
	n := len(b.key)
	for metric, v := range col.Counters {
		b.key = append(b.key[:n], metric...)
		b.pushLocked(Sample{AtUnix: at, Value: v})
	}
	for _, ifc := range col.Interfaces {
		b.key = append(append(b.key[:n], ifc.Name...), "/in_octets"...)
		b.pushLocked(Sample{AtUnix: at, Value: float64(ifc.InOctets)})
		b.key = append(b.key[:len(b.key)-len("in_octets")], "out_octets"...)
		b.pushLocked(Sample{AtUnix: at, Value: float64(ifc.OutOctets)})
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
	marks *TimeseriesBackend
}

// NewDerivedBackend returns a backend writing to the given FBNet store.
// Whenever it writes a change to a device's observed state, it marks the
// device in marks, so the alarm engines reading marks evaluate the
// device's rules again (bgp-state rules read observed BGP sessions).
func NewDerivedBackend(store *fbnet.Store, marks *TimeseriesBackend) *DerivedBackend {
	return &DerivedBackend{store: store, marks: marks}
}

// Name implements Backend.
func (b *DerivedBackend) Name() string { return "fbnet-derived" }

// Store implements Backend: the Derived rows of the collection's device
// become what the collection reports.
func (b *DerivedBackend) Store(col Collection) error {
	o := observe(col)
	if o == nil {
		return nil
	}
	changed, err := syncDerived(b.store, o)
	if changed {
		b.marks.mark(col.Device)
	}
	return err
}

// derivedShape is a Derived model as the write rule sees it: its columns,
// the first keyLen of them (strings, at most four) a row's identity within
// a scope, and stamp, the index of the column recording when the row last
// changed (-1 for none).
type derivedShape struct {
	model  string
	cols   []string
	keyLen int
	stamp  int
}

var (
	derivedDevice    = derivedShape{"DerivedDevice", []string{"name", "vendor", "os_version", "uptime_s", "last_seen_unix"}, 1, -1}
	derivedInterface = derivedShape{"DerivedInterface", []string{"name", "device_name", "oper_status", "speed_mbps", "last_change_unix"}, 1, 4}
	derivedLLDP      = derivedShape{"DerivedLldpNeighbor", []string{"interface_name", "neighbor_device", "neighbor_interface", "device_name"}, 3, -1}
	derivedBGP       = derivedShape{"DerivedBgpSession", []string{"peer_addr", "device_name", "family", "state"}, 1, -1}
	derivedCircuit   = derivedShape{"DerivedCircuit", []string{"a_device", "a_interface", "z_device", "z_interface", "source"}, 4, -1}
	derivedConfig    = derivedShape{"DerivedConfig", []string{"device_name", "config_hash", "collected_unix", "conforms"}, 1, -1}
)

// observation is what one collection reports for one Derived model inside
// scope — one device's rows, or the whole table when scope is nil. rows
// holds len(cols) values per reported row, column-aligned, in stored form
// (string, int64, bool).
type observation struct {
	*derivedShape
	scope fbnet.Query
	rows  []any
}

// observe turns a collection into the observation of the Derived model it
// feeds; nil when it feeds none. The device name and the collection time
// are boxed once, not once per row.
func observe(col Collection) *observation {
	dev, at := any(col.Device), any(col.At.Unix())
	o := &observation{scope: fbnet.Eq("device_name", dev)}
	switch col.Data {
	case DataVersion:
		o.derivedShape, o.scope = &derivedDevice, fbnet.Eq("name", dev)
		o.rows = []any{dev, col.Version.Vendor, col.Version.OSVersion, col.Version.UptimeS, at}
	case DataInterfaces:
		o.derivedShape = &derivedInterface
		o.rows = make([]any, 0, len(col.Interfaces)*len(o.cols))
		for _, ifc := range col.Interfaces {
			o.rows = append(o.rows, ifc.Name, dev, ifc.OperStatus, ifc.SpeedMbps, at)
		}
	case DataLLDP:
		o.derivedShape = &derivedLLDP
		o.rows = make([]any, 0, len(col.LLDP)*len(o.cols))
		for _, n := range col.LLDP {
			o.rows = append(o.rows, n.LocalInterface, n.NeighborDevice, n.NeighborInterface, dev)
		}
	case DataBGP:
		o.derivedShape = &derivedBGP
		o.rows = make([]any, 0, len(col.BGP)*len(o.cols))
		for _, p := range col.BGP {
			o.rows = append(o.rows, p.PeerAddr, dev, p.Family, p.State)
		}
	default:
		return nil
	}
	return o
}

// syncDerived is the one writer of observed state (DESIGN.md §15.5): it
// makes the rows of o's model inside o's scope equal to the rows o
// reports. It compares them with the stored rows in place, on one
// published epoch (Store.Peek); when nothing differs it returns, having
// copied no row and opened no transaction. Otherwise it writes the plan
// in one transaction (write); changed reports that the two differed.
func syncDerived(store *fbnet.Store, o *observation) (changed bool, err error) {
	stored, seq, err := store.Peek(o.model, o.scope)
	if err != nil {
		return false, err
	}
	ops := o.plan(stored)
	if len(ops) == 0 {
		return false, nil
	}
	return true, o.write(store, ops, seq)
}

// write applies ops, planned on the rows as of binlog sequence seq, in one
// transaction. A commit that landed since seq may have moved those rows,
// so then the transaction reads them again and plans afresh: the plan it
// applies is always one of the state it writes.
func (o *observation) write(store *fbnet.Store, ops []derivedOp, seq uint64) error {
	_, err := store.Mutate(func(m *fbnet.Mutation) error {
		if store.DB().Seq() != seq {
			stored, err := m.Find(o.model, o.scope)
			if err != nil {
				return err
			}
			ops = o.plan(stored)
		}
		return o.apply(m, ops)
	})
	return err
}

type opKind uint8

const (
	opCreate opKind = iota
	opUpdate
	opDelete
)

// derivedOp is one write of a plan.
type derivedOp struct {
	kind opKind
	row  int   // the reported row a create or update writes
	id   int64 // the stored row an update or delete targets; 0 for a row this plan creates...
	made int   // ...in which case the index of the op that creates it
	cols uint64
}

// storedKey and reportedKey return a row's identity: its key strings
// joined by NUL, which for a one-column key is that string, no copy.
func (o *observation) storedKey(fields map[string]any) string {
	var parts [4]string
	for i, col := range o.cols[:o.keyLen] {
		parts[i], _ = fields[col].(string)
	}
	return strings.Join(parts[:o.keyLen], "\x00")
}

func (o *observation) reportedKey(row int) string {
	var parts [4]string
	for i, v := range o.rows[row*len(o.cols) : row*len(o.cols)+o.keyLen] {
		parts[i], _ = v.(string)
	}
	return strings.Join(parts[:o.keyLen], "\x00")
}

// plan is the write rule, the one place it is decided (DESIGN.md §15.5):
// the writes that make stored — the scope's rows, in id order — equal to
// the reported rows. A reported row that is missing is created, one that
// is stored has only its differing columns updated, and a stored row no
// longer reported is deleted; a key reported twice is written twice, the
// last row winning. The stamp column is written when a row is created or
// another of its columns moves, never alone. No writes means the
// observation changed nothing.
func (o *observation) plan(stored []fbnet.Object) []derivedOp {
	n := len(o.cols)
	// current is where a key's row stands as the plan goes.
	type current struct {
		stored   int32 // its index in stored; -1 for a row this plan creates
		row      int32 // the reported row last written to it; -1 for none
		made     int32 // for a row this plan creates, the index of that op
		reported bool
	}
	keys := make([]string, len(stored))
	byKey := make(map[string]current, len(stored))
	for i, s := range stored {
		keys[i] = o.storedKey(s.Fields)
		byKey[keys[i]] = current{stored: int32(i), row: -1}
	}
	var ops []derivedOp
	for r := 0; r < len(o.rows)/n; r++ {
		k := o.reportedKey(r)
		cur, ok := byKey[k]
		if !ok {
			ops = append(ops, derivedOp{kind: opCreate, row: r})
			byKey[k] = current{stored: -1, row: int32(r), made: int32(len(ops) - 1), reported: true}
			continue
		}
		cur.reported = true
		var cols uint64
		for c, v := range o.rows[r*n : (r+1)*n] {
			var was any
			if cur.row >= 0 {
				was = o.rows[int(cur.row)*n+c]
			} else {
				was = stored[cur.stored].Fields[o.cols[c]]
			}
			if c != o.stamp && was != v {
				cols |= 1 << c
			}
		}
		if cols != 0 {
			if o.stamp >= 0 {
				cols |= 1 << o.stamp
			}
			op := derivedOp{kind: opUpdate, row: r, made: int(cur.made), cols: cols}
			if cur.stored >= 0 {
				op.id = stored[cur.stored].ID
			}
			ops = append(ops, op)
			cur.row = int32(r)
		}
		byKey[k] = cur
	}
	for i, s := range stored {
		if !byKey[keys[i]].reported {
			ops = append(ops, derivedOp{kind: opDelete, id: s.ID})
		}
	}
	return ops
}

// apply runs a plan's writes in m, building a row map only for what it
// creates or updates.
func (o *observation) apply(m *fbnet.Mutation, ops []derivedOp) error {
	n := len(o.cols)
	made := make([]int64, len(ops))
	for i, op := range ops {
		var err error
		switch op.kind {
		case opCreate:
			fields := make(map[string]any, n)
			for c, col := range o.cols {
				fields[col] = o.rows[op.row*n+c]
			}
			made[i], err = m.Create(o.model, fields)
		case opUpdate:
			fields := make(map[string]any, bits.OnesCount64(op.cols))
			for c, col := range o.cols {
				if op.cols&(1<<c) != 0 {
					fields[col] = o.rows[op.row*n+c]
				}
			}
			id := op.id
			if id == 0 {
				id = made[op.made]
			}
			err = m.Update(o.model, id, fields)
		case opDelete:
			err = m.Delete(o.model, op.id)
		}
		if err != nil {
			return err
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
	o, err := observeCircuits(store)
	if err != nil {
		return 0, err
	}
	if _, err := syncDerived(store, o); err != nil {
		return 0, err
	}
	return len(o.rows) / len(o.cols), nil
}

// observeCircuits reads the LLDP rows and returns the circuits they
// confirm, as an observation of the whole DerivedCircuit table.
func observeCircuits(store *fbnet.Store) (*observation, error) {
	neighbors, _, err := store.Peek("DerivedLldpNeighbor", nil)
	if err != nil {
		return nil, err
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
	o := &observation{derivedShape: &derivedCircuit, rows: make([]any, 0, len(confirmed)*len(derivedCircuit.cols))}
	source := any("lldp")
	for _, pair := range confirmed {
		o.rows = append(o.rows, pair[0].dev, pair[0].ifc, pair[1].dev, pair[1].ifc, source)
	}
	return o, nil
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
