package monitor

import (
	"math/bits"
	"sort"
	"strings"
	"sync"

	"github.com/robotron-net/robotron/internal/fbnet"
	"github.com/robotron-net/robotron/internal/relstore"
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
// Series are indexed by device, then by metric (DESIGN.md §15.2): a
// series key "device/metric" names the device up to its first '/' —
// device names hold none — and the metric after it, a counter's name or
// "<interface>/in_octets" and "<interface>/out_octets".
//
// The index also keeps the marks the alarm engines evaluate by: per
// device, the stamp of the last change to what the device's rules read —
// a collection stored here, or a change a DerivedBackend built over this
// backend wrote to the device's observed state. Stamps only grow, and
// each engine keeps its own cursor (markedSince), so every engine over
// the backend sees every mark.
type TimeseriesBackend struct {
	mu      sync.Mutex
	devices map[string]*deviceSeries
	stamp   uint64 // the last stamp handed out
}

// deviceSeries is one device's entry in the index: its series by metric
// and the stamp of its last mark. ifcs holds the octet series of the
// interfaces the device's last interface collection listed, in its order,
// so the next collection — the same interfaces, in the same order — finds
// each pair by position, without a lookup by name.
type deviceSeries struct {
	mark    uint64
	metrics map[string]*ring[Sample]
	ifcs    []ifcSeries
}

// ifcSeries is one interface's pair of octet series.
type ifcSeries struct {
	name    string
	in, out *ring[Sample]
}

// series returns the ring of metric, creating it.
func (d *deviceSeries) series(metric string) *ring[Sample] {
	r, ok := d.metrics[metric]
	if !ok {
		r = &ring[Sample]{limit: DefaultSeriesRetention}
		d.metrics[metric] = r
	}
	return r
}

// octets returns the series pair of the interface a collection lists at
// position i: by position when the last collection listed it there, else
// by name, remembering the pair at i for the next collection.
func (d *deviceSeries) octets(i int, name string) ifcSeries {
	if i < len(d.ifcs) && d.ifcs[i].name == name {
		return d.ifcs[i]
	}
	s := ifcSeries{name: name, in: d.series(name + "/in_octets"), out: d.series(name + "/out_octets")}
	if i < len(d.ifcs) {
		d.ifcs[i] = s
	} else {
		d.ifcs = append(d.ifcs, s)
	}
	return s
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
	return &TimeseriesBackend{devices: make(map[string]*deviceSeries)}
}

// mark stamps device as changed.
func (b *TimeseriesBackend) mark(device string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.markLocked(device)
}

// markLocked stamps device as changed and returns its entry, creating it.
func (b *TimeseriesBackend) markLocked(device string) *deviceSeries {
	d, ok := b.devices[device]
	if !ok {
		d = &deviceSeries{metrics: make(map[string]*ring[Sample])}
		b.devices[device] = d
	}
	b.stamp++
	d.mark = b.stamp
	return d
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
	for device, d := range b.devices {
		if d.mark > stamp {
			fn(device)
		}
	}
	return b.stamp
}

// Name implements Backend.
func (b *TimeseriesBackend) Name() string { return "timeseries" }

// push stores one sample of device's metric series and marks the device.
func (b *TimeseriesBackend) push(device, metric string, s Sample) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.markLocked(device).series(metric).push(s)
}

// Store implements Backend: counters fan out into per-metric series;
// interface collections store per-interface octet counters, both
// directions. The collection marks its device once. Storing into series
// that exist allocates nothing, and an interface collection that lists
// what the last one did hashes no interface name.
func (b *TimeseriesBackend) Store(col Collection) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	d := b.markLocked(col.Device)
	at := col.At.Unix()
	for metric, v := range col.Counters {
		d.series(metric).push(Sample{AtUnix: at, Value: v})
	}
	for i, ifc := range col.Interfaces {
		s := d.octets(i, ifc.Name)
		s.in.push(Sample{AtUnix: at, Value: float64(ifc.InOctets)})
		s.out.push(Sample{AtUnix: at, Value: float64(ifc.OutOctets)})
	}
	if len(col.Interfaces) > 0 {
		d.ifcs = d.ifcs[:len(col.Interfaces)]
	}
	return nil
}

// lookupLocked returns the ring of device's metric; nil when there is none.
func (b *TimeseriesBackend) lookupLocked(device, metric string) *ring[Sample] {
	if d, ok := b.devices[device]; ok {
		return d.metrics[metric]
	}
	return nil
}

// Series returns the samples of one device/metric key, oldest first.
func (b *TimeseriesBackend) Series(key string) []Sample {
	device, metric, _ := strings.Cut(key, "/")
	b.mu.Lock()
	defer b.mu.Unlock()
	if r := b.lookupLocked(device, metric); r != nil {
		return r.all()
	}
	return nil
}

// Last returns up to k most recent samples of a series, oldest first.
func (b *TimeseriesBackend) Last(key string, k int) []Sample {
	device, metric, _ := strings.Cut(key, "/")
	b.mu.Lock()
	defer b.mu.Unlock()
	if r := b.lookupLocked(device, metric); r != nil {
		return r.last(k)
	}
	return nil
}

// tail is Last(device+"/"+metric, 2) for the alarm engine's hot path: no
// key is built, and the samples are read in place, the newest as last.
func (b *TimeseriesBackend) tail(device, metric string) (last, prev Sample, n int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if r := b.lookupLocked(device, metric); r != nil {
		return r.tail()
	}
	return last, prev, 0
}

// Keys lists stored series keys.
func (b *TimeseriesBackend) Keys() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := []string{}
	for device, d := range b.devices {
		for metric := range d.metrics {
			out = append(out, device+"/"+metric)
		}
	}
	sort.Strings(out)
	return out
}

// DerivedBackend populates FBNet Derived models from collections
// (§4.1.2: "data in Derived models is populated based on real-time
// collection from network devices").
//
// It remembers, per device and collected data type (one Derived model
// each), the last observation the store was verified to hold already
// (DESIGN.md §15.5): the reported rows whose peek planned nothing, with
// the server and the table seq that peek read. The store stays the only
// truth: the memo never plans and is never written through, and it
// answers only "unchanged" — and only while the table's seq on the same
// server has not moved.
type DerivedBackend struct {
	store *fbnet.Store
	marks *TimeseriesBackend

	mu   sync.Mutex
	memo map[memoKey]verified
}

// memoKey names one scope of a Derived model: one device's rows of the
// model a data type feeds.
type memoKey struct {
	data   DataType
	device string
}

// verified records that the rows of one scope, on db, as of the table's
// seq, were what rows reports. The zero value verifies nothing.
type verified struct {
	db   *relstore.DB
	seq  uint64
	rows []any
}

// NewDerivedBackend returns a backend writing to the given FBNet store.
// Whenever it writes a change to a device's observed state, it marks the
// device in marks, so the alarm engines reading marks evaluate the
// device's rules again (bgp-state rules read observed BGP sessions).
func NewDerivedBackend(store *fbnet.Store, marks *TimeseriesBackend) *DerivedBackend {
	return &DerivedBackend{store: store, marks: marks, memo: make(map[memoKey]verified)}
}

// Name implements Backend.
func (b *DerivedBackend) Name() string { return "fbnet-derived" }

// Store implements Backend: the Derived rows of the collection's device
// become what the collection reports. An observation the memo has
// verified returns at once; any other is synced (syncDerived), and the
// memo keeps it only if the sync found nothing to write.
func (b *DerivedBackend) Store(col Collection) error {
	key, db := memoKey{col.Data, col.Device}, b.store.DB()
	v := b.recall(key)
	o := observe(col, v.rows)
	if o == nil {
		return nil
	}
	unchanged, err := b.verifies(v, db, o)
	if unchanged {
		return nil
	}
	var changed bool
	var tableSeq uint64
	if err == nil {
		changed, tableSeq, err = syncDerived(b.store, o)
	}
	b.mu.Lock()
	if changed || err != nil {
		delete(b.memo, key)
	} else {
		b.memo[key] = verified{db: db, seq: tableSeq, rows: o.rows}
	}
	b.mu.Unlock()
	if changed {
		b.marks.mark(col.Device)
	}
	return err
}

// recall returns the memo's entry for key.
func (b *DerivedBackend) recall(key memoKey) verified {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.memo[key]
}

// verifies reports whether v verified o on db already: o reports, row for
// row and column for column (the stamp aside), what a peek of o's table
// on db found stored at the seq the table is at now. Reading the seq pins
// the published epoch, so a server that is down makes it fail.
func (b *DerivedBackend) verifies(v verified, db *relstore.DB, o *observation) (bool, error) {
	if v.db != db || !o.repeats(v.rows) {
		return false, nil
	}
	seq, err := b.store.TableSeq(o.model)
	return err == nil && seq == v.seq, err
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
// feeds; nil when it feeds none. like is an earlier observation's rows of
// the same scope, or nil: a value equal to the one at the same position
// there is taken from there, already boxed (put). The device name and the
// collection time are boxed once, not once per row.
func observe(col Collection, like []any) *observation {
	dev, at := any(col.Device), any(col.At.Unix())
	o := &observation{scope: fbnet.Eq("device_name", dev)}
	b := &rowBuilder{like: like}
	switch col.Data {
	case DataVersion:
		o.derivedShape, o.scope = &derivedDevice, fbnet.Eq("name", dev)
		b.rows = []any{dev, col.Version.Vendor, col.Version.OSVersion, col.Version.UptimeS, at} // last_seen_unix always moves
	case DataInterfaces:
		o.derivedShape = &derivedInterface
		b.rows = make([]any, 0, len(col.Interfaces)*len(o.cols))
		for _, ifc := range col.Interfaces {
			put(b, ifc.Name)
			b.rows = append(b.rows, dev)
			put(b, ifc.OperStatus)
			put(b, ifc.SpeedMbps)
			b.rows = append(b.rows, at)
		}
	case DataLLDP:
		o.derivedShape = &derivedLLDP
		b.rows = make([]any, 0, len(col.LLDP)*len(o.cols))
		for _, n := range col.LLDP {
			put(b, n.LocalInterface)
			put(b, n.NeighborDevice)
			put(b, n.NeighborInterface)
			b.rows = append(b.rows, dev)
		}
	case DataBGP:
		o.derivedShape = &derivedBGP
		b.rows = make([]any, 0, len(col.BGP)*len(o.cols))
		for _, p := range col.BGP {
			put(b, p.PeerAddr)
			b.rows = append(b.rows, dev)
			put(b, p.Family)
			put(b, p.State)
		}
	default:
		return nil
	}
	o.rows = b.rows
	return o
}

// rowBuilder appends an observation's values, column-aligned, beside like,
// the rows of an earlier observation of the same scope.
type rowBuilder struct{ rows, like []any }

// put appends v, boxed afresh only when like holds no equal value at the
// same position: an observation that repeats the last one boxes nothing.
func put[T comparable](b *rowBuilder, v T) {
	if i := len(b.rows); i < len(b.like) {
		if was, ok := b.like[i].(T); ok && was == v {
			b.rows = append(b.rows, b.like[i])
			return
		}
	}
	b.rows = append(b.rows, v)
}

// syncDerived is the one writer of observed state (DESIGN.md §15.5): it
// makes the rows of o's model inside o's scope equal to the rows o
// reports. It compares them with the stored rows in place, on one
// published epoch (Store.Peek); when nothing differs it returns, having
// copied no row and opened no transaction, the seq of o's table in that
// epoch. Otherwise it writes the plan in one transaction (write); changed
// reports that the two differed.
func syncDerived(store *fbnet.Store, o *observation) (changed bool, tableSeq uint64, err error) {
	stored, seq, tableSeq, err := store.Peek(o.model, o.scope)
	if err != nil {
		return false, 0, err
	}
	ops := o.plan(stored)
	if len(ops) == 0 {
		return false, tableSeq, nil
	}
	return true, 0, o.write(store, ops, seq)
}

// repeats reports whether o reports rows, position for position, in
// every column but the stamp. The stamp aside, plan reads nothing of the
// reported rows, so on the same stored rows the two plan alike.
func (o *observation) repeats(rows []any) bool {
	if len(rows) != len(o.rows) {
		return false
	}
	n := len(o.cols)
	for i, v := range o.rows {
		if i%n != o.stamp && rows[i] != v {
			return false
		}
	}
	return true
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
	if _, _, err := syncDerived(store, o); err != nil {
		return 0, err
	}
	return len(o.rows) / len(o.cols), nil
}

// observeCircuits reads the LLDP rows and returns the circuits they
// confirm, as an observation of the whole DerivedCircuit table.
func observeCircuits(store *fbnet.Store) (*observation, error) {
	neighbors, _, _, err := store.Peek("DerivedLldpNeighbor", nil)
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
