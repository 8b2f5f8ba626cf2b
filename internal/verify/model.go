package verify

import (
	"cmp"
	"fmt"
	"net/netip"
	"slices"
	"strconv"
	"strings"

	"github.com/robotron-net/robotron/internal/fbnet"
	"github.com/robotron-net/robotron/internal/relstore"
)

// The resident network model (DESIGN.md §12, "Wiring").
//
// The model is the system's one in-memory copy of the Desired topology:
// the handful of fields the invariants and the derivations outside the
// gate (intent.go) read, for the thirteen models below, in compact rows
// with the secondary indexes the checks need. It follows the store through
// its binlog: each sync folds the entries since the last one into the rows.
// Every row that changes marks the checks that read it (old and new key
// when it moves), and only marked checks are re-evaluated; their violations
// are stored per check and the result of a run is the stored violations
// plus the candidate-set checks. A cold model is the same code fed one
// insert per stored row, which marks every check.
//
// The same linking also stamps, for the view's consumers (intent.go), each
// device and circuit with the sequence of the sync that changed what the
// view derives from it; a cold model stamps every one with its load.

// trackedModels are the FBNet models the model keeps, referenced models
// first (the order a cold load feeds them in).
var trackedModels = []string{
	"Site", "Vendor", "HardwareProfile", "Device", "Linecard", "AggregatedInterface",
	"PhysicalInterface", "LinkGroup", "Circuit",
	"V6Prefix", "V4Prefix", "BgpV6Session", "BgpV4Session",
}

// rowKey identifies a prefix or session row: the two address families
// live in separate FBNet models with independent id spaces.
type rowKey struct {
	v4 bool
	id int64
}

// compareRowKeys orders rows the way the per-model scans visited them:
// the V6 model first, then by id.
func compareRowKeys(a, b rowKey) int {
	if a.v4 != b.v4 {
		if b.v4 {
			return -1
		}
		return 1
	}
	return cmp.Compare(a.id, b.id)
}

func (k rowKey) sessionModel() string {
	if k.v4 {
		return "BgpV4Session"
	}
	return "BgpV6Session"
}

func (k rowKey) prefixModel() string {
	if k.v4 {
		return "V4Prefix"
	}
	return "V6Prefix"
}

// --- rows: only the columns an invariant reads ---

type site struct{ name string }

type vendor struct{ syntax string }

type hwProfile struct{ vendor int64 }

type device struct {
	name, role        string
	site, cluster, hw int64
	lo4, lo6          string
}

// meshed reports whether the device belongs in the backbone's iBGP full
// mesh: a clusterless pr, bb or dr (cluster-resident ones run their
// cluster's eBGP fabric instead).
func (d device) meshed() bool {
	return d.cluster == 0 && (d.role == "pr" || d.role == "bb" || d.role == "dr")
}

type linecard struct{ dev int64 }

type bundle struct { // AggregatedInterface
	dev  int64
	name string
}

type port struct { // PhysicalInterface
	lc   int64
	name string
}

type linkGroup struct{ a, z int64 }

type circuit struct {
	a, z         int64 // PhysicalInterface ids; 0 when the endpoint was nulled
	group        int64 // LinkGroup id; 0 for a circuit outside any bundle
	status, name string
}

type prefix struct {
	text    string       // as stored: violations print it verbatim
	net     netip.Prefix // text parsed; invalid when it does not parse
	iface   int64
	purpose string
}

// tracked reports whether the prefix takes part in the subnet checks.
func (p prefix) tracked() bool { return p.purpose == "p2p" || p.purpose == "external" }

type session struct {
	local, remote, localPrefix int64
	localAS, remoteAS          int64
	kind, remoteAddr           string
}

// internal reports whether both endpoints are distinct modeled devices.
func (s session) internal() bool { return s.local != 0 && s.remote != 0 && s.local != s.remote }

func asInt(v any) int64 {
	n, _ := v.(int64)
	return n
}

func asString(v any) string {
	s, _ := v.(string)
	return s
}

func (r *site) set(col string, v any) {
	if col == "name" {
		r.name = asString(v)
	}
}

func (r *vendor) set(col string, v any) {
	if col == "syntax" {
		r.syntax = asString(v)
	}
}

func (r *hwProfile) set(col string, v any) {
	if col == "vendor" {
		r.vendor = asInt(v)
	}
}

func (r *device) set(col string, v any) {
	switch col {
	case "name":
		r.name = asString(v)
	case "role":
		r.role = asString(v)
	case "site":
		r.site = asInt(v)
	case "cluster":
		r.cluster = asInt(v)
	case "hw_profile":
		r.hw = asInt(v)
	case "loopback_v4":
		r.lo4 = asString(v)
	case "loopback_v6":
		r.lo6 = asString(v)
	}
}

func (r *linecard) set(col string, v any) {
	if col == "device" {
		r.dev = asInt(v)
	}
}

func (r *bundle) set(col string, v any) {
	switch col {
	case "device":
		r.dev = asInt(v)
	case "name":
		r.name = asString(v)
	}
}

func (r *port) set(col string, v any) {
	switch col {
	case "linecard":
		r.lc = asInt(v)
	case "name":
		r.name = asString(v)
	}
}

func (r *linkGroup) set(col string, v any) {
	switch col {
	case "a_device":
		r.a = asInt(v)
	case "z_device":
		r.z = asInt(v)
	}
}

func (r *circuit) set(col string, v any) {
	switch col {
	case "a_interface":
		r.a = asInt(v)
	case "z_interface":
		r.z = asInt(v)
	case "link_group":
		r.group = asInt(v)
	case "status":
		r.status = asString(v)
	case "circuit_id":
		r.name = asString(v)
	}
}

func (r *prefix) set(col string, v any) {
	switch col {
	case "prefix":
		r.text = asString(v)
		r.net, _ = netip.ParsePrefix(r.text) // invalid on error; checkPrefix reports it
	case "interface":
		r.iface = asInt(v)
	case "purpose":
		r.purpose = asString(v)
	}
}

func (r *session) set(col string, v any) {
	switch col {
	case "local_device":
		r.local = asInt(v)
	case "remote_device":
		r.remote = asInt(v)
	case "local_prefix":
		r.localPrefix = asInt(v)
	case "local_as":
		r.localAS = asInt(v)
	case "remote_as":
		r.remoteAS = asInt(v)
	case "session_type":
		r.kind = asString(v)
	case "remote_addr":
		r.remoteAddr = asString(v)
	}
}

// --- stored checks ---

type checkKind uint8

const (
	checkSession checkKind = iota // one session: AS relationship, local prefix
	checkClaims                   // one device: the AS numbers its sessions claim
	checkSubnet                   // one masked subnet: ends, adjacency, overlap
	checkPrefix                   // one prefix: parses, bound to an interface
	checkCircuit                  // one circuit: two ends, on its link group's two devices
	checkBundle                   // one bundle: at most one p2p prefix per family
	checkMesh                     // the backbone: every mesh router pair shares an iBGP session
)

// checkInvariants lists the invariants each kind of check evaluates, for
// the rechecked-keys metric.
var checkInvariants = [...][]Invariant{
	checkSession: {BGPSymmetry, OrphanRef},
	checkClaims:  {BGPSymmetry},
	checkSubnet:  {P2PConsistency},
	checkPrefix:  {P2PConsistency, OrphanRef},
	checkCircuit: {OrphanRef},
	checkBundle:  {P2PConsistency},
	checkMesh:    {BGPSymmetry},
}

// checkKey names one stored check. row carries a session or prefix key, or
// a device, circuit or bundle id; subnet is set for checkSubnet only, and
// checkMesh, one check for the whole backbone, carries neither.
type checkKey struct {
	kind   checkKind
	row    rowKey
	subnet netip.Prefix
}

// peer counts what connects a device to one neighbour.
type peer struct {
	dev      int64
	circuits int32 // non-decommissioned circuits with both ends resolved
	groups   int32 // link groups
}

type model struct {
	seq uint64 // binlog sequence the rows reflect

	sites   map[int64]site
	vendors map[int64]vendor
	hws     map[int64]hwProfile
	devs    map[int64]device
	lcs     map[int64]linecard
	aggs    map[int64]bundle
	ports   map[int64]port
	groups  map[int64]linkGroup
	circs   map[int64]circuit
	pfxs    map[rowKey]prefix
	sess    map[rowKey]session

	devByName map[string]int64
	aggsByDev map[int64][]int64
	portNames map[int64][]string // a device's physical interface names
	pfxByAgg  map[int64][]rowKey
	sessByDev map[int64][]rowKey // sessions the device is either end of
	sessByPfx map[rowKey][]rowKey
	circsByLG map[int64][]int64 // a link group's circuits
	peers     map[int64][]peer  // per device, in both directions

	// subnets groups the tracked prefixes by masked subnet, each group in
	// compareRowKeys order. nest holds the same subnets sorted by
	// (address, length) — every subnet a prefix contains follows it
	// contiguously — and lens counts them by family and length, so the
	// ancestors of a subnet are found by probing only lengths in use.
	subnets map[netip.Prefix][]rowKey
	nest    []netip.Prefix
	lens    [2][129]int32

	dirty map[checkKey]struct{}    // checks whose inputs changed since they last ran
	found map[checkKey][]Violation // violations of the checks that have any

	reachStale bool        // a device or circuit adjacency changed since reach was computed
	reach      []Violation // reachability violations, by device id

	st stamps
}

// stamps record which sync changed what the view derives from a device —
// its row, site, hardware profile or vendor, ports, or the sessions it is
// the local end of — or from a circuit — its row, or the names its ends
// resolve to (Intent.Since). A stamp is the binlog sequence the model
// reached with that sync, so stamps only grow, across rebuilds too. log
// lists the rows in the order they were stamped, so what changed after a
// stamp is a suffix of it, found by binary search.
type stamps struct {
	born uint64              // the sequence the model was loaded at: every row carries it or later
	at   map[stampKey]uint64 // a row's last stamp
	log  []stamped           // in stamp order; an entry older than its row's stamp is dead
	gone map[string]uint64   // names of devices removed or renamed away, while no device holds them
}

type stampKey struct {
	circuit bool // else a device
	id      int64
}

type stamped struct {
	stampKey
	seq uint64
}

// stamp records that the sync reaching m.seq changed what the view derives
// from the row. Once dead entries make up half the log, it is compacted to
// the live ones, and the stamps of deleted rows are dropped with theirs —
// of earlier syncs only: a row this one inserts is linked before it is
// stored.
func (m *model) stamp(k stampKey) {
	st := &m.st
	if st.at[k] == m.seq {
		return
	}
	st.at[k] = m.seq
	st.log = append(st.log, stamped{k, m.seq})
	if len(st.log) < 2*len(st.at)+64 {
		return
	}
	live := st.log[:0]
	for _, e := range st.log {
		switch {
		case st.at[e.stampKey] != e.seq:
		case e.seq < m.seq && !m.holds(e.stampKey):
			delete(st.at, e.stampKey)
		default:
			live = append(live, e)
		}
	}
	st.log = live
}

func (m *model) holds(k stampKey) bool {
	if k.circuit {
		_, ok := m.circs[k.id]
		return ok
	}
	_, ok := m.devs[k.id]
	return ok
}

// stampedSince calls fn with each row the model holds whose stamp is later
// than stamp, in stamp order.
func (m *model) stampedSince(stamp uint64, fn func(stampKey)) {
	log := m.st.log
	i, _ := slices.BinarySearchFunc(log, stamp+1, func(e stamped, seq uint64) int { return cmp.Compare(e.seq, seq) })
	for _, e := range log[i:] {
		if m.st.at[e.stampKey] == e.seq && m.holds(e.stampKey) {
			fn(e.stampKey)
		}
	}
}

func newModel() *model {
	return &model{
		sites:   map[int64]site{},
		vendors: map[int64]vendor{}, hws: map[int64]hwProfile{},
		devs: map[int64]device{}, lcs: map[int64]linecard{},
		aggs: map[int64]bundle{}, ports: map[int64]port{},
		groups: map[int64]linkGroup{}, circs: map[int64]circuit{},
		pfxs: map[rowKey]prefix{}, sess: map[rowKey]session{},
		devByName: map[string]int64{},
		aggsByDev: map[int64][]int64{}, portNames: map[int64][]string{},
		pfxByAgg: map[int64][]rowKey{}, sessByDev: map[int64][]rowKey{},
		sessByPfx: map[rowKey][]rowKey{}, peers: map[int64][]peer{},
		circsByLG: map[int64][]int64{}, subnets: map[netip.Prefix][]rowKey{},
		dirty: map[checkKey]struct{}{}, found: map[checkKey][]Violation{},
		reachStale: true,
		st:         stamps{at: map[stampKey]uint64{}, gone: map[string]uint64{}},
	}
}

// load builds the model of the store at sequence seq: one Find per tracked
// model, each row fed through apply as an insert.
func load(tx *fbnet.Mutation, seq uint64) (*model, error) {
	m := newModel()
	m.seq, m.st.born = seq, seq
	for _, name := range trackedModels {
		objs, err := tx.Find(name, nil)
		if err != nil {
			return nil, fmt.Errorf("verify: loading %s: %w", name, err)
		}
		for _, o := range objs {
			m.apply(&relstore.LogEntry{Op: relstore.OpInsert, Table: name, RowID: o.ID, Values: o.Fields})
		}
	}
	return m, nil
}

// apply folds one binlog entry into the rows and indexes, marking the
// checks that read what changed. It reports false when the model cannot
// follow the entry and must be rebuilt: schema operations, an update to a
// row it does not hold, and re-parenting a linecard or a port — which no
// design tool does, and which would move every circuit on it without an
// entry of the circuit's own.
func (m *model) apply(e *relstore.LogEntry) bool {
	switch e.Op {
	case relstore.OpCreateTable, relstore.OpAlterAddColumn:
		return false
	}
	id := e.RowID
	switch e.Table {
	case "Site":
		return applyRow(m, m.sites, id, e, (*site).set, (*model).linkSite)
	case "Vendor":
		return applyRow(m, m.vendors, id, e, (*vendor).set, (*model).linkVendor)
	case "HardwareProfile":
		return applyRow(m, m.hws, id, e, (*hwProfile).set, (*model).linkHardware)
	case "Device":
		return applyRow(m, m.devs, id, e, (*device).set, (*model).linkDevice)
	case "Linecard":
		if _, moved := e.Values["device"]; moved && e.Op == relstore.OpUpdate {
			return false
		}
		return applyRow(m, m.lcs, id, e, (*linecard).set, nil)
	case "AggregatedInterface":
		return applyRow(m, m.aggs, id, e, (*bundle).set, (*model).linkBundle)
	case "PhysicalInterface":
		if _, moved := e.Values["linecard"]; moved && e.Op == relstore.OpUpdate {
			return false
		}
		return applyRow(m, m.ports, id, e, (*port).set, (*model).linkPort)
	case "LinkGroup":
		return applyRow(m, m.groups, id, e, (*linkGroup).set, (*model).linkLinkGroup)
	case "Circuit":
		return applyRow(m, m.circs, id, e, (*circuit).set, (*model).linkCircuit)
	case "V6Prefix", "V4Prefix":
		return applyRow(m, m.pfxs, rowKey{e.Table == "V4Prefix", id}, e, (*prefix).set, (*model).linkPrefix)
	case "BgpV6Session", "BgpV4Session":
		return applyRow(m, m.sess, rowKey{e.Table == "BgpV4Session", id}, e, (*session).set, (*model).linkSession)
	}
	return true
}

// applyRow is apply for one table: the row is taken out of the indexes as
// it was (marking what read it), changed, and put back as it is (marking
// what reads it now). Update entries carry only the changed columns, which
// merge into the resident row; one that changes no column the model keeps
// is dropped.
func applyRow[K, R comparable](m *model, rows map[K]R, k K, e *relstore.LogEntry,
	set func(*R, string, any), link func(*model, K, R, bool)) bool {
	old, had := rows[k]
	var row R
	switch e.Op {
	case relstore.OpDelete:
		if had && link != nil {
			link(m, k, old, false)
		}
		delete(rows, k)
		return true
	case relstore.OpUpdate:
		if !had {
			return false
		}
		row = old
	}
	for col, v := range e.Values {
		set(&row, col, v)
	}
	if had && row == old {
		return true
	}
	if link != nil {
		if had {
			link(m, k, old, false)
		}
		link(m, k, row, true)
	}
	rows[k] = row
	return true
}

// index adds v to (or removes it from) the values listed under k.
func index[K, V comparable](idx map[K][]V, k K, v V, add bool) {
	vs := idx[k]
	if add {
		idx[k] = append(vs, v)
		return
	}
	i := slices.Index(vs, v)
	switch {
	case i < 0:
	case len(vs) == 1:
		delete(idx, k)
	default:
		vs[i] = vs[len(vs)-1]
		idx[k] = vs[:len(vs)-1]
	}
}

// --- linking: index maintenance and the dirtying rules ---
//
// Each link function is called with add=false for a row as it was and
// add=true for the row as it is; both calls mark every stored check that
// prints or reads the row, and stamp every device and circuit whose view
// reads it.

func (m *model) stampDevice(id int64)  { m.stamp(stampKey{id: id}) }
func (m *model) stampCircuit(id int64) { m.stamp(stampKey{circuit: true, id: id}) }

// touchCircuitsWhere stamps and marks the circuits an end of which
// matches: renaming a port or a device moves the names they resolve to and
// their check prints. It walks every circuit, but only for the updates and
// deletes of ports and devices; no insert reaches it.
func (m *model) touchCircuitsWhere(onEnd func(port int64) bool) {
	for id, c := range m.circs {
		if onEnd(c.a) || onEnd(c.z) {
			m.stampCircuit(id)
			m.mark(checkCircuit, rowKey{id: id})
		}
	}
}

// linkSite, linkHardware and linkVendor stamp the devices whose site name
// or vendor syntax the row resolves.
func (m *model) linkSite(id int64, _ site, _ bool) {
	for dev, d := range m.devs {
		if d.site == id {
			m.stampDevice(dev)
		}
	}
}

func (m *model) linkHardware(id int64, _ hwProfile, _ bool) {
	for dev, d := range m.devs {
		if d.hw == id {
			m.stampDevice(dev)
		}
	}
}

func (m *model) linkVendor(id int64, _ vendor, _ bool) {
	for hw, h := range m.hws {
		if h.vendor == id {
			m.linkHardware(hw, h, false)
		}
	}
}

func (m *model) mark(kind checkKind, row rowKey) {
	m.dirty[checkKey{kind: kind, row: row}] = struct{}{}
}

func (m *model) markSubnet(s netip.Prefix) {
	m.dirty[checkKey{kind: checkSubnet, subnet: s}] = struct{}{}
}

// markPrefixesOn marks what reads the bundle's device through one of its
// prefixes: the bundle's own addressing, the prefix binding, its subnet's
// ends, and sessions sourced from it.
func (m *model) markPrefixesOn(agg int64) {
	m.mark(checkBundle, rowKey{id: agg})
	for _, k := range m.pfxByAgg[agg] {
		m.mark(checkPrefix, k)
		if p := m.pfxs[k]; p.tracked() && p.net.IsValid() {
			m.markSubnet(p.net.Masked())
		}
		for _, s := range m.sessByPfx[k] {
			m.mark(checkSession, s)
		}
	}
}

func (m *model) markSubnetsOn(dev int64) {
	for _, agg := range m.aggsByDev[dev] {
		m.markPrefixesOn(agg)
	}
}

// linkDevice: a device's name is printed by its sessions, AS claims,
// circuits and bundles, the subnets with an end on it and, for a mesh
// router, the mesh; its role and cluster feed reachability and the mesh.
// A name it gives up is recorded as gone until a device takes it again.
func (m *model) linkDevice(id int64, d device, add bool) {
	if add {
		m.devByName[d.name] = id
		delete(m.st.gone, d.name)
	} else {
		delete(m.devByName, d.name)
		m.st.gone[d.name] = m.seq
		m.touchCircuitsWhere(func(port int64) bool { return m.portDev(port) == id })
	}
	if d.meshed() {
		m.mark(checkMesh, rowKey{})
	}
	m.stampDevice(id)
	m.mark(checkClaims, rowKey{id: id})
	for _, s := range m.sessByDev[id] {
		m.mark(checkSession, s)
	}
	m.markSubnetsOn(id)
	m.reachStale = true
}

func (m *model) linkBundle(id int64, b bundle, add bool) {
	index(m.aggsByDev, b.dev, id, add)
	m.markPrefixesOn(id)
}

func (m *model) linkPort(id int64, p port, add bool) {
	dev := m.lcs[p.lc].dev
	index(m.portNames, dev, p.name, add)
	m.stampDevice(dev)
	if !add {
		m.touchCircuitsWhere(func(port int64) bool { return port == id })
	}
}

func (m *model) portDev(id int64) int64 { return m.lcs[m.ports[id].lc].dev }

// linkLinkGroup: a link group's circuits must end on its two devices.
func (m *model) linkLinkGroup(id int64, g linkGroup, add bool) {
	for _, c := range m.circsByLG[id] {
		m.mark(checkCircuit, rowKey{id: c})
	}
	if g.a != 0 && g.z != 0 {
		m.connect(g.a, g.z, add, false)
	}
}

func (m *model) linkCircuit(id int64, c circuit, add bool) {
	if c.group != 0 {
		index(m.circsByLG, c.group, id, add)
	}
	m.stampCircuit(id)
	m.mark(checkCircuit, rowKey{id: id})
	if c.status == "decommissioned" {
		return
	}
	if a, z := m.portDev(c.a), m.portDev(c.z); a != 0 && z != 0 {
		m.connect(a, z, add, true)
	}
}

// connect counts one circuit or link group between a and z in or out.
// Circuits carry reachability; when the pair becomes or stops being
// adjacent at all, the p2p subnets spanning it change verdict — each has
// an end on both devices, so marking those on the smaller one covers them.
func (m *model) connect(a, z int64, add, isCircuit bool) {
	n := int32(1)
	if !add {
		n = -1
	}
	by := peer{groups: n}
	if isCircuit {
		by = peer{circuits: n}
		m.reachStale = true
	}
	flipped := m.count(a, z, by)
	if a != z {
		m.count(z, a, by)
	}
	if flipped {
		if len(m.aggsByDev[z]) < len(m.aggsByDev[a]) {
			a = z
		}
		m.markSubnetsOn(a)
	}
}

// count adds by to what a's peer list holds for z, and reports whether z
// became or stopped being a peer.
func (m *model) count(a, z int64, by peer) (flipped bool) {
	ps := m.peers[a]
	i := slices.IndexFunc(ps, func(p peer) bool { return p.dev == z })
	if flipped = i < 0; flipped {
		i, ps = len(ps), append(ps, peer{dev: z})
	}
	ps[i].circuits += by.circuits
	ps[i].groups += by.groups
	if ps[i].circuits == 0 && ps[i].groups == 0 {
		flipped = true
		ps[i] = ps[len(ps)-1]
		ps = ps[:len(ps)-1]
	}
	if len(ps) == 0 {
		delete(m.peers, a)
	} else {
		m.peers[a] = ps
	}
	return flipped
}

func (m *model) adjacent(a, z int64) bool {
	return slices.ContainsFunc(m.peers[a], func(p peer) bool { return p.dev == z })
}

func (m *model) linkPrefix(k rowKey, p prefix, add bool) {
	if p.iface != 0 {
		index(m.pfxByAgg, p.iface, k, add)
		if p.purpose == "p2p" {
			m.mark(checkBundle, rowKey{id: p.iface})
		}
	}
	m.mark(checkPrefix, k)
	for _, s := range m.sessByPfx[k] {
		m.mark(checkSession, s)
	}
	if !p.tracked() || !p.net.IsValid() {
		return
	}
	subnet := p.net.Masked()
	m.markSubnet(subnet)
	group := m.subnets[subnet]
	i, _ := slices.BinarySearchFunc(group, k, compareRowKeys)
	switch {
	case add:
		m.subnets[subnet] = slices.Insert(group, i, k)
		if len(group) == 0 {
			m.nestSubnet(subnet, true)
		}
	case len(group) == 1:
		delete(m.subnets, subnet)
		m.nestSubnet(subnet, false)
	default:
		m.subnets[subnet] = slices.Delete(group, i, i+1)
	}
}

func compareSubnets(a, b netip.Prefix) int {
	if c := a.Addr().Compare(b.Addr()); c != 0 {
		return c
	}
	return cmp.Compare(a.Bits(), b.Bits())
}

func family(s netip.Prefix) int {
	if s.Addr().Is4() {
		return 1
	}
	return 0
}

// nestSubnet adds a subnet to (or removes it from) the nesting index and
// marks exactly the subnets it contains: their overlap verdict is the only
// one its presence changes.
func (m *model) nestSubnet(s netip.Prefix, add bool) {
	i, _ := slices.BinarySearchFunc(m.nest, s, compareSubnets)
	if add {
		m.nest = slices.Insert(m.nest, i, s)
		m.lens[family(s)][s.Bits()]++
		i++
	} else {
		m.nest = slices.Delete(m.nest, i, i+1)
		m.lens[family(s)][s.Bits()]--
	}
	for ; i < len(m.nest) && s.Contains(m.nest[i].Addr()); i++ {
		m.markSubnet(m.nest[i])
	}
}

// overlapped reports whether a strictly shorter tracked subnet contains s.
// Tracked subnets nest or are disjoint, so this is exactly when replaying
// every subnet, in (address, length) order, into an empty allocator
// rejects s: whatever precedes and overlaps s contains it, and the
// outermost container is always accepted.
func (m *model) overlapped(s netip.Prefix) bool {
	lens := &m.lens[family(s)]
	for bits := 0; bits < s.Bits(); bits++ {
		if lens[bits] == 0 {
			continue
		}
		if _, ok := m.subnets[netip.PrefixFrom(s.Addr(), bits).Masked()]; ok {
			return true
		}
	}
	return false
}

func (m *model) linkSession(k rowKey, s session, add bool) {
	index(m.sessByDev, s.local, k, add)
	if s.remote != 0 && s.remote != s.local {
		index(m.sessByDev, s.remote, k, add)
	}
	if s.localPrefix != 0 {
		index(m.sessByPfx, rowKey{k.v4, s.localPrefix}, k, add)
	}
	if s.local != 0 {
		m.stampDevice(s.local) // its peers
	}
	m.mark(checkSession, k)
	m.mark(checkClaims, rowKey{id: s.local})
	m.mark(checkClaims, rowKey{id: s.remote})
	if !k.v4 && s.kind == "ibgp" {
		m.mark(checkMesh, rowKey{})
	}
}

// --- evaluation ---

// recheck re-evaluates every marked check and, if the topology moved,
// reachability. It returns how many checks ran per invariant.
func (m *model) recheck() map[Invariant]int {
	ran := map[Invariant]int{}
	for k := range m.dirty {
		var vs []Violation
		switch k.kind {
		case checkSession:
			vs = m.checkSession(k.row)
		case checkClaims:
			vs = m.checkClaims(k.row.id)
		case checkSubnet:
			vs = m.checkSubnet(k.subnet)
		case checkPrefix:
			vs = m.checkPrefix(k.row)
		case checkCircuit:
			vs = m.checkCircuit(k.row.id)
		case checkBundle:
			vs = m.checkBundle(k.row.id)
		case checkMesh:
			vs = m.checkMesh()
		}
		if len(vs) > 0 {
			m.found[k] = vs
		} else {
			delete(m.found, k)
		}
		for _, inv := range checkInvariants[k.kind] {
			ran[inv]++
		}
	}
	m.dirty = map[checkKey]struct{}{} // not clear(): a cold run's map is fleet-sized
	if m.reachStale {
		m.reach = m.checkReach()
		m.reachStale = false
		ran[Reachability] += len(m.devs)
	}
	return ran
}

// violations returns a copy of every stored violation.
func (m *model) violations() []Violation {
	vs := slices.Clone(m.reach)
	for _, found := range m.found {
		vs = append(vs, found...)
	}
	return vs
}

func (m *model) devName(id int64) string {
	if d, ok := m.devs[id]; ok {
		return d.name
	}
	return fmt.Sprintf("device#%d", id)
}

// checkSession verifies one session's type/AS relationship and that its
// local prefix is addressed on its own device.
func (m *model) checkSession(k rowKey) []Violation {
	s, ok := m.sess[k]
	if !ok {
		return nil
	}
	var vs []Violation
	model, l, r := k.sessionModel(), s.local, s.remote
	switch {
	case l != 0 && l == r:
		vs = append(vs, Violation{
			Invariant: BGPSymmetry, Device: m.devName(l), Model: model, ID: k.id,
			Detail: "session peers with itself",
		})
	case s.kind == "ibgp" && s.localAS != s.remoteAS:
		vs = append(vs, Violation{
			Invariant: BGPSymmetry, Device: m.devName(l), Model: model, ID: k.id,
			Detail: fmt.Sprintf("iBGP session with asymmetric AS numbers %d != %d", s.localAS, s.remoteAS),
			needle: strconv.FormatInt(s.remoteAS, 10),
		})
	case s.kind == "ebgp" && s.internal() && s.localAS == s.remoteAS:
		vs = append(vs, Violation{
			Invariant: BGPSymmetry, Device: m.devName(l), Model: model, ID: k.id,
			Detail: fmt.Sprintf("eBGP session between %s and %s inside one AS %d",
				m.devName(l), m.devName(r), s.localAS),
			needle: strconv.FormatInt(s.localAS, 10),
		})
	}
	if s.localPrefix == 0 || l == 0 {
		return vs
	}
	pfx, ok := m.pfxs[rowKey{k.v4, s.localPrefix}]
	switch {
	case !ok:
		vs = append(vs, Violation{
			Invariant: OrphanRef, Device: m.devName(l), Model: model, ID: k.id,
			Detail: fmt.Sprintf("session references local prefix #%d which no longer exists", s.localPrefix),
		})
	case m.aggs[pfx.iface].dev != l:
		vs = append(vs, Violation{
			Invariant: OrphanRef, Device: m.devName(l), Model: model, ID: k.id,
			Detail: fmt.Sprintf("session's local prefix %s is not addressed on %s", pfx.text, m.devName(l)),
			needle: addrOf(pfx.text),
		})
	}
	return vs
}

// checkClaims verifies a device claims a single local AS per session type
// across its internal sessions. Sessions to external peers (no
// remote_device, e.g. an ISP interconnect) are excluded, since operators
// present a different AS to partners; and claims are aggregated per
// session type, because cluster edge routers run their fabric eBGP AS
// while also joining the backbone's private-AS iBGP overlay.
func (m *model) checkClaims(dev int64) []Violation {
	if _, ok := m.devs[dev]; !ok {
		return nil
	}
	claims := map[string]map[int64]int{}
	for _, k := range m.sessByDev[dev] {
		s := m.sess[k]
		if !s.internal() {
			continue
		}
		as := s.localAS
		if s.remote == dev {
			as = s.remoteAS
		}
		if as == 0 {
			continue
		}
		if claims[s.kind] == nil {
			claims[s.kind] = map[int64]int{}
		}
		claims[s.kind][as]++
	}
	var vs []Violation
	for _, kind := range []string{"ebgp", "ibgp"} {
		byAS := claims[kind]
		if len(byAS) <= 1 {
			continue
		}
		asns := make([]int64, 0, len(byAS))
		for as := range byAS {
			asns = append(asns, as)
		}
		slices.Sort(asns)
		// The minority AS is the likeliest flip; point the hunk at it.
		minority := asns[0]
		for _, as := range asns {
			if byAS[as] < byAS[minority] {
				minority = as
			}
		}
		parts := make([]string, len(asns))
		for i, as := range asns {
			parts[i] = fmt.Sprintf("%d (%d sessions)", as, byAS[as])
		}
		vs = append(vs, Violation{
			Invariant: BGPSymmetry, Device: m.devName(dev), Model: "Device", ID: dev,
			Detail: fmt.Sprintf("device claims %d different AS numbers across internal %s sessions: %s",
				len(asns), kind, strings.Join(parts, ", ")),
			needle: strconv.FormatInt(minority, 10),
		})
	}
	return vs
}

// checkSubnet verifies one masked subnet: its p2p prefixes are exactly
// two ends on two adjacent devices, and no shorter tracked subnet (p2p or
// external interconnect) contains it — the different-length overlap a
// same-subnet grouping cannot see, e.g. a /126 swallowing a /127.
func (m *model) checkSubnet(subnet netip.Prefix) []Violation {
	group := m.subnets[subnet]
	if len(group) == 0 {
		return nil
	}
	type end struct {
		key rowKey
		dev int64
		pfx netip.Prefix
	}
	var ends []end // external prefixes have one modeled side and are not ends
	for _, k := range group {
		if p := m.pfxs[k]; p.purpose == "p2p" {
			ends = append(ends, end{k, m.aggs[p.iface].dev, p.net})
		}
	}
	var vs []Violation
	switch {
	case len(ends) == 0:
	case len(ends) == 1:
		e := ends[0]
		vs = append(vs, Violation{
			Invariant: P2PConsistency, Device: m.devName(e.dev), Model: e.key.prefixModel(), ID: e.key.id,
			Detail: fmt.Sprintf("p2p subnet %s is addressed on only one end (%s on %s)",
				subnet, e.pfx, m.devName(e.dev)),
			needle: e.pfx.Addr().String(),
		})
	case len(ends) > 2:
		names := make([]string, len(ends))
		for i, e := range ends {
			names[i] = m.devName(e.dev)
		}
		slices.Sort(names)
		vs = append(vs, Violation{
			Invariant: P2PConsistency, Device: names[0], Model: ends[0].key.prefixModel(), ID: ends[0].key.id,
			Detail: fmt.Sprintf("p2p subnet %s is addressed on %d interfaces (%s); a point-to-point subnet has exactly two ends",
				subnet, len(ends), strings.Join(names, ", ")),
			needle: subnet.Addr().String(),
		})
	default:
		a, z := ends[0], ends[1]
		if a.dev == z.dev {
			vs = append(vs, Violation{
				Invariant: P2PConsistency, Device: m.devName(a.dev), Model: a.key.prefixModel(), ID: a.key.id,
				Detail: fmt.Sprintf("both ends of p2p subnet %s land on device %s", subnet, m.devName(a.dev)),
				needle: a.pfx.Addr().String(),
			})
		} else if !m.adjacent(a.dev, z.dev) {
			vs = append(vs, Violation{
				Invariant: P2PConsistency, Device: m.devName(a.dev), Model: a.key.prefixModel(), ID: a.key.id,
				Detail: fmt.Sprintf("p2p subnet %s spans %s and %s, which share no circuit — address reuse across circuits",
					subnet, m.devName(a.dev), m.devName(z.dev)),
				needle: a.pfx.Addr().String(),
			})
		}
	}
	if m.overlapped(subnet) {
		vs = append(vs, Violation{
			Invariant: P2PConsistency, Device: m.devName(m.aggs[m.pfxs[group[0]].iface].dev),
			Detail: fmt.Sprintf("subnet %s overlaps another circuit's allocation: ipam: %s conflicts with an existing allocation",
				subnet, subnet),
			needle: subnet.Addr().String(),
		})
	}
	return vs
}

// checkPrefix verifies a p2p/external prefix parses and stays bound to an
// interface that resolves to a device.
func (m *model) checkPrefix(k rowKey) []Violation {
	p, ok := m.pfxs[k]
	if !ok || !p.tracked() {
		return nil
	}
	var vs []Violation
	if !p.net.IsValid() {
		_, err := netip.ParsePrefix(p.text)
		vs = append(vs, Violation{
			Invariant: P2PConsistency, Device: m.devName(m.aggs[p.iface].dev), Model: k.prefixModel(), ID: k.id,
			Detail: fmt.Sprintf("stored prefix %q does not parse: %v", p.text, err),
		})
	}
	switch {
	case p.iface == 0:
		vs = append(vs, Violation{
			Invariant: OrphanRef, Model: k.prefixModel(), ID: k.id,
			Detail: fmt.Sprintf("%s prefix %s is bound to no interface", p.purpose, p.text),
			needle: addrOf(p.text),
		})
	case m.aggs[p.iface].dev == 0:
		vs = append(vs, Violation{
			Invariant: OrphanRef, Model: k.prefixModel(), ID: k.id,
			Detail: fmt.Sprintf("%s prefix %s is bound to interface %d which resolves to no device",
				p.purpose, p.text, p.iface),
			needle: addrOf(p.text),
		})
	}
	return vs
}

// checkCircuit verifies a circuit that is not decommissioned keeps both
// endpoints — a deleted interface nulls the reference (SetNull) and leaves
// it half-connected — on two interfaces of two distinct devices, and that
// those are the two devices of its link group.
func (m *model) checkCircuit(id int64) []Violation {
	c, ok := m.circs[id]
	if !ok || c.status == "decommissioned" {
		return nil
	}
	a, z := m.portDev(c.a), m.portDev(c.z)
	g, grouped := m.groups[c.group]
	dev, iface := m.devName(a), m.ports[c.a].name
	var detail string
	switch {
	case c.a == 0 || c.z == 0:
		dev, iface = parseCircuitEnd(c.name, c.a == 0)
		detail = fmt.Sprintf("%s circuit %s lost endpoint %s:%s — interface no longer resolves in FBNet",
			c.status, c.name, dev, iface)
	case a == z: // both ends on one device, or on one interface
		detail = fmt.Sprintf("%s circuit %s terminates twice on %s", c.status, c.name, dev)
	case grouped && !(a == g.a && z == g.z) && !(a == g.z && z == g.a):
		detail = fmt.Sprintf("%s circuit %s runs between %s and %s, which are not the devices of its link group",
			c.status, c.name, dev, m.devName(z))
	default:
		return nil
	}
	return []Violation{{Invariant: OrphanRef, Device: dev, Model: "Circuit", ID: id, Detail: detail, needle: iface}}
}

// checkBundle verifies a bundle carries at most one p2p prefix per
// family: the generator renders one address per family on a bundle, and
// would drop the others without a word.
func (m *model) checkBundle(id int64) []Violation {
	b := m.aggs[id] // a bundle that is gone has no prefixes
	var vs []Violation
	for _, v4 := range []bool{false, true} {
		var texts []string
		for _, k := range m.pfxByAgg[id] {
			if p := m.pfxs[k]; k.v4 == v4 && p.purpose == "p2p" {
				texts = append(texts, p.text)
			}
		}
		if len(texts) > 1 {
			slices.Sort(texts)
			vs = append(vs, Violation{
				Invariant: P2PConsistency, Device: m.devName(b.dev), Model: "AggregatedInterface", ID: id,
				Detail: fmt.Sprintf("bundle %s of %s carries %d p2p %s objects (%s); it is addressed with one per family",
					b.name, m.devName(b.dev), len(texts), rowKey{v4: v4}.prefixModel(), strings.Join(texts, ", ")),
				needle: b.name,
			})
		}
	}
	return vs
}

// checkMesh verifies the backbone's iBGP full mesh: every pair of mesh
// routers with a v6 loopback shares an iBGP v6 session, in either
// direction. Like checkReach it looks at the whole backbone, and it runs
// only when a mesh router or an iBGP v6 session changed.
func (m *model) checkMesh() []Violation {
	var mesh []int64
	for id, d := range m.devs {
		if d.meshed() && d.lo6 != "" {
			mesh = append(mesh, id)
		}
	}
	slices.Sort(mesh)
	var vs []Violation
	peered := map[int64]bool{}
	for i, a := range mesh {
		clear(peered)
		for _, k := range m.sessByDev[a] {
			if s := m.sess[k]; !k.v4 && s.kind == "ibgp" {
				peered[s.local], peered[s.remote] = true, true
			}
		}
		for _, b := range mesh[i+1:] {
			if !peered[b] {
				da, db := m.devs[a], m.devs[b]
				vs = append(vs, Violation{
					Invariant: BGPSymmetry, Device: da.name, Model: "Device", ID: a,
					Detail: fmt.Sprintf("no iBGP session between %s and %s", da.name, db.name),
					needle: addrOf(db.lo6),
				})
			}
		}
	}
	return vs
}

// roleRank orders roles bottom-up; a device's "aggregation layer" is any
// same-cluster device of strictly higher rank.
var roleRank = map[string]int{
	"tor": 0, "fsw": 1, "psw": 1, "ssw": 2, "dr": 3, "pr": 3, "bb": 4,
}

// checkReach verifies every cluster device below its cluster's top tier
// can reach a higher-rank device of the same cluster over
// non-decommissioned circuits. Backbone routers (no cluster) are exempt:
// they are legitimately built out before their circuits exist.
//
// A path to such a device exists exactly when the device's connected
// component holds one, so one union-find pass over the circuit peers
// answers for every device. It is the only fleet-sized loop of a warm
// run, and runs only when a device or a circuit adjacency changed.
func (m *model) checkReach() []Violation {
	type member struct { // a cluster device of a ranked role
		id, cluster int64
		rank        int
	}
	members := make([]member, 0, len(m.devs))
	clusterTop := map[int64]int{} // highest rank in the cluster
	var maxID int64
	for id, d := range m.devs {
		maxID = max(maxID, id)
		if rank, ok := roleRank[d.role]; ok && d.cluster != 0 {
			members = append(members, member{id, d.cluster, rank})
			clusterTop[d.cluster] = max(clusterTop[d.cluster], rank)
		}
	}
	// Device ids are dense (the store numbers rows consecutively), so the
	// union-find is a slice indexed by id rather than a map.
	parent := make([]int32, maxID+1)
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(x int64) int32 {
		i := int32(x)
		for parent[i] != i {
			parent[i] = parent[parent[i]]
			i = parent[i]
		}
		return i
	}
	for a, ps := range m.peers {
		for _, p := range ps {
			if p.circuits > 0 && a < p.dev && p.dev <= maxID {
				parent[find(a)] = find(p.dev)
			}
		}
	}
	// A tier is one cluster's share of one component (ids fit 31 bits).
	tier := func(mb member) int64 { return mb.cluster<<32 | int64(find(mb.id)) }
	tierTop := map[int64]int{} // highest rank in the tier
	for _, mb := range members {
		t := tier(mb)
		tierTop[t] = max(tierTop[t], mb.rank)
	}
	var vs []Violation
	for _, mb := range members {
		// The cluster's top tier has nothing above it; anything else needs
		// a higher rank of its cluster in its component.
		if mb.rank >= clusterTop[mb.cluster] || tierTop[tier(mb)] > mb.rank {
			continue
		}
		d := m.devs[mb.id]
		vs = append(vs, Violation{
			Invariant: Reachability, Device: d.name, Model: "Device", ID: mb.id,
			Detail: fmt.Sprintf("%s (%s) has no intact circuit path to its aggregation layer", d.name, d.role),
		})
	}
	slices.SortFunc(vs, func(a, b Violation) int { return cmp.Compare(a.ID, b.ID) })
	return vs
}
