// Package netsim simulates a fleet of managed network devices.
//
// Robotron's deployment and monitoring stages talk to tens of thousands of
// heterogeneous routers and switches from multiple vendors (SIGCOMM '16,
// §5.3, §5.4). This package provides that management plane without
// hardware: each Device has a vendor personality (config syntax, native
// dryrun support, commit-confirmed behavior), a running/candidate config
// store, operational state (interfaces, LLDP adjacencies, BGP sessions,
// CPU/memory/traffic counters) derived from its config and the fleet's
// cabling, syslog emission on operational events, and injectable failures
// (reboot, linecard removal, manual config drift, unreachability).
//
// Devices are driven either in-process (the Device methods mirror a
// management session) or over TCP via the CLI server in mgmt.go, which is
// what cmd/netsimd exposes.
package netsim

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Vendor selects a device's configuration dialect and management quirks.
type Vendor string

const (
	// Vendor1 is IOS-like: flat "interface X" stanzas, no native dryrun
	// (diffs must be emulated by comparing before/after), no native
	// commit-confirmed.
	Vendor1 Vendor = "vendor1"
	// Vendor2 is JunOS-like: brace-structured config, native "show | compare"
	// dryrun and native commit-confirmed with automatic rollback.
	Vendor2 Vendor = "vendor2"
)

// ErrNotSupported marks operations a vendor platform cannot perform
// natively (e.g. dryrun on Vendor1), forcing callers onto fallback paths
// exactly as the paper describes (§5.3.2).
var ErrNotSupported = fmt.Errorf("netsim: not supported on this platform")

// ErrUnreachable is returned by every management operation while a device
// is down or partitioned.
var ErrUnreachable = fmt.Errorf("netsim: device unreachable")

// IfaceStatus is one row of "show interfaces".
type IfaceStatus struct {
	Name       string
	OperStatus string // "up" | "down"
	SpeedMbps  int64
	InOctets   uint64
	OutOctets  uint64
}

// LLDPNeighbor is one row of "show lldp neighbors".
type LLDPNeighbor struct {
	LocalInterface    string
	NeighborDevice    string
	NeighborInterface string
}

// BGPPeerStatus is one row of "show bgp summary".
type BGPPeerStatus struct {
	PeerAddr string
	State    string // "Established" | "Active" | "Idle"
	Family   string // "v4" | "v6"
}

// VersionInfo is the device identity reported by "show version".
type VersionInfo struct {
	Name      string
	Vendor    string
	OSVersion string
	UptimeS   int64
}

// SyslogMessage is one emitted syslog event, RFC 5424-shaped.
type SyslogMessage struct {
	Severity int // 0 (emerg) .. 7 (debug)
	Host     string
	App      string
	Text     string
	Time     time.Time
}

// Format renders the message in an RFC 5424-like single-line form.
func (m SyslogMessage) Format() string {
	pri := 23*8 + m.Severity // facility local7
	return fmt.Sprintf("<%d>1 %s %s %s - - - %s",
		pri, m.Time.UTC().Format(time.RFC3339), m.Host, m.App, m.Text)
}

// Device simulates one managed network device. All methods are safe for
// concurrent use.
type Device struct {
	name   string
	vendor Vendor
	role   string
	site   string

	mu          sync.Mutex
	down        bool
	bootTime    time.Time
	osVersion   string
	running     string
	candidate   string
	hasCand     bool
	history     []string // committed configs, oldest first
	ifaces      map[string]*ifaceState
	bgpPeers    map[string]*BGPPeerStatus
	lldp        map[string]LLDPNeighbor // keyed by local interface
	traffic     float64                 // offered load 0..1; >0 means draining required
	confirmTmr  *time.Timer
	confirmPrev string
	commitDelay time.Duration // simulated config-apply time

	syslogSink func(SyslogMessage)
	// onCommit lets the fleet recompute link state when configs change.
	onCommit func(*Device)
	// onManual notifies the fleet of an out-of-band config append
	// (ApplyManualChange) so the derived-state indexes stay current; no
	// recompute is triggered, matching the pre-incremental behavior where
	// manual drift was only picked up by the next recompute pass.
	onManual func(*Device)
	// onHealth notifies the fleet of a reachability or hardware change
	// (SetDown, Reboot, RemoveLinecard) so the device is marked dirty for
	// the next incremental recompute pass.
	onHealth func(*Device)
	now      func() time.Time
	// faults, when set, injects failures into management verbs (see
	// faults.go); both the in-process API and the TCP CLI go through it.
	faults *FaultPolicy

	// mgmtOps counts every management verb issued against the device,
	// successful or not — the observable footprint of a deployment.
	mgmtOps atomic.Int64
}

type ifaceState struct {
	operUp    bool
	speedMbps int64
	inOctets  uint64
	outOctets uint64
	rate      uint64 // octets per second when up
}

// NewDevice creates a healthy device with an empty config.
func NewDevice(name string, vendor Vendor, role, site string) *Device {
	d := &Device{
		name:      name,
		vendor:    vendor,
		role:      role,
		site:      site,
		bootTime:  time.Now(),
		osVersion: osVersionFor(vendor),
		ifaces:    make(map[string]*ifaceState),
		bgpPeers:  make(map[string]*BGPPeerStatus),
		now:       time.Now,
	}
	return d
}

func osVersionFor(v Vendor) string {
	if v == Vendor2 {
		return "17.4R2"
	}
	return "7.3.2"
}

// Name returns the device hostname.
func (d *Device) Name() string { return d.name }

// Vendor returns the device's vendor personality.
func (d *Device) Vendor() Vendor { return d.vendor }

// Role returns the device role (pr, bb, dr, psw, tor...).
func (d *Device) Role() string { return d.role }

// Site returns the device's site name.
func (d *Device) Site() string { return d.site }

// SetSyslogSink installs the receiver for this device's syslog messages
// (the fleet points every device at the monitoring anycast address).
func (d *Device) SetSyslogSink(sink func(SyslogMessage)) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.syslogSink = sink
}

// SetTimeFunc replaces the device's time source (syslog timestamps,
// traffic counters, uptime) and rebases the boot instant onto it, so a
// device driven by a virtual clock reports deterministic, monotonic
// operational state. Scenario runs point every device at the shared
// virtual clock.
func (d *Device) SetTimeFunc(now func() time.Time) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.now = now
	d.bootTime = now()
}

// emit sends a syslog message; callers must not hold d.mu.
func (d *Device) emit(severity int, app, format string, args ...any) {
	d.mu.Lock()
	sink := d.syslogSink
	now := d.now()
	d.mu.Unlock()
	if sink == nil {
		return
	}
	sink(SyslogMessage{
		Severity: severity,
		Host:     d.name,
		App:      app,
		Text:     fmt.Sprintf(format, args...),
		Time:     now,
	})
}

func (d *Device) checkUp() error {
	if d.down {
		return fmt.Errorf("%w: %s", ErrUnreachable, d.name)
	}
	return nil
}

// --- configuration operations ---

// RunningConfig returns the active configuration.
func (d *Device) RunningConfig() (string, error) {
	return d.runFaultStr("show running-config", d.runningConfigOp)
}

// PeekRunningConfig returns the active configuration without opening a
// management session: no verb is counted, no fault fires, and a down
// device still answers. It is the read-side counterpart of
// InjectRunningConfig — harness and test observation that must not
// perturb the system under test.
func (d *Device) PeekRunningConfig() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.running
}

func (d *Device) runningConfigOp() (string, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.checkUp(); err != nil {
		return "", err
	}
	return d.running, nil
}

// LoadConfig stages a full candidate configuration. Nothing changes until
// Commit (or CommitConfirmed).
func (d *Device) LoadConfig(cfg string) error {
	return d.runFault("load-config", func() error { return d.loadConfigOp(cfg) })
}

func (d *Device) loadConfigOp(cfg string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.checkUp(); err != nil {
		return err
	}
	if err := d.vendorValidate(cfg); err != nil {
		return err
	}
	d.candidate = cfg
	d.hasCand = true
	return nil
}

// vendorValidate performs the device's own config syntax check, the class
// of "invalid configurations and vendor bugs" dryrun catches (§5.3.2).
func (d *Device) vendorValidate(cfg string) error {
	if d.vendor == Vendor2 {
		depth := 0
		for i, line := range strings.Split(cfg, "\n") {
			depth += strings.Count(line, "{") - strings.Count(line, "}")
			if depth < 0 {
				return fmt.Errorf("netsim: %s: syntax error at line %d: unbalanced '}'", d.name, i+1)
			}
		}
		if depth != 0 {
			return fmt.Errorf("netsim: %s: syntax error: %d unclosed '{' block(s)", d.name, depth)
		}
	}
	return nil
}

// DiscardCandidate drops the staged candidate configuration without
// committing it (the "abort"/"discard" of real platforms). Discarding
// when nothing is staged is a no-op.
func (d *Device) DiscardCandidate() error {
	return d.runFault("discard", d.discardCandidateOp)
}

func (d *Device) discardCandidateOp() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.checkUp(); err != nil {
		return err
	}
	d.candidate = ""
	d.hasCand = false
	return nil
}

// DryrunDiff compares the candidate against the running config natively.
// Vendor1 platforms return ErrNotSupported; callers fall back to comparing
// configs before and after deployment (§5.3.2).
func (d *Device) DryrunDiff() (string, error) {
	return d.runFaultStr("compare", d.dryrunDiffOp)
}

func (d *Device) dryrunDiffOp() (string, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.checkUp(); err != nil {
		return "", err
	}
	if d.vendor != Vendor2 {
		return "", ErrNotSupported
	}
	if !d.hasCand {
		return "", fmt.Errorf("netsim: %s: no candidate configuration loaded", d.name)
	}
	return simpleDiff(d.running, d.candidate), nil
}

// simpleDiff is the device's own terse diff rendering (not Robotron's);
// lines only, no context.
func simpleDiff(old, new string) string {
	oldSet := map[string]int{}
	for _, l := range strings.Split(old, "\n") {
		oldSet[l]++
	}
	newSet := map[string]int{}
	for _, l := range strings.Split(new, "\n") {
		newSet[l]++
	}
	var b strings.Builder
	for _, l := range strings.Split(old, "\n") {
		if newSet[l] == 0 {
			fmt.Fprintf(&b, "- %s\n", l)
		}
	}
	for _, l := range strings.Split(new, "\n") {
		if oldSet[l] == 0 {
			fmt.Fprintf(&b, "+ %s\n", l)
		}
	}
	return b.String()
}

// SetCommitDelay makes subsequent commits take the given time to apply,
// simulating slow control planes (the failure mode atomic deployments
// guard against with their time window, §5.3.2).
func (d *Device) SetCommitDelay(delay time.Duration) {
	d.mu.Lock()
	d.commitDelay = delay
	d.mu.Unlock()
}

// applyDelay simulates the device chewing on a config load.
func (d *Device) applyDelay() {
	d.mu.Lock()
	delay := d.commitDelay
	d.mu.Unlock()
	if delay > 0 {
		time.Sleep(delay)
	}
}

// Commit activates the candidate configuration.
func (d *Device) Commit() error {
	return d.runFault("commit", d.commitOp)
}

func (d *Device) commitOp() error {
	d.applyDelay()
	d.mu.Lock()
	if err := d.checkUp(); err != nil {
		d.mu.Unlock()
		return err
	}
	if !d.hasCand {
		d.mu.Unlock()
		return fmt.Errorf("netsim: %s: no candidate configuration loaded", d.name)
	}
	d.commitLocked(d.candidate)
	cb := d.onCommit
	d.mu.Unlock()

	d.emit(5, "config", "CONFIG_CHANGED: configuration committed by management session")
	if cb != nil {
		cb(d)
	}
	return nil
}

// commitLocked activates cfg and refreshes derived operational state.
func (d *Device) commitLocked(cfg string) {
	if d.running != "" {
		d.history = append(d.history, d.running)
	}
	d.running = cfg
	d.hasCand = false
	d.candidate = ""
	d.reparseLocked()
}

// CommitConfirmed activates the candidate but schedules an automatic
// rollback after grace unless Confirm is called (§5.3.2, Human
// Confirmation). Vendor1 emulates this in Robotron's deploy layer; the
// device-native path exists only on Vendor2.
func (d *Device) CommitConfirmed(grace time.Duration) error {
	return d.runFault("commit-confirmed", func() error { return d.commitConfirmedOp(grace) })
}

func (d *Device) commitConfirmedOp(grace time.Duration) error {
	d.applyDelay()
	d.mu.Lock()
	if err := d.checkUp(); err != nil {
		d.mu.Unlock()
		return err
	}
	if d.vendor != Vendor2 {
		d.mu.Unlock()
		return ErrNotSupported
	}
	if !d.hasCand {
		d.mu.Unlock()
		return fmt.Errorf("netsim: %s: no candidate configuration loaded", d.name)
	}
	prev := d.running
	d.commitLocked(d.candidate)
	d.confirmPrev = prev
	if d.confirmTmr != nil {
		d.confirmTmr.Stop()
	}
	d.confirmTmr = time.AfterFunc(grace, func() { d.confirmExpired() })
	cb := d.onCommit
	d.mu.Unlock()

	d.emit(5, "config", "CONFIG_CHANGED: commit confirmed will be rolled back in %s unless confirmed", grace)
	if cb != nil {
		cb(d)
	}
	return nil
}

// Confirm makes a pending commit-confirmed permanent.
func (d *Device) Confirm() error {
	return d.runFault("confirm", d.confirmOp)
}

func (d *Device) confirmOp() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.checkUp(); err != nil {
		return err
	}
	if d.confirmTmr == nil {
		return fmt.Errorf("netsim: %s: no commit pending confirmation", d.name)
	}
	d.confirmTmr.Stop()
	d.confirmTmr = nil
	d.confirmPrev = ""
	return nil
}

func (d *Device) confirmExpired() {
	d.mu.Lock()
	if d.confirmTmr == nil {
		d.mu.Unlock()
		return
	}
	d.confirmTmr = nil
	prev := d.confirmPrev
	d.confirmPrev = ""
	d.commitLocked(prev)
	cb := d.onCommit
	d.mu.Unlock()
	d.emit(4, "config", "CONFIG_ROLLBACK: commit not confirmed within grace period, configuration rolled back")
	if cb != nil {
		cb(d)
	}
}

// HasCandidate reports whether an uncommitted candidate config is staged.
func (d *Device) HasCandidate() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.hasCand
}

// MgmtOps returns how many management operations (any verb, including
// failed ones) have been issued against the device since creation.
func (d *Device) MgmtOps() int64 { return d.mgmtOps.Load() }

// ConfirmPending reports whether a commit-confirmed rollback timer is armed.
func (d *Device) ConfirmPending() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.confirmTmr != nil
}

// Rollback restores the previously committed configuration.
func (d *Device) Rollback() error {
	return d.runFault("rollback", d.rollbackOp)
}

func (d *Device) rollbackOp() error {
	d.mu.Lock()
	if err := d.checkUp(); err != nil {
		d.mu.Unlock()
		return err
	}
	if len(d.history) == 0 {
		d.mu.Unlock()
		return fmt.Errorf("netsim: %s: no previous configuration to roll back to", d.name)
	}
	prev := d.history[len(d.history)-1]
	d.history = d.history[:len(d.history)-1]
	d.running = prev
	d.reparseLocked()
	cb := d.onCommit
	d.mu.Unlock()
	d.emit(5, "config", "CONFIG_CHANGED: configuration rolled back to previous version")
	if cb != nil {
		cb(d)
	}
	return nil
}

// EraseConfig wipes the running configuration (initial provisioning starts
// from a clean state, §5.3.1).
func (d *Device) EraseConfig() error {
	return d.runFault("erase", d.eraseConfigOp)
}

func (d *Device) eraseConfigOp() error {
	d.mu.Lock()
	if err := d.checkUp(); err != nil {
		d.mu.Unlock()
		return err
	}
	changed := d.running != "" // a blank device's erase changes nothing
	d.running = ""
	d.history = nil
	d.hasCand = false
	d.reparseLocked()
	cb := d.onCommit
	d.mu.Unlock()
	if changed {
		d.emit(5, "config", "CONFIG_CHANGED: configuration erased")
	}
	if cb != nil {
		cb(d)
	}
	return nil
}

// ApplyManualChange simulates an engineer editing the device directly
// (the "automation fallback" of §8): the line is appended to the running
// config and a config-change syslog fires, which is what config monitoring
// keys on.
func (d *Device) ApplyManualChange(line string) error {
	d.mu.Lock()
	if err := d.checkUp(); err != nil {
		d.mu.Unlock()
		return err
	}
	if d.running != "" && !strings.HasSuffix(d.running, "\n") {
		d.running += "\n"
	}
	d.history = append(d.history, d.running)
	d.running += line + "\n"
	cb := d.onManual
	d.mu.Unlock()
	d.emit(5, "config", "CONFIG_CHANGED: configuration changed from console by admin")
	if cb != nil {
		cb(d)
	}
	return nil
}

// InjectRunningConfig replaces the running configuration out-of-band,
// bypassing the candidate/commit pipeline entirely — the simulation of
// drift arriving from outside Robotron's control (a rogue script, a
// vendor tool, an engineer on the console). The previous config lands in
// history, derived operational state reparses, and the CONFIG_CHANGED
// syslog fires, which is exactly what config monitoring keys on. Tests
// use this to create drift scenarios without hand-rolling mgmt-channel
// writes.
func (d *Device) InjectRunningConfig(cfg string) error {
	d.mu.Lock()
	if err := d.checkUp(); err != nil {
		d.mu.Unlock()
		return err
	}
	if d.running != "" {
		d.history = append(d.history, d.running)
	}
	d.running = cfg
	d.reparseLocked()
	cb := d.onCommit
	d.mu.Unlock()
	d.emit(5, "config", "CONFIG_CHANGED: configuration changed out-of-band")
	if cb != nil {
		cb(d)
	}
	return nil
}

// --- operational state ---

// configScan is what a running config says about a device's operational
// state: its ports, its BGP peers and the speed its ports come up at.
type configScan struct {
	ifaces []string
	peers  []string
	speed  int64
}

// scanConfig reads a running config in one pass over its lines.
//
//   - A port is a vendor1 "interface et1/1" line, or a vendor2 "et-0/0/1 {"
//     or "replace: ae0 {" line whose name is a physical, aggregate or
//     loopback interface (et, xe, ge, ae, lo, then a number); top-level
//     stanzas like "class-of-service {" are not ports, and neither are TE
//     tunnels.
//   - A peer is a "neighbor X" line, optionally followed by "remote-as N"
//     (vendor1) and/or "{" (vendor2), and by nothing else.
//   - The speed is that of the first "speed N" line, 10000 without one.
//
// Whitespace is [\t\n\f\r ] throughout, and a line ends at '\n' only.
// The grammar is exactly that of the regular expressions this scan
// replaced, which FuzzReparse keeps as its oracle.
func scanConfig(v Vendor, cfg string) configScan {
	sc := configScan{speed: 10000}
	haveSpeed := false
	for cfg != "" {
		line := cfg
		if i := strings.IndexByte(cfg, '\n'); i >= 0 {
			line, cfg = cfg[:i], cfg[i+1:]
		} else {
			cfg = ""
		}
		if name, ok := portName(v, line); ok && !strings.HasPrefix(name, "tunnel") {
			sc.ifaces = append(sc.ifaces, name)
		}
		body := trimSpace(line)
		if addr, ok := neighborAddr(body); ok {
			sc.peers = append(sc.peers, addr)
		}
		if rest, ok := strings.CutPrefix(body, "speed "); ok && !haveSpeed {
			rest = trimSpaces(rest)
			if n := digits(rest); n > 0 {
				// The first speed line decides, even one too large to
				// parse (which leaves the default).
				haveSpeed = true
				if s, err := strconv.ParseInt(rest[:n], 10, 64); err == nil {
					sc.speed = s
				}
			}
		}
	}
	return sc
}

// portName returns the interface a line declares, if it declares one.
func portName(v Vendor, line string) (string, bool) {
	if v != Vendor2 {
		rest, ok := strings.CutPrefix(line, "interface ")
		name := nonSpace(trimSpaces(rest))
		return name, ok && name != ""
	}
	if rest, ok := strings.CutPrefix(line, "replace: "); ok {
		line = trimSpaces(rest)
	}
	name := nonSpace(line)
	open := line[len(name):]
	if after := trimSpaces(open); len(after) == len(open) || !strings.HasPrefix(after, "{") {
		return "", false
	}
	if len(name) < 3 {
		return "", false
	}
	switch name[:2] {
	case "et", "xe", "ge", "ae", "lo":
	default:
		return "", false
	}
	// The number starts right after the prefix: "-", "/" and "." may
	// precede its first digit, nothing else may.
	for i := 2; i < len(name); i++ {
		switch c := name[i]; {
		case c >= '0' && c <= '9':
			return name, true
		case c != '-' && c != '/' && c != '.':
			return "", false
		}
	}
	return "", false
}

// neighborAddr returns the peer address of a "neighbor" line whose leading
// whitespace is already trimmed.
func neighborAddr(body string) (string, bool) {
	rest, ok := strings.CutPrefix(body, "neighbor ")
	if !ok {
		return "", false
	}
	rest = trimSpaces(rest)
	addr := nonSpace(rest)
	tail := rest[len(addr):]
	switch {
	case addr == "":
		return "", false
	case len(addr) > 1 && addr[len(addr)-1] == '{' && trimSpace(tail) == "":
		return addr[:len(addr)-1], true // "neighbor X{"
	case neighborTail(tail):
		return addr, true
	}
	return "", false
}

// neighborTail reports whether what follows a neighbor's address is
// [" remote-as N"][" {"] and then whitespace.
func neighborTail(tail string) bool {
	if rest := trimSpaces(tail); len(rest) < len(tail) {
		if as, ok := strings.CutPrefix(rest, "remote-as "); ok {
			as = trimSpaces(as)
			if n := digits(as); n > 0 && openTail(as[n:]) {
				return true
			}
		}
	}
	return openTail(tail)
}

// openTail reports whether s is an optional "{" (after spaces) and then
// whitespace.
func openTail(s string) bool {
	if rest, ok := strings.CutPrefix(trimSpaces(s), "{"); ok {
		return trimSpace(rest) == ""
	}
	return trimSpace(s) == ""
}

// isSpace is the whitespace of the config grammar: [\t\n\f\r ].
func isSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\f' || c == '\r'
}

// trimSpace drops leading whitespace.
func trimSpace(s string) string {
	for s != "" && isSpace(s[0]) {
		s = s[1:]
	}
	return s
}

// trimSpaces drops leading ' ' characters only.
func trimSpaces(s string) string {
	for s != "" && s[0] == ' ' {
		s = s[1:]
	}
	return s
}

// nonSpace returns the leading run of non-whitespace bytes.
func nonSpace(s string) string {
	for i := 0; i < len(s); i++ {
		if isSpace(s[i]) {
			return s[:i]
		}
	}
	return s
}

// digits returns the length of s's leading run of ASCII digits.
func digits(s string) int {
	n := 0
	for n < len(s) && s[n] >= '0' && s[n] <= '9' {
		n++
	}
	return n
}

// reparseLocked rebuilds interface and BGP peer state from the running
// config; existing counters carry over for surviving interfaces, and
// surviving sessions keep their state.
func (d *Device) reparseLocked() {
	sc := scanConfig(d.vendor, d.running)
	names := make(map[string]bool, len(sc.ifaces))
	for _, name := range sc.ifaces {
		names[name] = true
		if _, ok := d.ifaces[name]; !ok {
			d.ifaces[name] = &ifaceState{speedMbps: sc.speed, rate: 1 << 20}
		}
	}
	for name := range d.ifaces {
		if !names[name] {
			delete(d.ifaces, name)
		}
	}
	peers := make(map[string]*BGPPeerStatus, len(sc.peers))
	for _, addr := range sc.peers {
		if old, ok := d.bgpPeers[addr]; ok {
			peers[addr] = old
			continue
		}
		family := "v4"
		if strings.Contains(addr, ":") {
			family = "v6"
		}
		peers[addr] = &BGPPeerStatus{PeerAddr: addr, State: "Active", Family: family}
	}
	d.bgpPeers = peers
}

// HasInterface reports whether the running config defines the interface.
func (d *Device) HasInterface(name string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	_, ok := d.ifaces[name]
	return ok
}

// setLink is called by the fleet to bring an interface up or down.
func (d *Device) setLink(iface string, up bool) bool {
	d.mu.Lock()
	st, ok := d.ifaces[iface]
	changed := ok && st.operUp != up
	if ok {
		st.operUp = up
	}
	d.mu.Unlock()
	if changed {
		state := "down"
		if up {
			state = "up"
		}
		d.emit(4, "link", "LINK_STATE: Interface %s changed state to %s", iface, state)
	}
	return changed
}

// setBGP is called by the fleet to move a BGP session's state.
func (d *Device) setBGP(peerAddr, state string) {
	d.mu.Lock()
	p, ok := d.bgpPeers[peerAddr]
	changed := ok && p.State != state
	if ok {
		p.State = state
	}
	d.mu.Unlock()
	if changed {
		d.emit(5, "bgp", "BGP_SESSION: neighbor %s moved to %s", peerAddr, state)
	}
}

func (d *Device) setLLDP(neighbors []LLDPNeighbor) {
	d.mu.Lock()
	d.lldp = make(map[string]LLDPNeighbor, len(neighbors))
	for _, n := range neighbors {
		d.lldp[n.LocalInterface] = n
	}
	d.mu.Unlock()
}

// setLLDPEntry installs or refreshes the adjacency on one local interface
// (incremental recompute path).
func (d *Device) setLLDPEntry(n LLDPNeighbor) {
	d.mu.Lock()
	if d.lldp == nil {
		d.lldp = make(map[string]LLDPNeighbor, 4)
	}
	d.lldp[n.LocalInterface] = n
	d.mu.Unlock()
}

// clearLLDPEntry drops the adjacency on one local interface.
func (d *Device) clearLLDPEntry(localIface string) {
	d.mu.Lock()
	delete(d.lldp, localIface)
	d.mu.Unlock()
}

// pruneLLDP drops adjacencies on local interfaces not in keep — interfaces
// that lost their cable since the entry was installed.
func (d *Device) pruneLLDP(keep map[string]bool) {
	d.mu.Lock()
	for local := range d.lldp {
		if !keep[local] {
			delete(d.lldp, local)
		}
	}
	d.mu.Unlock()
}

// indexSnapshot returns the running config and the configured BGP peer
// addresses, sorted, regardless of reachability — simulation bookkeeping
// for the fleet's ownership and session indexes, not a management
// operation.
func (d *Device) indexSnapshot() (cfg string, peers []string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	cfg = d.running
	peers = make([]string, 0, len(d.bgpPeers))
	for addr := range d.bgpPeers {
		peers = append(peers, addr)
	}
	sort.Strings(peers)
	return cfg, peers
}

// ifaceNames returns the configured interface names, sorted, without
// advancing traffic counters or requiring reachability (incremental
// recompute path).
func (d *Device) ifaceNames() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]string, 0, len(d.ifaces))
	for name := range d.ifaces {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// ShowInterfaces returns interface status with monotonically advancing
// traffic counters.
func (d *Device) ShowInterfaces() ([]IfaceStatus, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.checkUp(); err != nil {
		return nil, err
	}
	d.advanceCountersLocked()
	out := make([]IfaceStatus, 0, len(d.ifaces))
	for name, st := range d.ifaces {
		status := "down"
		if st.operUp {
			status = "up"
		}
		out = append(out, IfaceStatus{
			Name: name, OperStatus: status, SpeedMbps: st.speedMbps,
			InOctets: st.inOctets, OutOctets: st.outOctets,
		})
	}
	slices.SortFunc(out, func(a, b IfaceStatus) int { return strings.Compare(a.Name, b.Name) })
	return out, nil
}

func (d *Device) advanceCountersLocked() {
	elapsed := d.now().Sub(d.bootTime).Seconds()
	for _, st := range d.ifaces {
		if st.operUp {
			st.inOctets = uint64(elapsed * float64(st.rate) * (0.5 + d.traffic))
			st.outOctets = uint64(elapsed * float64(st.rate) * (0.4 + d.traffic))
		}
	}
}

// ShowLLDPNeighbors returns the current LLDP adjacency table.
func (d *Device) ShowLLDPNeighbors() ([]LLDPNeighbor, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.checkUp(); err != nil {
		return nil, err
	}
	out := make([]LLDPNeighbor, 0, len(d.lldp))
	for _, n := range d.lldp {
		out = append(out, n)
	}
	slices.SortFunc(out, func(a, b LLDPNeighbor) int { return strings.Compare(a.LocalInterface, b.LocalInterface) })
	return out, nil
}

// ShowBGPSummary returns BGP peer states.
func (d *Device) ShowBGPSummary() ([]BGPPeerStatus, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.checkUp(); err != nil {
		return nil, err
	}
	out := make([]BGPPeerStatus, 0, len(d.bgpPeers))
	for _, p := range d.bgpPeers {
		out = append(out, *p)
	}
	slices.SortFunc(out, func(a, b BGPPeerStatus) int { return strings.Compare(a.PeerAddr, b.PeerAddr) })
	return out, nil
}

// ShowVersion returns device identity and uptime.
func (d *Device) ShowVersion() (VersionInfo, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.checkUp(); err != nil {
		return VersionInfo{}, err
	}
	return VersionInfo{
		Name:      d.name,
		Vendor:    string(d.vendor),
		OSVersion: d.osVersion,
		UptimeS:   int64(d.now().Sub(d.bootTime).Seconds()),
	}, nil
}

// Counters returns SNMP-style gauges.
func (d *Device) Counters() (map[string]float64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.checkUp(); err != nil {
		return nil, err
	}
	up := 0
	for _, st := range d.ifaces {
		if st.operUp {
			up++
		}
	}
	return map[string]float64{
		// CPU tracks control-plane size plus offered traffic.
		"cpu_util":    10 + d.traffic*50 + float64(len(d.ifaces)),
		"mem_util":    30 + float64(len(d.running))/100000,
		"ifaces_up":   float64(up),
		"ifaces_down": float64(len(d.ifaces) - up),
	}, nil
}

// TrafficLoad returns the device's offered load (0 when drained).
func (d *Device) TrafficLoad() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.traffic
}

// SetTrafficLoad sets offered load; the fleet drives this, deployment's
// drain checks read it.
func (d *Device) SetTrafficLoad(l float64) {
	d.mu.Lock()
	d.traffic = l
	d.mu.Unlock()
}

// --- failure injection ---

// SetDown makes the device unreachable (true) or reachable (false).
func (d *Device) SetDown(down bool) {
	d.mu.Lock()
	d.down = down
	cb := d.onHealth
	d.mu.Unlock()
	if cb != nil {
		cb(d)
	}
}

// Reachable reports whether management operations will succeed.
func (d *Device) Reachable() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return !d.down
}

// Reboot resets uptime and flaps every interface, emitting the critical
// syslog messages a real reboot produces.
func (d *Device) Reboot() {
	d.emit(2, "system", "DEVICE_REBOOT: System reboot requested")
	d.mu.Lock()
	d.bootTime = d.now()
	var flapped []string
	for name, st := range d.ifaces {
		if st.operUp {
			flapped = append(flapped, name)
		}
	}
	cb := d.onHealth
	d.mu.Unlock()
	for _, name := range flapped {
		d.setLink(name, false)
	}
	for _, name := range flapped {
		d.setLink(name, true)
	}
	if cb != nil {
		cb(d)
	}
}

// UpgradeOS installs a new OS version: the device reboots and comes back
// on the new release (the §1 "OS upgrade" task).
func (d *Device) UpgradeOS(version string) {
	d.emit(4, "system", "OS_UPGRADE: installing version %s", version)
	d.mu.Lock()
	d.osVersion = version
	d.mu.Unlock()
	d.Reboot()
}

// RemoveLinecard takes down every interface whose name indicates the given
// slot (et<slot>/N), simulating a linecard pull.
func (d *Device) RemoveLinecard(slot int) {
	d.emit(1, "hw", "LINECARD_REMOVED: Linecard in slot %d removed", slot)
	prefix := fmt.Sprintf("et%d/", slot)
	prefixV2 := fmt.Sprintf("et-%d/", slot)
	d.mu.Lock()
	var affected []string
	for name := range d.ifaces {
		if strings.HasPrefix(name, prefix) || strings.HasPrefix(name, prefixV2) {
			affected = append(affected, name)
		}
	}
	cb := d.onHealth
	d.mu.Unlock()
	for _, name := range affected {
		d.setLink(name, false)
	}
	if cb != nil {
		cb(d)
	}
}
