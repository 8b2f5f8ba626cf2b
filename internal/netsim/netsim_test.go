package netsim

import (
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

const v1Config = `hostname psw-a.pop1
interface ae0
 mtu 9192
 ip addr 10.0.0.0/31
 no shutdown
interface et1/1
 channel-group ae0
 no shutdown
interface et1/2
 channel-group ae0
 no shutdown
router bgp 65001
 neighbor 10.0.0.1 remote-as 65000
`

const v2Config = `system {
 host-name pr1.pop1;
}
interfaces {
ae0 {
 unit 0 {
  family inet {
   addr 10.0.0.1/31
  }
 }
}
replace: et-1/0/1 {
 gigether-options {
  802.3ad ae0;
 }
}
}
protocols {
 bgp {
  neighbor 10.0.0.0 {
  }
 }
}
`

func TestLoadCommitAndParse(t *testing.T) {
	d := NewDevice("psw-a.pop1", Vendor1, "psw", "pop1")
	if err := d.LoadConfig(v1Config); err != nil {
		t.Fatal(err)
	}
	if cfg, _ := d.RunningConfig(); cfg != "" {
		t.Error("running config should be empty before commit")
	}
	if err := d.Commit(); err != nil {
		t.Fatal(err)
	}
	cfg, err := d.RunningConfig()
	if err != nil || cfg != v1Config {
		t.Errorf("running config mismatch: %v", err)
	}
	for _, want := range []string{"ae0", "et1/1", "et1/2"} {
		if !d.HasInterface(want) {
			t.Errorf("interface %s not parsed from config", want)
		}
	}
	peers, _ := d.ShowBGPSummary()
	if len(peers) != 1 || peers[0].PeerAddr != "10.0.0.1" || peers[0].Family != "v4" {
		t.Errorf("bgp peers = %+v", peers)
	}
}

func TestVendor2ConfigParse(t *testing.T) {
	d := NewDevice("pr1.pop1", Vendor2, "pr", "pop1")
	if err := d.LoadConfig(v2Config); err != nil {
		t.Fatal(err)
	}
	if err := d.Commit(); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"ae0", "et-1/0/1"} {
		if !d.HasInterface(want) {
			t.Errorf("interface %s not parsed from vendor2 config", want)
		}
	}
	peers, _ := d.ShowBGPSummary()
	if len(peers) != 1 || peers[0].PeerAddr != "10.0.0.0" {
		t.Errorf("bgp peers = %+v", peers)
	}
}

func TestVendor2SyntaxValidation(t *testing.T) {
	d := NewDevice("pr1", Vendor2, "pr", "pop1")
	if err := d.LoadConfig("interfaces {\nae0 {\n}\n"); err == nil {
		t.Error("unbalanced braces should be rejected")
	}
	if err := d.LoadConfig("}\n"); err == nil {
		t.Error("leading close brace should be rejected")
	}
}

func TestDryrunVendorSplit(t *testing.T) {
	d1 := NewDevice("a", Vendor1, "psw", "pop1")
	d1.LoadConfig("interface ae0\n")
	if _, err := d1.DryrunDiff(); err != ErrNotSupported {
		t.Errorf("vendor1 dryrun: want ErrNotSupported, got %v", err)
	}
	d2 := NewDevice("b", Vendor2, "pr", "pop1")
	d2.LoadConfig("ae0 {\n}\n")
	d2.Commit()
	d2.LoadConfig("ae0 {\n}\nae1 {\n}\n")
	diff, err := d2.DryrunDiff()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(diff, "+ ae1 {") {
		t.Errorf("dryrun diff = %q", diff)
	}
}

func TestRollback(t *testing.T) {
	d := NewDevice("a", Vendor1, "psw", "pop1")
	d.LoadConfig("interface ae0\n")
	d.Commit()
	d.LoadConfig("interface ae1\n")
	d.Commit()
	if err := d.Rollback(); err != nil {
		t.Fatal(err)
	}
	cfg, _ := d.RunningConfig()
	if cfg != "interface ae0\n" {
		t.Errorf("config after rollback = %q", cfg)
	}
	if !d.HasInterface("ae0") || d.HasInterface("ae1") {
		t.Error("state not reparsed after rollback")
	}
	d.Rollback() // back to empty? history had one entry; now empty
	if err := d.Rollback(); err == nil {
		t.Error("rollback past history should fail")
	}
}

func TestCommitConfirmedExpiresAndRollsBack(t *testing.T) {
	d := NewDevice("b", Vendor2, "pr", "pop1")
	// The rollback syslog fires after the timer clears the pending flag,
	// so the test waits for the message itself.
	rolledBack := make(chan struct{}, 1)
	d.SetSyslogSink(func(m SyslogMessage) {
		if strings.Contains(m.Text, "CONFIG_ROLLBACK") {
			select {
			case rolledBack <- struct{}{}:
			default:
			}
		}
	})
	d.LoadConfig("ae0 {\n}\n")
	d.Commit()
	d.LoadConfig("ae1 {\n}\n")
	if err := d.CommitConfirmed(30 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if !d.ConfirmPending() {
		t.Error("confirm timer should be armed")
	}
	cfg, _ := d.RunningConfig()
	if !strings.Contains(cfg, "ae1") {
		t.Error("new config should be active during grace period")
	}
	deadline := time.Now().Add(2 * time.Second)
	for d.ConfirmPending() && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	cfg, _ = d.RunningConfig()
	if !strings.Contains(cfg, "ae0") || strings.Contains(cfg, "ae1") {
		t.Errorf("config after expiry = %q, want rollback to ae0", cfg)
	}
	select {
	case <-rolledBack:
	case <-time.After(2 * time.Second):
		t.Error("rollback syslog not emitted")
	}
}

func TestCommitConfirmedConfirmed(t *testing.T) {
	d := NewDevice("b", Vendor2, "pr", "pop1")
	d.LoadConfig("ae0 {\n}\n")
	d.Commit()
	d.LoadConfig("ae1 {\n}\n")
	if err := d.CommitConfirmed(50 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := d.Confirm(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)
	cfg, _ := d.RunningConfig()
	if !strings.Contains(cfg, "ae1") {
		t.Errorf("confirmed config rolled back anyway: %q", cfg)
	}
	if err := d.Confirm(); err == nil {
		t.Error("double confirm should fail")
	}
	// Vendor1 has no native commit-confirmed.
	d1 := NewDevice("a", Vendor1, "psw", "pop1")
	d1.LoadConfig("interface ae0\n")
	if err := d1.CommitConfirmed(time.Second); err != ErrNotSupported {
		t.Errorf("vendor1 commit-confirmed: want ErrNotSupported, got %v", err)
	}
}

func TestUnreachableDevice(t *testing.T) {
	d := NewDevice("a", Vendor1, "psw", "pop1")
	d.SetDown(true)
	if _, err := d.RunningConfig(); err == nil {
		t.Error("operations on a down device should fail")
	}
	if err := d.LoadConfig("x"); err == nil {
		t.Error("LoadConfig on a down device should fail")
	}
	d.SetDown(false)
	if err := d.LoadConfig("interface ae0\n"); err != nil {
		t.Error(err)
	}
}

func TestManualChangeEmitsSyslog(t *testing.T) {
	d := NewDevice("a", Vendor1, "psw", "pop1")
	var got []SyslogMessage
	var mu sync.Mutex
	d.SetSyslogSink(func(m SyslogMessage) { mu.Lock(); got = append(got, m); mu.Unlock() })
	d.LoadConfig("interface ae0\n")
	d.Commit()
	if err := d.ApplyManualChange("snmp-server community public"); err != nil {
		t.Fatal(err)
	}
	cfg, _ := d.RunningConfig()
	if !strings.Contains(cfg, "snmp-server community public") {
		t.Error("manual change not applied")
	}
	mu.Lock()
	defer mu.Unlock()
	var sawChange int
	for _, m := range got {
		if strings.Contains(m.Text, "CONFIG_CHANGED") {
			sawChange++
		}
	}
	if sawChange < 2 { // commit + manual change
		t.Errorf("CONFIG_CHANGED syslogs = %d, want >= 2", sawChange)
	}
}

// TestEraseLogsOnlyWhatItChanged: erasing a blank device changes no
// configuration and raises no syslog (a turn-up's first step must not be
// checked as drift against the golden it is about to install); erasing a
// configured one raises exactly one CONFIG_CHANGED.
func TestEraseLogsOnlyWhatItChanged(t *testing.T) {
	d := NewDevice("a", Vendor1, "psw", "pop1")
	var got []SyslogMessage
	var mu sync.Mutex
	d.SetSyslogSink(func(m SyslogMessage) { mu.Lock(); got = append(got, m); mu.Unlock() })
	drain := func() []SyslogMessage {
		mu.Lock()
		defer mu.Unlock()
		out := got
		got = nil
		return out
	}

	if err := d.EraseConfig(); err != nil {
		t.Fatal(err)
	}
	if msgs := drain(); len(msgs) != 0 {
		t.Errorf("erasing a blank device logged %v, want nothing", msgs)
	}

	d.LoadConfig("interface ae0\n")
	if err := d.Commit(); err != nil {
		t.Fatal(err)
	}
	drain()
	if err := d.EraseConfig(); err != nil {
		t.Fatal(err)
	}
	msgs := drain()
	if len(msgs) != 1 || !strings.Contains(msgs[0].Text, "CONFIG_CHANGED") {
		t.Errorf("erasing a configured device logged %v, want one CONFIG_CHANGED", msgs)
	}
	if cfg, _ := d.RunningConfig(); cfg != "" {
		t.Errorf("running config after erase = %q, want empty", cfg)
	}
}

func TestFleetWiringDrivesLinkState(t *testing.T) {
	f := NewFleet()
	a, _ := f.AddDevice("psw-a.pop1", Vendor1, "psw", "pop1")
	z, _ := f.AddDevice("pr1.pop1", Vendor2, "pr", "pop1")
	if _, err := f.AddDevice("psw-a.pop1", Vendor1, "psw", "pop1"); err == nil {
		t.Error("duplicate device should fail")
	}
	a.LoadConfig("interface et1/1\n")
	a.Commit()
	// Cable before the far side has config: link stays down.
	if err := f.Wire("psw-a.pop1", "et1/1", "pr1.pop1", "et-1/0/1"); err != nil {
		t.Fatal(err)
	}
	ifs, _ := a.ShowInterfaces()
	if ifs[0].OperStatus != "down" {
		t.Error("link should be down while far side is unconfigured")
	}
	// Far side commits its config: link comes up on both ends.
	z.LoadConfig("et-1/0/1 {\n}\n")
	z.Commit()
	ifs, _ = a.ShowInterfaces()
	if ifs[0].OperStatus != "up" {
		t.Error("link should come up once both ends are configured")
	}
	// LLDP reflects the adjacency.
	nbrs, _ := a.ShowLLDPNeighbors()
	if len(nbrs) != 1 || nbrs[0].NeighborDevice != "pr1.pop1" || nbrs[0].NeighborInterface != "et-1/0/1" {
		t.Errorf("lldp = %+v", nbrs)
	}
	nbrs, _ = z.ShowLLDPNeighbors()
	if len(nbrs) != 1 || nbrs[0].NeighborDevice != "psw-a.pop1" {
		t.Errorf("far side lldp = %+v", nbrs)
	}
	// Device failure takes the link down.
	z.SetDown(true)
	f.Recompute()
	ifs, _ = a.ShowInterfaces()
	if ifs[0].OperStatus != "up" {
		// a's view: link down because far side is down
	}
	if ifs[0].OperStatus == "up" {
		t.Error("link should drop when the far device dies")
	}
	// Fiber cut.
	z.SetDown(false)
	f.Recompute()
	if !f.Uncable("psw-a.pop1", "et1/1") {
		t.Fatal("uncable failed")
	}
	ifs, _ = a.ShowInterfaces()
	if ifs[0].OperStatus != "down" {
		t.Error("link should be down after uncabling")
	}
	if f.Uncable("psw-a.pop1", "et1/1") {
		t.Error("double uncable should return false")
	}
}

func TestWireValidation(t *testing.T) {
	f := NewFleet()
	f.AddDevice("a", Vendor1, "psw", "s")
	f.AddDevice("b", Vendor1, "psw", "s")
	f.AddDevice("c", Vendor1, "psw", "s")
	if err := f.Wire("a", "et1/1", "missing", "et1/1"); err == nil {
		t.Error("unknown device should fail")
	}
	if err := f.Wire("a", "et1/1", "b", "et1/1"); err != nil {
		t.Fatal(err)
	}
	if err := f.Wire("c", "et9/9", "a", "et1/1"); err == nil {
		t.Error("double-cabling a port should fail")
	}
}

func TestBGPStateFollowsConfigs(t *testing.T) {
	f := NewFleet()
	a, _ := f.AddDevice("a", Vendor1, "psw", "pop1")
	b, _ := f.AddDevice("b", Vendor1, "pr", "pop1")
	a.LoadConfig("interface ae0\n ip addr 10.0.0.0/31\nrouter bgp 65001\n neighbor 10.0.0.1 remote-as 65000\n")
	a.Commit()
	peers, _ := a.ShowBGPSummary()
	if peers[0].State != "Active" {
		t.Errorf("session should be Active before far side exists, got %s", peers[0].State)
	}
	b.LoadConfig("interface ae0\n ip addr 10.0.0.1/31\nrouter bgp 65000\n neighbor 10.0.0.0 remote-as 65001\n")
	b.Commit()
	peers, _ = a.ShowBGPSummary()
	if peers[0].State != "Established" {
		t.Errorf("session should Establish once far side configures the address, got %s", peers[0].State)
	}
}

func TestRebootAndLinecardFailures(t *testing.T) {
	f := NewFleet()
	d, _ := f.AddDevice("a", Vendor1, "psw", "pop1")
	var msgs []SyslogMessage
	var mu sync.Mutex
	d.SetSyslogSink(func(m SyslogMessage) { mu.Lock(); msgs = append(msgs, m); mu.Unlock() })
	d.LoadConfig("interface et1/1\ninterface et2/1\n")
	d.Commit()
	v1, _ := d.ShowVersion()
	time.Sleep(10 * time.Millisecond)
	d.Reboot()
	v2, _ := d.ShowVersion()
	if v2.UptimeS > v1.UptimeS+1 {
		t.Errorf("uptime not reset: %d -> %d", v1.UptimeS, v2.UptimeS)
	}
	d.RemoveLinecard(1)
	mu.Lock()
	defer mu.Unlock()
	var sawReboot, sawLinecard bool
	for _, m := range msgs {
		if strings.Contains(m.Text, "DEVICE_REBOOT") {
			sawReboot = true
		}
		if strings.Contains(m.Text, "LINECARD_REMOVED") {
			sawLinecard = true
		}
	}
	if !sawReboot || !sawLinecard {
		t.Errorf("failure syslogs missing: reboot=%v linecard=%v", sawReboot, sawLinecard)
	}
}

func TestCountersAdvance(t *testing.T) {
	f := NewFleet()
	a, _ := f.AddDevice("a", Vendor1, "psw", "pop1")
	b, _ := f.AddDevice("b", Vendor1, "psw", "pop1")
	a.LoadConfig("interface et1/1\n")
	a.Commit()
	b.LoadConfig("interface et1/1\n")
	b.Commit()
	f.Wire("a", "et1/1", "b", "et1/1")
	ifs1, _ := a.ShowInterfaces()
	time.Sleep(20 * time.Millisecond)
	ifs2, _ := a.ShowInterfaces()
	if ifs2[0].InOctets <= ifs1[0].InOctets {
		t.Errorf("octets did not advance: %d -> %d", ifs1[0].InOctets, ifs2[0].InOctets)
	}
	c, err := a.Counters()
	if err != nil || c["cpu_util"] <= 0 {
		t.Errorf("counters = %v, %v", c, err)
	}
}

func TestSyslogFormatRoundTrip(t *testing.T) {
	in := SyslogMessage{
		Severity: 4, Host: "pr1.pop1", App: "link",
		Text: "LINK_STATE: Interface ae0 changed state to down",
		Time: time.Date(2026, 7, 6, 12, 0, 0, 0, time.UTC),
	}
	out, err := ParseSyslog(in.Format())
	if err != nil {
		t.Fatal(err)
	}
	if out.Severity != in.Severity || out.Host != in.Host || out.App != in.App || out.Text != in.Text || !out.Time.Equal(in.Time) {
		t.Errorf("round trip mismatch:\nin:  %+v\nout: %+v", in, out)
	}
	if _, err := ParseSyslog("garbage"); err == nil {
		t.Error("malformed line should fail")
	}
}

// Property: formatting then parsing preserves severity for all severities
// and arbitrary single-line text.
func TestQuickSyslogRoundTrip(t *testing.T) {
	f := func(sev uint8, text string) bool {
		if strings.ContainsAny(text, "\n\r") {
			return true
		}
		in := SyslogMessage{
			Severity: int(sev % 8), Host: "h", App: "app",
			Text: text, Time: time.Unix(1700000000, 0),
		}
		out, err := ParseSyslog(in.Format())
		return err == nil && out.Severity == in.Severity && out.Text == in.Text
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestUDPSyslogDelivery(t *testing.T) {
	pc, err := listenUDP(t)
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	got := make(chan string, 1)
	go func() {
		buf := make([]byte, 64<<10)
		n, _, err := pc.ReadFrom(buf)
		if err == nil {
			got <- string(buf[:n])
		}
	}()
	sink, err := UDPSyslogSink(pc.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	d := NewDevice("a", Vendor1, "psw", "pop1")
	d.SetSyslogSink(sink)
	d.LoadConfig("interface ae0\n")
	d.Commit()
	select {
	case line := <-got:
		m, err := ParseSyslog(line)
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		if m.Host != "a" || !strings.Contains(m.Text, "CONFIG_CHANGED") {
			t.Errorf("message = %+v", m)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no syslog datagram received")
	}
}

func TestMgmtServerEndToEnd(t *testing.T) {
	f := NewFleet()
	d, _ := f.AddDevice("pr1.pop1", Vendor2, "pr", "pop1")
	_ = d
	srv, err := f.ServeMgmt("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c, err := DialMgmt(srv.Addr(), "pr1.pop1")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.LoadConfig(v2Config); err != nil {
		t.Fatal(err)
	}
	if diff, err := c.Do("compare"); err != nil || !strings.Contains(diff, "+ ae0 {") {
		t.Errorf("compare = %q, %v", diff, err)
	}
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	cfg, err := c.RunningConfig()
	if err != nil || cfg != v2Config {
		t.Errorf("running config over TCP mismatch: %v", err)
	}
	ifs, err := c.ShowInterfaces()
	if err != nil || len(ifs) != 2 {
		t.Errorf("interfaces over TCP = %+v, %v", ifs, err)
	}
	if _, err := c.Do("show bogus"); err == nil {
		t.Error("unknown command should fail")
	}
	if _, err := DialMgmt(srv.Addr(), "nonexistent"); err == nil {
		t.Error("selecting unknown device should fail")
	}
}

func TestMgmtNoDeviceSelected(t *testing.T) {
	f := NewFleet()
	f.AddDevice("a", Vendor1, "psw", "pop1")
	srv, err := f.ServeMgmt("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := &MgmtClient{}
	_ = c
	conn, err := dialTCP(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	cl := newRawClient(conn)
	if _, err := cl.Do("show version"); err == nil {
		t.Error("command without device selection should fail")
	}
}

// TestInjectRunningConfig: the out-of-band mutation replaces the running
// config directly (no candidate/commit), reparses it, and emits a
// CONFIG_CHANGED syslog so monitoring can notice.
func TestInjectRunningConfig(t *testing.T) {
	f := NewFleet()
	d, _ := f.AddDevice("psw1.pop1", Vendor1, "psw", "pop1")
	if err := d.LoadConfig("hostname psw1.pop1\ninterface et1/1\n"); err != nil {
		t.Fatal(err)
	}
	if err := d.Commit(); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var msgs []SyslogMessage
	d.SetSyslogSink(func(m SyslogMessage) { mu.Lock(); msgs = append(msgs, m); mu.Unlock() })

	injected := "hostname psw1.pop1\ninterface et1/1\ninterface et9/9\n"
	if err := d.InjectRunningConfig(injected); err != nil {
		t.Fatal(err)
	}
	if got, _ := d.RunningConfig(); got != injected {
		t.Errorf("running = %q, want injected config", got)
	}
	// The injected config was reparsed into device state.
	if !d.HasInterface("et9/9") {
		t.Error("injected interface not parsed")
	}
	mu.Lock()
	found := false
	for _, m := range msgs {
		if strings.Contains(m.Text, "CONFIG_CHANGED") && strings.Contains(m.Text, "out-of-band") {
			found = true
		}
	}
	mu.Unlock()
	if !found {
		t.Errorf("no out-of-band CONFIG_CHANGED syslog: %v", msgs)
	}
	// The previous running config is in history: rollback restores it.
	if err := d.Rollback(); err != nil {
		t.Fatal(err)
	}
	if got, _ := d.RunningConfig(); got != "hostname psw1.pop1\ninterface et1/1\n" {
		t.Errorf("rollback after injection = %q", got)
	}
	// Unreachable devices cannot be mutated.
	d.SetDown(true)
	if err := d.InjectRunningConfig("x\n"); err == nil {
		t.Error("InjectRunningConfig on a down device must error")
	}
}
