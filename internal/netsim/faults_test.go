package netsim

import (
	"errors"
	"strings"
	"testing"
	"time"

	"github.com/robotron-net/robotron/internal/vclock"
)

// faultSchedule runs n commits against a fresh device under policy p and
// records which ones failed and how.
func faultSchedule(p *FaultPolicy, n int) []string {
	d := NewDevice("psw-a.pop1", Vendor1, "psw", "pop1")
	d.SetFaultPolicy(p)
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		if err := d.LoadConfig(v1Config); err != nil {
			out = append(out, "load:"+errKind(err))
			continue
		}
		if err := d.Commit(); err != nil {
			out = append(out, "commit:"+errKind(err))
			continue
		}
		out = append(out, "ok")
	}
	return out
}

func errKind(err error) string {
	switch {
	case errors.Is(err, ErrInjectedTransient):
		return "transient"
	case errors.Is(err, ErrConnDropped):
		return "dropped"
	case errors.Is(err, ErrGarbledReply):
		return "garbled"
	default:
		return "other"
	}
}

func chaosPolicy(seed int64) *FaultPolicy {
	p := NewFaultPolicy(seed)
	p.Add(FaultRule{Kind: FaultTransient, Probability: 0.3})
	p.Add(FaultRule{Kind: FaultDropBefore, Probability: 0.15})
	p.Add(FaultRule{Kind: FaultDropAfter, Probability: 0.15})
	return p
}

func TestFaultScheduleDeterministic(t *testing.T) {
	a := faultSchedule(chaosPolicy(42), 200)
	b := faultSchedule(chaosPolicy(42), 200)
	c := faultSchedule(chaosPolicy(43), 200)
	if strings.Join(a, ",") != strings.Join(b, ",") {
		t.Fatal("same seed produced different fault schedules")
	}
	if strings.Join(a, ",") == strings.Join(c, ",") {
		t.Fatal("different seeds produced identical fault schedules (suspicious)")
	}
	failed := 0
	for _, s := range a {
		if s != "ok" {
			failed++
		}
	}
	if failed == 0 || failed == len(a) {
		t.Fatalf("schedule should mix successes and failures, got %d/%d failed", failed, len(a))
	}
}

func TestFaultDropBeforeLeavesConfigUntouched(t *testing.T) {
	d := NewDevice("a", Vendor1, "psw", "pop1")
	p := NewFaultPolicy(1)
	p.Add(FaultRule{Kind: FaultDropBefore, Probability: 1, Verbs: []string{"commit"}, MaxCount: 1})
	d.SetFaultPolicy(p)
	if err := d.LoadConfig(v1Config); err != nil {
		t.Fatal(err)
	}
	err := d.Commit()
	if !errors.Is(err, ErrConnDropped) {
		t.Fatalf("commit = %v, want ErrConnDropped", err)
	}
	if cfg, _ := d.RunningConfig(); cfg != "" {
		t.Error("drop-before must not apply the commit")
	}
	// Candidate survives; the retry commits clean once the rule is spent.
	if err := d.Commit(); err != nil {
		t.Fatalf("retry commit: %v", err)
	}
	if cfg, _ := d.RunningConfig(); cfg != v1Config {
		t.Error("retry did not apply the config")
	}
}

func TestFaultDropAfterAppliesConfig(t *testing.T) {
	d := NewDevice("a", Vendor1, "psw", "pop1")
	p := NewFaultPolicy(1)
	p.Add(FaultRule{Kind: FaultDropAfter, Probability: 1, Verbs: []string{"commit"}, MaxCount: 1})
	d.SetFaultPolicy(p)
	if err := d.LoadConfig(v1Config); err != nil {
		t.Fatal(err)
	}
	err := d.Commit()
	if !errors.Is(err, ErrConnDropped) {
		t.Fatalf("commit = %v, want ErrConnDropped", err)
	}
	if cfg, _ := d.RunningConfig(); cfg != v1Config {
		t.Error("drop-after must apply the commit before losing the reply — that's what makes it ambiguous")
	}
}

func TestFaultGarbledCorruptsReply(t *testing.T) {
	d := NewDevice("a", Vendor1, "psw", "pop1")
	if err := d.LoadConfig(v1Config); err != nil {
		t.Fatal(err)
	}
	if err := d.Commit(); err != nil {
		t.Fatal(err)
	}
	p := NewFaultPolicy(1)
	p.Add(FaultRule{Kind: FaultGarbled, Probability: 1, Verbs: []string{"show running-config"}, MaxCount: 1})
	d.SetFaultPolicy(p)
	body, err := d.RunningConfig()
	if !errors.Is(err, ErrGarbledReply) {
		t.Fatalf("RunningConfig err = %v, want ErrGarbledReply", err)
	}
	if body == v1Config {
		t.Error("garbled reply should not equal the true config")
	}
	// Device state is intact: the next read is clean.
	if body, err := d.RunningConfig(); err != nil || body != v1Config {
		t.Errorf("second read = %q, %v", body, err)
	}
}

func TestFaultRebootAfterCommit(t *testing.T) {
	d := NewDevice("a", Vendor1, "psw", "pop1")
	p := NewFaultPolicy(1)
	p.Add(FaultRule{Kind: FaultReboot, Probability: 1, Verbs: []string{"commit"}, MaxCount: 1})
	d.SetFaultPolicy(p)
	if err := d.LoadConfig(v1Config); err != nil {
		t.Fatal(err)
	}
	if err := d.Commit(); err != nil {
		t.Fatalf("reboot fault must not fail the commit itself: %v", err)
	}
	if cfg, _ := d.RunningConfig(); cfg != v1Config {
		t.Error("config must survive the reboot (it was committed)")
	}
	if got := p.Counts()[FaultReboot]; got != 1 {
		t.Errorf("reboot injections = %d, want 1", got)
	}
}

func TestFaultPolicyMaxCountAndDisable(t *testing.T) {
	d := NewDevice("a", Vendor1, "psw", "pop1")
	p := NewFaultPolicy(7)
	p.Add(FaultRule{Kind: FaultTransient, Probability: 1, MaxCount: 2})
	d.SetFaultPolicy(p)
	fails := 0
	for i := 0; i < 5; i++ {
		if err := d.LoadConfig(v1Config); err != nil {
			fails++
		}
	}
	if fails != 2 {
		t.Errorf("MaxCount=2 rule fired %d times", fails)
	}
	p.SetDisabled(true)
	p.Add(FaultRule{Kind: FaultTransient, Probability: 1})
	if err := d.LoadConfig(v1Config); err != nil {
		t.Errorf("disabled policy still injecting: %v", err)
	}
	if p.Total() != 2 {
		t.Errorf("Total() = %d, want 2", p.Total())
	}
	if s := p.String(); !strings.Contains(s, "seed=7") || !strings.Contains(s, "transient") {
		t.Errorf("String() = %q", s)
	}
}

func TestMgmtTCPConnDropAndRedial(t *testing.T) {
	f := NewFleet(vclock.RealClock())
	f.AddDevice("pr1.pop1", Vendor2, "pr", "pop1")
	p := NewFaultPolicy(3)
	p.Add(FaultRule{Kind: FaultDropAfter, Probability: 1, Verbs: []string{"commit"}, MaxCount: 1})
	f.SetFaultPolicy(p)
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
	if err := c.Commit(); !errors.Is(err, ErrConnDropped) {
		t.Fatalf("commit over TCP = %v, want ErrConnDropped", err)
	}
	// The drop was injected *after* apply: the device runs the config,
	// and the client transparently redials to read it back.
	cfg, err := c.RunningConfig()
	if err != nil {
		t.Fatalf("post-drop readback: %v", err)
	}
	if cfg != v2Config {
		t.Error("drop-after over TCP should have applied the commit")
	}
}

func TestMgmtTCPGarbledReply(t *testing.T) {
	f := NewFleet(vclock.RealClock())
	f.AddDevice("pr1.pop1", Vendor2, "pr", "pop1")
	p := NewFaultPolicy(3)
	p.Add(FaultRule{Kind: FaultGarbled, Probability: 1, Verbs: []string{"show running-config"}, MaxCount: 1})
	f.SetFaultPolicy(p)
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
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RunningConfig(); !errors.Is(err, ErrGarbledReply) {
		t.Fatalf("garbled read = %v, want ErrGarbledReply", err)
	}
	if cfg, err := c.RunningConfig(); err != nil || cfg != v2Config {
		t.Errorf("clean retry after garble = %v (len %d)", err, len(cfg))
	}
}

func TestMgmtClientDeadlineTimeout(t *testing.T) {
	f := NewFleet(vclock.RealClock())
	f.AddDevice("pr1.pop1", Vendor2, "pr", "pop1")
	p := NewFaultPolicy(3)
	p.Add(FaultRule{Kind: FaultLatency, Probability: 1, Latency: 300 * time.Millisecond, Verbs: []string{"show running-config"}, MaxCount: 1})
	f.SetFaultPolicy(p)
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
	c.SetOpTimeout(50 * time.Millisecond)
	if _, err := c.RunningConfig(); !errors.Is(err, ErrTimeout) {
		t.Fatalf("slow reply = %v, want ErrTimeout", err)
	}
	// The timed-out session is broken; the next op must redial and work.
	c.SetOpTimeout(2 * time.Second)
	if _, err := c.RunningConfig(); err != nil {
		t.Fatalf("post-timeout redial: %v", err)
	}
}
