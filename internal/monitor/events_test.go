package monitor

import (
	"testing"

	"github.com/robotron-net/robotron/internal/fbnet"
	"github.com/robotron-net/robotron/internal/netsim"
	"github.com/robotron-net/robotron/internal/relstore"
)

func TestRecordEventsPopulatesOperationalEvents(t *testing.T) {
	db := relstore.NewDB("m", nil)
	store, err := fbnet.Open(db, fbnet.NewCatalog())
	if err != nil {
		t.Fatal(err)
	}
	cls := NewClassifier()
	StandardRules(cls)
	RecordEvents(cls, store)

	d := netsim.NewDevice("psw1", netsim.Vendor1, "psw", "pop1")
	d.SetSyslogSink(func(m netsim.SyslogMessage) { cls.Process(m) })
	d.LoadConfig("interface et1/1\ninterface et2/1\n")
	d.Commit()          // NOTICE: config-changed
	d.Reboot()          // CRITICAL: device-reboot
	d.RemoveLinecard(1) // MAJOR: linecard-removed (no cabled links, so no flap)

	events, err := store.Find("OperationalEvent", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) < 3 {
		t.Fatalf("events recorded = %d, want >= 3", len(events))
	}
	byKind := map[string]int{}
	for _, e := range events {
		if e.String("device_name") != "psw1" {
			t.Errorf("event device = %q", e.String("device_name"))
		}
		byKind[e.String("kind")]++
	}
	for _, want := range []string{"config-changed", "device-reboot", "linecard-removed"} {
		if byKind[want] == 0 {
			t.Errorf("no %s event recorded (%v)", want, byKind)
		}
	}
	// Ignored noise must not be recorded.
	before, _ := store.Count("OperationalEvent")
	cls.Process(netsim.SyslogMessage{Severity: 6, Host: "psw1", App: "x", Text: "LSP change noise"})
	after, _ := store.Count("OperationalEvent")
	if after != before {
		t.Error("ignored message recorded as an event")
	}
	// Events are queryable by urgency, the §4.1.1 use case.
	criticals, err := store.Find("OperationalEvent", fbnet.Eq("urgency", "CRITICAL"))
	if err != nil {
		t.Fatal(err)
	}
	if len(criticals) != 1 {
		t.Errorf("critical events = %d", len(criticals))
	}
}
