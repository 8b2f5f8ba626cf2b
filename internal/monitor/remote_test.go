package monitor

import (
	"fmt"
	"testing"
	"time"

	"github.com/robotron-net/robotron/internal/fbnet"
	"github.com/robotron-net/robotron/internal/netsim"
	"github.com/robotron-net/robotron/internal/relstore"
)

var _ DeviceAPI = (*netsim.RemoteDevice)(nil)

// TestMonitoringOverTCP runs the active pipeline with devices reached over
// the management CLI rather than in process — the transport the paper's
// CLI engine actually uses.
func TestMonitoringOverTCP(t *testing.T) {
	fleet := netsim.NewFleet()
	for i := 0; i < 3; i++ {
		d, _ := fleet.AddDevice(fmt.Sprintf("dev%02d", i), netsim.Vendor1, "psw", "pop1")
		d.LoadConfig(fmt.Sprintf("hostname dev%02d\ninterface et1/1\n", i))
		d.Commit()
	}
	fleet.Wire("dev00", "et1/1", "dev01", "et1/1")
	srv, err := fleet.ServeMgmt("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	sessions := map[string]*netsim.RemoteDevice{}
	resolver := func(name string) (DeviceAPI, error) {
		if d, ok := sessions[name]; ok {
			return d, nil
		}
		d, err := netsim.DialDevice(srv.Addr(), name)
		if err != nil {
			return nil, err
		}
		sessions[name] = d
		return d, nil
	}
	defer func() {
		for _, d := range sessions {
			d.Close()
		}
	}()

	db := relstore.NewDB("m")
	store, err := fbnet.Open(db, fbnet.NewCatalog())
	if err != nil {
		t.Fatal(err)
	}
	jm := NewJobManager(resolver)
	ts := NewTimeseriesBackend()
	jm.RegisterBackend(ts)
	jm.RegisterBackend(NewDerivedBackend(store, ts))

	devices := []string{"dev00", "dev01", "dev02"}
	for _, spec := range []JobSpec{
		{Name: "counters", Period: time.Minute, Engine: EngineSNMP, Data: DataCounters,
			Devices: devices, Backends: []string{"timeseries"}},
		{Name: "lldp", Period: time.Minute, Engine: EngineCLI, Data: DataLLDP,
			Devices: devices, Backends: []string{"fbnet-derived"}},
		{Name: "version", Period: time.Minute, Engine: EngineThrift, Data: DataVersion,
			Devices: devices, Backends: []string{"fbnet-derived"}},
	} {
		if _, err := jm.RunOnce(spec); err != nil {
			t.Fatalf("%s over TCP: %v", spec.Name, err)
		}
	}
	if jm.Stats().Errors() != 0 {
		t.Errorf("poll errors over TCP: %d", jm.Stats().Errors())
	}
	if n, _ := store.Count("DerivedDevice"); n != 3 {
		t.Errorf("DerivedDevice = %d", n)
	}
	// LLDP collected over the wire yields the derived circuit.
	n, err := DeriveCircuits(store)
	if err != nil || n != 1 {
		t.Errorf("derived circuits over TCP = %d, %v", n, err)
	}
}
