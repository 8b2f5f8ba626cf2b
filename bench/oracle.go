package main

import (
	"strings"

	"github.com/robotron-net/robotron/internal/configgen"
	"github.com/robotron-net/robotron/internal/monitor"
)

// The oracles read outcomes where the pipeline cannot have tidied them:
// device state through netsim's out-of-band accessors, goldens straight
// from the revision store, alarms from the engine's snapshot.

// checkGolden: every device runs exactly its golden config.
func (h *harness) checkGolden(devices []string) {
	for _, name := range devices {
		d, ok := h.w.r.Fleet.Device(name)
		if !ok {
			h.failf("%s is not in the fleet", name)
			continue
		}
		golden, err := h.w.r.Repo.GetHead(configgen.GoldenPath(name))
		if err != nil {
			h.failf("%s has no golden: %v", name, err)
			continue
		}
		if d.PeekRunningConfig() != golden {
			h.failf("%s is not running its golden", name)
		}
	}
}

// checkSessions: the device shows exactly `want` BGP sessions, all
// established — both ends of every new link took their config.
func (h *harness) checkSessions(name string, want int) {
	d, ok := h.w.r.Fleet.Device(name)
	if !ok {
		h.failf("%s is not in the fleet", name)
		return
	}
	peers, err := d.ShowBGPSummary()
	if err != nil {
		h.failf("%s: show bgp summary: %v", name, err)
		return
	}
	if len(peers) != want {
		h.failf("%s has %d BGP peers, want %d", name, len(peers), want)
	}
	for _, p := range peers {
		if p.State != "Established" {
			h.failf("%s session to %s is %s", name, p.PeerAddr, p.State)
		}
	}
}

// checkQuiet: no alarm fires on a device the change touched. Flat octet
// counters on a drained device are the drain working, not a false alarm.
func (h *harness) checkQuiet(firing []monitor.Alarm, devices []string) {
	touched := make(map[string]bool, len(devices))
	for _, d := range devices {
		touched[d] = true
	}
	for _, al := range firing {
		if al.Rule == "flatline-octets" && h.drained[al.Device] {
			continue
		}
		if touched[al.Device] {
			h.failf("alarm %s firing on %s after the change: %s", al.Rule, al.Device, al.Detail)
		}
	}
}

// checkLinkUp: both ends of the circuit show their interface up, which
// netsim grants only when the cable is in place and both running configs
// carry the port.
func (h *harness) checkLinkUp(circuit int64) {
	c, err := h.w.r.Store.GetByID("Circuit", circuit)
	if err != nil {
		h.failf("circuit %d: %v", circuit, err)
		return
	}
	for _, end := range strings.Split(c.String("circuit_id"), "--") {
		dev, ifc, _ := strings.Cut(end, ":")
		d, ok := h.w.r.Fleet.Device(dev)
		if !ok {
			h.failf("%s is not in the fleet", dev)
			continue
		}
		ifaces, err := d.ShowInterfaces()
		if err != nil {
			h.failf("%s: show interfaces: %v", dev, err)
			continue
		}
		up := false
		for _, st := range ifaces {
			if st.Name == ifc && st.OperStatus == "up" {
				up = true
			}
		}
		if !up {
			h.failf("%s %s is not up after the change", dev, ifc)
		}
	}
}
