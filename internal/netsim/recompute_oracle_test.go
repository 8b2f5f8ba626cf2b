package netsim

// RecomputeFull is the reference oracle: the pre-incremental full-fleet
// derivation pass that rebuilds every link, LLDP table, and BGP session
// from scratch without consulting the incremental indexes. It lives in
// a test file so production does not ship it; the incremental engine is
// property-tested against it in incremental_test.go (any state the
// incremental path settles must be a fixed point of RecomputeFull).
func (f *Fleet) RecomputeFull() {
	f.recomputeMu.Lock()
	defer f.recomputeMu.Unlock()
	f.mu.Lock()
	cables := append([]cable(nil), f.cables...)
	devs := make(map[string]*Device, len(f.devices))
	for n, d := range f.devices {
		devs[n] = d
	}
	f.mu.Unlock()

	lldp := make(map[string][]LLDPNeighbor)
	cabled := make(map[string]map[string]bool) // device -> iface -> cabled
	for _, c := range cables {
		a, z := devs[c.aDev], devs[c.zDev]
		if a == nil || z == nil {
			continue
		}
		up := a.Reachable() && z.Reachable() && a.HasInterface(c.aIf) && z.HasInterface(c.zIf)
		a.setLink(c.aIf, up)
		z.setLink(c.zIf, up)
		if cabled[c.aDev] == nil {
			cabled[c.aDev] = map[string]bool{}
		}
		if cabled[c.zDev] == nil {
			cabled[c.zDev] = map[string]bool{}
		}
		cabled[c.aDev][c.aIf] = true
		cabled[c.zDev][c.zIf] = true
		if up {
			lldp[c.aDev] = append(lldp[c.aDev], LLDPNeighbor{
				LocalInterface: c.aIf, NeighborDevice: c.zDev, NeighborInterface: c.zIf,
			})
			lldp[c.zDev] = append(lldp[c.zDev], LLDPNeighbor{
				LocalInterface: c.zIf, NeighborDevice: c.aDev, NeighborInterface: c.aIf,
			})
		}
	}
	for name, d := range devs {
		d.setLLDP(lldp[name])
		// Uncabled configured interfaces stay down.
		if d.Reachable() {
			ifaces, err := d.ShowInterfaces()
			if err == nil {
				for _, st := range ifaces {
					if !cabled[name][st.Name] {
						d.setLink(st.Name, false)
					}
				}
			}
		}
	}
	recomputeBGPFull(devs)
}

// recomputeBGPFull moves each configured session to Established when the
// peer address is an address token of another reachable device's running
// config (e.g. one of its interface addresses), and to Active otherwise.
// Matching is by exact token, not substring: a session to 10.0.0.1 is not
// established by a device that only owns 10.0.0.12.
func recomputeBGPFull(devs map[string]*Device) {
	owned := make(map[*Device]map[string]struct{}, len(devs))
	for _, d := range devs {
		// Internal simulation bookkeeping, not a management operation:
		// bypass the fault hook so chaos policies neither fail the
		// recompute nor have their schedules perturbed by it.
		if cfg, err := d.runningConfigOp(); err == nil {
			set := make(map[string]struct{})
			for _, t := range addrTokens(cfg) {
				set[t] = struct{}{}
			}
			owned[d] = set
		}
	}
	for _, d := range devs {
		if !d.Reachable() {
			continue
		}
		peers, err := d.ShowBGPSummary()
		if err != nil {
			continue
		}
		for _, p := range peers {
			state := "Active"
			if p.PeerAddr != "" {
				for other, toks := range owned {
					if other == d {
						continue
					}
					if _, ok := toks[p.PeerAddr]; ok {
						state = "Established"
						break
					}
				}
			}
			d.setBGP(p.PeerAddr, state)
		}
	}
}
