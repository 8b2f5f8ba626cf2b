package configgen

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/robotron-net/robotron/internal/fbnet"
	"github.com/robotron-net/robotron/internal/revctl"
	"github.com/robotron-net/robotron/internal/telemetry"
	"github.com/robotron-net/robotron/internal/thriftlite"
	"github.com/robotron-net/robotron/internal/tmpl"
	"github.com/robotron-net/robotron/internal/vendorcfg"
)

// Generator builds vendor-specific device configs from FBNet objects
// (Fig. 10): fetch related objects, derive the per-device Thrift data
// object, combine with the vendor template.
type Generator struct {
	store  *fbnet.Store
	repo   *revctl.Repo
	intent Intent

	mu    sync.Mutex
	cache map[string]*tmpl.Template // template path+hash -> parsed template

	// followMu serializes follow (memo.go); memoMu guards the memoization
	// layer: cached derivations and rendered configs, and the stamps they
	// are current at. Work counters live on the telemetry registry
	// (metrics field) and are atomic.
	followMu sync.Mutex
	memoMu   sync.Mutex
	derived  map[string]*deriveEntry // device name -> memoized derivation
	stamp    uint64                  // intent model stamp followed so far
	rebuilt  uint64                  // stamp of the last model rebuild followed
	dropped  map[string]uint64       // device name -> stamp of the follow that last dropped it
	rendered map[string]string       // template hash + wire hash -> config

	// metrics is bound to the registry the generator was built with.
	metrics genMetrics

	// SyslogTarget is stamped into generated configs as the logging host.
	SyslogTarget string
}

// genMetrics holds the generator's registry-backed counters; on a nil
// registry every field is nil and counts nothing.
type genMetrics struct {
	derives    *telemetry.Counter
	deriveHits *telemetry.Counter
	renders    *telemetry.Counter
	renderHits *telemetry.Counter
	roundTrips *telemetry.Counter
	deviceSec  *telemetry.Histogram
}

func bindGenMetrics(reg *telemetry.Registry) genMetrics {
	reg.Help("robotron_generate_derives_total", "full derivations executed")
	reg.Help("robotron_generate_derive_hits_total", "derivations answered from the memo cache")
	reg.Help("robotron_generate_renders_total", "template renders executed")
	reg.Help("robotron_generate_render_hits_total", "renders answered from the rendered-config cache")
	reg.Help("robotron_generate_roundtrips_total", "thrift wire round-trips decoded before a render")
	reg.Help("robotron_generate_device_seconds", "per-device config generation latency")
	return genMetrics{
		derives:    reg.Counter("robotron_generate_derives_total"),
		deriveHits: reg.Counter("robotron_generate_derive_hits_total"),
		renders:    reg.Counter("robotron_generate_renders_total"),
		renderHits: reg.Counter("robotron_generate_render_hits_total"),
		roundTrips: reg.Counter("robotron_generate_roundtrips_total"),
		deviceSec:  reg.Histogram("robotron_generate_device_seconds"),
	}
}

// NewGenerator creates a generator over an FBNet store and a config
// repository, seeding the built-in vendor templates if the repository does
// not hold them yet. Its derivation memo follows intent, a resident model
// of the same store (memo.go). It counts its work into reg (Stats reads
// those counters; on a nil registry it counts nothing and Stats reads
// zero).
func NewGenerator(store *fbnet.Store, repo *revctl.Repo, intent Intent, reg *telemetry.Registry) (*Generator, error) {
	g := &Generator{
		store: store, repo: repo, intent: intent,
		cache:    make(map[string]*tmpl.Template),
		derived:  make(map[string]*deriveEntry),
		dropped:  make(map[string]uint64),
		rendered: make(map[string]string),
		metrics:  bindGenMetrics(reg),
	}
	for syntax, body := range map[string]string{
		"vendor1": Vendor1FullTemplate,
		"vendor2": Vendor2FullTemplate,
	} {
		path := TemplatePath(syntax)
		if _, ok := repo.Head(path); !ok {
			if _, err := repo.Commit(path, body, "robotron", "seed built-in template"); err != nil {
				return nil, err
			}
		}
	}
	return g, nil
}

// DeriveDeviceData derives the dynamic config data for one device from
// FBNet Desired objects. The result is always freshly computed (and safe
// for the caller to mutate); the memoized path lives in GenerateDevice.
func (g *Generator) DeriveDeviceData(deviceName string) (*DeviceData, error) {
	return g.derive(deviceName)
}

// derive computes a device's data object. The objects it reads are the
// stored rows themselves, as every FBNet read's are: it keeps the values
// it needs, never the row. Each read pins its own epoch, not one per
// derivation: a pinned epoch holds the next commit spinning under the
// write lock until it is released (DESIGN.md §13.2), and derivations run
// while others commit.
func (g *Generator) derive(deviceName string) (*DeviceData, error) {
	dev, err := g.store.FindOne("Device", fbnet.Eq("name", deviceName))
	if err != nil {
		return nil, err
	}
	hw, err := g.store.GetByID("HardwareProfile", dev.Ref("hw_profile"))
	if err != nil {
		return nil, err
	}
	vendor, err := g.store.GetByID("Vendor", hw.Ref("vendor"))
	if err != nil {
		return nil, err
	}
	site, err := g.store.GetByID("Site", dev.Ref("site"))
	if err != nil {
		return nil, err
	}
	data := &DeviceData{
		Name:         dev.String("name"),
		Role:         dev.String("role"),
		Vendor:       vendor.String("syntax"),
		Site:         site.String("name"),
		LoopbackV4:   dev.String("loopback_v4"),
		LoopbackV6:   dev.String("loopback_v6"),
		SyslogTarget: g.SyslogTarget,
		MgmtIP:       dev.String("mgmt_ip"),
	}

	// Aggregated interfaces with member ports and addressing.
	err = g.referencing("AggregatedInterface", "device", dev.ID, func(agg fbnet.Object) error {
		ad := AggregatedInterfaceData{
			Name:   agg.String("name"),
			Number: int32(agg.Int("number")),
			MTU:    int32(agg.Int("mtu")),
		}
		err := g.referencing("PhysicalInterface", "agg_interface", agg.ID, func(pif fbnet.Object) error {
			ad.Pifs = append(ad.Pifs, PhysicalInterfaceData{Name: pif.String("name")})
			return nil
		})
		if err != nil {
			return err
		}
		sort.Slice(ad.Pifs, func(i, j int) bool { return ad.Pifs[i].Name < ad.Pifs[j].Name })
		for _, pm := range [...]struct {
			model string
			dst   *string
		}{{"V6Prefix", &ad.V6Prefix}, {"V4Prefix", &ad.V4Prefix}} {
			err := g.referencing(pm.model, "interface", agg.ID, func(p fbnet.Object) error {
				*pm.dst = p.String("prefix")
				return nil
			})
			if err != nil {
				return err
			}
		}
		data.Aggs = append(data.Aggs, ad)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(data.Aggs, func(i, j int) bool { return data.Aggs[i].Number < data.Aggs[j].Number })

	// BGP neighbors: sessions are single objects describing both peers
	// ("proper configuration must exist in both peers of every iBGP
	// session", §1), so each device renders its own side.
	policyIDs := map[int64]bool{}
	for _, sm := range []struct{ model, family string }{
		{"BgpV6Session", "v6"}, {"BgpV4Session", "v4"},
	} {
		if err := g.deriveBGP(dev.ID, sm.model, sm.family, data, policyIDs); err != nil {
			return nil, err
		}
	}
	sort.Slice(data.BGPNeighbors, func(i, j int) bool { return data.BGPNeighbors[i].Addr < data.BGPNeighbors[j].Addr })
	if err := g.derivePolicies(policyIDs, data); err != nil {
		return nil, err
	}

	// MPLS-TE tunnels headed at this device (§2.3).
	err = g.referencing("MplsTunnel", "head_device", dev.ID, func(t fbnet.Object) error {
		tail, err := g.store.GetByID("Device", t.Ref("tail_device"))
		if err != nil {
			return err
		}
		data.MplsTunnels = append(data.MplsTunnels, MplsTunnelData{
			Name:          t.String("name"),
			TailLoopback:  vendorcfg.Addr(tail.String("loopback_v6")),
			BandwidthMbps: t.Int("bandwidth_mbps"),
		})
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(data.MplsTunnels, func(i, j int) bool { return data.MplsTunnels[i].Name < data.MplsTunnels[j].Name })

	// Firewall policies attached to this device (§5.3.2).
	err = g.referencing("DeviceFirewall", "device", dev.ID, func(att fbnet.Object) error {
		policy, err := g.store.GetByID("FirewallPolicy", att.Ref("policy"))
		if err != nil {
			return err
		}
		fd := FirewallData{Name: policy.String("name"), Direction: policy.String("direction")}
		err = g.referencing("FirewallRule", "policy", policy.ID, func(rule fbnet.Object) error {
			fd.Rules = append(fd.Rules, FirewallRuleData{
				Seq: rule.Int("seq"), Action: rule.String("action"),
				Protocol: rule.String("protocol"), SrcPrefix: rule.String("src_prefix"),
				DstPort: rule.Int("dst_port"),
			})
			return nil
		})
		if err != nil {
			return err
		}
		sort.Slice(fd.Rules, func(i, j int) bool { return fd.Rules[i].Seq < fd.Rules[j].Seq })
		data.Firewalls = append(data.Firewalls, fd)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(data.Firewalls, func(i, j int) bool { return data.Firewalls[i].Name < data.Firewalls[j].Name })
	return data, nil
}

// referencing calls fn with each row of model whose fkCol references id.
func (g *Generator) referencing(model, fkCol string, id int64, fn func(fbnet.Object) error) error {
	ids, err := g.store.DB().Referencing(model, fkCol, id)
	if err != nil {
		return err
	}
	for _, rid := range ids {
		o, err := g.store.GetByID(model, rid)
		if err != nil {
			return err
		}
		if err := fn(o); err != nil {
			return err
		}
	}
	return nil
}

// deriveBGP adds this device's view of every session it participates in,
// recording any routing policies the local side must render.
func (g *Generator) deriveBGP(devID int64, model, family string, data *DeviceData, policyIDs map[int64]bool) error {
	prefixModel := "V6Prefix"
	if family == "v4" {
		prefixModel = "V4Prefix"
	}
	// Sessions where this device is the local side: neighbor is remote_addr.
	err := g.referencing(model, "local_device", devID, func(s fbnet.Object) error {
		if data.LocalAS == 0 {
			data.LocalAS = s.Int("local_as")
		}
		addr := s.String("remote_addr")
		if addr == "" {
			return nil
		}
		desc, err := g.peerDescription(s.Ref("remote_device"))
		if err != nil {
			return err
		}
		n := BGPNeighborData{
			Addr: addr, RemoteAS: s.Int("remote_as"), Family: family,
			SessionType: s.String("session_type"), Description: desc,
		}
		// Policies attach to the local side of the session.
		for field, dst := range map[string]*string{
			"import_policy": &n.ImportPolicy, "export_policy": &n.ExportPolicy,
		} {
			if pid := s.Ref(field); pid != 0 {
				p, err := g.store.GetByID("RoutingPolicy", pid)
				if err != nil {
					return err
				}
				*dst = p.String("name")
				policyIDs[pid] = true
			}
		}
		data.BGPNeighbors = append(data.BGPNeighbors, n)
		return nil
	})
	if err != nil {
		return err
	}
	// Sessions where this device is the remote side: the neighbor address
	// is the local side's prefix address (eBGP over a bundle) or its v6
	// loopback (iBGP mesh).
	return g.referencing(model, "remote_device", devID, func(s fbnet.Object) error {
		if data.LocalAS == 0 {
			data.LocalAS = s.Int("remote_as")
		}
		// One read of the local side's row serves its loopback and name.
		desc, addr := "external peer", ""
		if peerID := s.Ref("local_device"); peerID != 0 {
			peer, err := g.store.GetByID("Device", peerID)
			if err != nil {
				return err
			}
			lo := peer.String("loopback_v6")
			if family == "v4" {
				lo = peer.String("loopback_v4")
			}
			desc, addr = "to "+peer.String("name"), vendorcfg.Addr(lo)
		}
		if pfxID := s.Ref("local_prefix"); pfxID != 0 {
			p, err := g.store.GetByID(prefixModel, pfxID)
			if err != nil {
				return err
			}
			addr = vendorcfg.Addr(p.String("prefix"))
		}
		if addr == "" {
			return nil
		}
		data.BGPNeighbors = append(data.BGPNeighbors, BGPNeighborData{
			Addr: addr, RemoteAS: s.Int("local_as"), Family: family,
			SessionType: s.String("session_type"), Description: desc,
		})
		return nil
	})
}

// derivePolicies loads the referenced routing policies with their terms.
// A referenced policy with no terms is refused: generating a session whose
// import policy is "still under development" is exactly the §8 incident
// ("an engineer used Robotron to turn up the session, instantly saturating
// the egress link").
func (g *Generator) derivePolicies(policyIDs map[int64]bool, data *DeviceData) error {
	for pid := range policyIDs {
		p, err := g.store.GetByID("RoutingPolicy", pid)
		if err != nil {
			return err
		}
		pd := PolicyData{Name: p.String("name")}
		err = g.referencing("PolicyTerm", "policy", pid, func(t fbnet.Object) error {
			pd.Terms = append(pd.Terms, PolicyTermData{
				Seq: t.Int("seq"), MatchPrefix: t.String("match_prefix"), Action: t.String("action"),
			})
			return nil
		})
		if err != nil {
			return err
		}
		if len(pd.Terms) == 0 {
			return fmt.Errorf("configgen: %s references routing policy %q which has no terms (not yet implemented); refusing to generate",
				data.Name, pd.Name)
		}
		sort.Slice(pd.Terms, func(i, j int) bool { return pd.Terms[i].Seq < pd.Terms[j].Seq })
		data.Policies = append(data.Policies, pd)
	}
	sort.Slice(data.Policies, func(i, j int) bool { return data.Policies[i].Name < data.Policies[j].Name })
	return nil
}

func (g *Generator) peerDescription(devID int64) (string, error) {
	if devID == 0 {
		return "external peer", nil
	}
	peer, err := g.store.GetByID("Device", devID)
	if err != nil {
		return "", err
	}
	return "to " + peer.String("name"), nil
}

// GenerateDevice produces the full vendor-specific config for one device.
// Derivation is memoized against the intent model's stamps (memo.go). On a fresh
// result the derived data is round-tripped through its Thrift wire form —
// config generation consumes exactly what would cross the RPC boundary —
// and rendered; when the exact (template, wire) pair was rendered before,
// both the round-trip and the render are skipped.
func (g *Generator) GenerateDevice(deviceName string) (string, error) {
	at, err := g.follow()
	if err != nil {
		return "", err
	}
	return g.generateDevice(deviceName, at, nil)
}

// generateDevice is GenerateDevice at a followed model stamp, recording
// memo/render outcomes onto an optional span (nil span = untraced).
func (g *Generator) generateDevice(deviceName string, at uint64, sp *telemetry.Span) (string, error) {
	start := time.Now()
	defer g.metrics.deviceSec.ObserveSince(start)
	e, memoHit, err := g.deriveCached(deviceName, at)
	if err != nil {
		return "", err
	}
	if memoHit {
		sp.SetAttr("memo", "hit")
	} else {
		sp.SetAttr("memo", "miss")
	}
	// The render key reads the hash revctl stored with the template's head,
	// not the template itself.
	head, ok := g.repo.Head(TemplatePath(e.data.Vendor))
	if !ok {
		return "", fmt.Errorf("configgen: no template for vendor %q", e.data.Vendor)
	}
	rkey := head.Hash + "\x00" + e.wireHash
	g.memoMu.Lock()
	cfg, hit := g.rendered[rkey]
	g.memoMu.Unlock()
	if hit {
		g.metrics.renderHits.Inc()
		sp.SetAttr("render", "hit")
		return cfg, nil
	}
	sp.SetAttr("render", "miss")
	var decoded DeviceData
	if err := thriftlite.Unmarshal(e.wire, &decoded); err != nil {
		return "", fmt.Errorf("configgen: deserializing device data for %s: %w", deviceName, err)
	}
	t, err := g.compile(head)
	if err != nil {
		return "", err
	}
	out, err := t.Render(map[string]any{"device": &decoded})
	if err != nil {
		return "", fmt.Errorf("configgen: rendering %s: %w", decoded.Name, err)
	}
	g.metrics.roundTrips.Inc()
	g.metrics.renders.Inc()
	g.memoMu.Lock()
	g.rendered[rkey] = out
	g.memoMu.Unlock()
	return out, nil
}

// compile parses a template revision, caching by path + content hash so
// repository updates take effect while repeat renders stay cheap.
// {% include %} paths resolve against the config repository, letting
// vendor templates share reviewed common sections.
func (g *Generator) compile(rev revctl.Revision) (*tmpl.Template, error) {
	key := rev.Path + "@" + rev.Hash
	g.mu.Lock()
	defer g.mu.Unlock()
	if t, ok := g.cache[key]; ok {
		return t, nil
	}
	body, err := g.repo.Get(rev.Path, rev.Number)
	if err != nil {
		return nil, err
	}
	t, err := tmpl.ParseWithLoader(rev.Path, body, g.repo.GetHead)
	if err != nil {
		return nil, fmt.Errorf("configgen: template %s: %w", rev.Path, err)
	}
	g.cache[key] = t
	return t, nil
}

// GoldenPath is the config-repository path of a device's golden config.
func GoldenPath(deviceName string) string { return "golden/" + deviceName }

// CommitGolden stores a generated config as the device's golden config in
// the repository; config monitoring compares running configs against this
// (§5.4.3).
func (g *Generator) CommitGolden(deviceName, config, author, message string) (revctl.Revision, error) {
	return g.repo.Commit(GoldenPath(deviceName), config, author, message)
}

// Golden returns the device's current golden config.
func (g *Generator) Golden(deviceName string) (string, error) {
	return g.repo.GetHead(GoldenPath(deviceName))
}
