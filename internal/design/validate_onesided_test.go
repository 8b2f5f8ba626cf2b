package design

import (
	"strings"
	"testing"

	"github.com/robotron-net/robotron/internal/fbnet"
	"github.com/robotron-net/robotron/internal/verify"
)

// gateViolations is the gate's verdict on the design alone: a fresh
// checker's stored checks, network-wide, with no rendered configs.
func gateViolations(t *testing.T, store *fbnet.Store) []verify.Violation {
	t.Helper()
	res, err := verify.NewChecker(store, nil).Check(nil)
	if err != nil {
		t.Fatal(err)
	}
	return res.Violations
}

// on returns the violations of inv that carry the object model#id.
func on(vs []verify.Violation, inv verify.Invariant, model string, id int64) []verify.Violation {
	var out []verify.Violation
	for _, v := range vs {
		if v.Invariant == inv && v.Model == model && v.ID == id {
			out = append(out, v)
		}
	}
	return out
}

// TestValidateOneSidedP2PAddressing: removing the z-side p2p prefix of a
// bundle used to pass validation — the same-subnet rule compared a×z
// prefix pairs, and one empty side produced zero pairs, a vacuous pass.
func TestValidateOneSidedP2PAddressing(t *testing.T) {
	d, _ := popWithPR(t)
	store := d.Store()
	if vs := gateViolations(t, store); len(vs) != 0 {
		t.Fatalf("clean cluster validates dirty: %v", vs)
	}
	// Delete one link group's z-side prefix: resolve a session's
	// remote_addr back to the prefix object on the far device.
	ss, err := store.Find("BgpV6Session", fbnet.Eq("session_type", "ebgp"))
	if err != nil || len(ss) == 0 {
		t.Fatalf("no ebgp sessions: %v", err)
	}
	s := ss[0]
	zPfx, err := store.FindOne("V6Prefix", fbnet.Eq("prefix", s.String("remote_addr")+"/127"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Mutate(func(m *fbnet.Mutation) error {
		return m.Delete("V6Prefix", zPfx.ID)
	}); err != nil {
		t.Fatal(err)
	}
	// The a-side prefix is left as the subnet's only end.
	vs := gateViolations(t, store)
	found := on(vs, verify.P2PConsistency, "V6Prefix", s.Ref("local_prefix"))
	if len(found) == 0 {
		t.Fatalf("one-sided p2p addressing not flagged; violations: %v", vs)
	}
	if !strings.Contains(found[0].Detail, "only one end") {
		t.Errorf("no one-sided detail in violations: %v", found)
	}
}

// TestValidateLocalPrefixOwnership: a BGP session whose local_prefix lives
// on the far device's interface is unconfigurable on the local box, but
// the session-level checks (type, AS numbers) never looked at the prefix.
func TestValidateLocalPrefixOwnership(t *testing.T) {
	d, _ := popWithPR(t)
	store := d.Store()
	ss, err := store.Find("BgpV6Session", fbnet.Eq("session_type", "ebgp"))
	if err != nil || len(ss) == 0 {
		t.Fatalf("no ebgp sessions: %v", err)
	}
	s := ss[0]
	// The z-side prefix belongs to the remote device's aggregate.
	zPfx, err := store.FindOne("V6Prefix", fbnet.Eq("prefix", s.String("remote_addr")+"/127"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Mutate(func(m *fbnet.Mutation) error {
		return m.Update("BgpV6Session", s.ID, map[string]any{"local_prefix": zPfx.ID})
	}); err != nil {
		t.Fatal(err)
	}
	vs := gateViolations(t, store)
	if len(on(vs, verify.OrphanRef, "BgpV6Session", s.ID)) != 1 {
		t.Errorf("misattached local_prefix not flagged exactly once: %v", vs)
	}
}

// TestValidateUnboundLocalPrefix: a session pointing at a prefix that lost
// its interface binding is flagged too.
func TestValidateUnboundLocalPrefix(t *testing.T) {
	d, _ := popWithPR(t)
	store := d.Store()
	ss, err := store.Find("BgpV6Session", fbnet.Eq("session_type", "ebgp"))
	if err != nil || len(ss) == 0 {
		t.Fatalf("no ebgp sessions: %v", err)
	}
	s := ss[0]
	pfx, err := store.GetByID("V6Prefix", s.Ref("local_prefix"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Mutate(func(m *fbnet.Mutation) error {
		return m.Update("V6Prefix", pfx.ID, map[string]any{"interface": nil})
	}); err != nil {
		t.Fatal(err)
	}
	vs := gateViolations(t, store)
	if len(on(vs, verify.OrphanRef, "BgpV6Session", s.ID)) == 0 {
		t.Errorf("unbound local_prefix not flagged: %v", vs)
	}
}

// TestAddPeeringRejectsSharedAS: an eBGP interconnect with ASN == LocalAS
// used to pass the one-sided "both numbers positive" check.
func TestAddPeeringRejectsSharedAS(t *testing.T) {
	d, pr := popWithPR(t)
	_, _, err := d.AddPeering(testCtx("pop"), PeeringSpec{
		Device: pr, Partner: "Self-Peer", ASN: 32934, Kind: "peering", LocalAS: 32934,
	})
	if err == nil || !strings.Contains(err.Error(), "distinct AS") {
		t.Fatalf("same-AS peering accepted, err=%v", err)
	}
}
