package design

import (
	"strings"
	"testing"

	"github.com/robotron-net/robotron/internal/fbnet"
)

// popWithPR builds a POP cluster so a peering router exists.
func popWithPR(t *testing.T) (*Designer, string) {
	t.Helper()
	d := newTestDesigner(t)
	if _, err := d.EnsureSite("pop1", "pop", "apac"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.BuildCluster(testCtx("pop"), "pop1", "pop1-c1", POPGen1()); err != nil {
		t.Fatal(err)
	}
	return d, "pr1.pop1-c1"
}

func TestAddPeeringCreatesFullGraph(t *testing.T) {
	d, pr := popWithPR(t)
	res, sessionID, err := d.AddPeering(testCtx("pop"), PeeringSpec{
		Device: pr, Partner: "ISP-One", ASN: 3356, Kind: "transit", LocalAS: 32934,
	})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, ref := range res.Stats.Created {
		counts[ref.Model]++
	}
	for model, want := range map[string]int{
		"ASN": 1, "PeeringPartner": 1, "PeeringInterconnect": 1,
		"BgpV6Session": 1, "AggregatedInterface": 1, "PhysicalInterface": 1, "V6Prefix": 1,
	} {
		if counts[model] != want {
			t.Errorf("%s created = %d, want %d (counts %v)", model, counts[model], want, counts)
		}
	}
	s, err := d.Store().GetByID("BgpV6Session", sessionID)
	if err != nil {
		t.Fatal(err)
	}
	if s.Int("remote_as") != 3356 || s.Ref("remote_device") != 0 {
		t.Errorf("session = %+v", s)
	}
	// The interconnect points at the session and partner.
	ic, err := d.Store().FindOne("PeeringInterconnect", nil)
	if err != nil {
		t.Fatal(err)
	}
	if ic.Ref("v6_session") != sessionID || ic.String("kind") != "transit" {
		t.Errorf("interconnect = %+v", ic)
	}
}

func TestAddPeeringReusesPartnerAndASN(t *testing.T) {
	d, pr := popWithPR(t)
	if _, _, err := d.AddPeering(testCtx("pop"), PeeringSpec{
		Device: pr, Partner: "ISP-One", ASN: 3356, Kind: "peering", LocalAS: 32934,
	}); err != nil {
		t.Fatal(err)
	}
	// Second interconnect with the same partner on the other PR.
	if _, _, err := d.AddPeering(testCtx("pop"), PeeringSpec{
		Device: "pr2.pop1-c1", Partner: "ISP-One", ASN: 3356, Kind: "peering", LocalAS: 32934,
	}); err != nil {
		t.Fatal(err)
	}
	if n, _ := d.Store().Count("PeeringPartner"); n != 1 {
		t.Errorf("partners = %d, want 1 (reused)", n)
	}
	if n, _ := d.Store().Count("ASN"); n != 1 {
		t.Errorf("ASNs = %d, want 1 (reused)", n)
	}
	if n, _ := d.Store().Count("PeeringInterconnect"); n != 2 {
		t.Errorf("interconnects = %d", n)
	}
}

func TestAddPeeringValidation(t *testing.T) {
	d, pr := popWithPR(t)
	cases := []PeeringSpec{
		{Device: pr, Partner: "X", ASN: 1, Kind: "bogus", LocalAS: 1},
		{Device: pr, Partner: "X", ASN: 0, Kind: "peering", LocalAS: 1},
		{Device: pr, Partner: "X", ASN: 1, Kind: "peering", LocalAS: 0},
		{Device: "psw1.pop1-c1", Partner: "X", ASN: 1, Kind: "peering", LocalAS: 2}, // not a PR
		{Device: "ghost", Partner: "X", ASN: 1, Kind: "peering", LocalAS: 2},
	}
	for i, spec := range cases {
		if _, _, err := d.AddPeering(testCtx("pop"), spec); err == nil {
			t.Errorf("case %d should fail: %+v", i, spec)
		}
	}
}

func TestAddPeeringWithImportPolicy(t *testing.T) {
	d, pr := popWithPR(t)
	_, sessionID, err := d.AddPeering(testCtx("pop"), PeeringSpec{
		Device: pr, Partner: "ISP-Two", ASN: 2914, Kind: "peering", LocalAS: 32934,
		ImportPolicy: &PolicySpec{
			Name: "isp-two-cherry-picked",
			Terms: []PolicyTermSpec{
				{MatchPrefix: "2001:db8:1::/48", Action: "accept"},
				{MatchPrefix: "2001:db8:2::/48", Action: "accept"},
				{Action: "reject"},
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	s, _ := d.Store().GetByID("BgpV6Session", sessionID)
	if s.Ref("import_policy") == 0 {
		t.Fatal("session has no import policy")
	}
	terms, err := d.Store().Find("PolicyTerm", fbnet.Eq("policy", s.Ref("import_policy")))
	if err != nil {
		t.Fatal(err)
	}
	if len(terms) != 3 {
		t.Errorf("terms = %d", len(terms))
	}
	// Terms are sequenced 10, 20, 30.
	var seqs []int64
	for _, term := range terms {
		seqs = append(seqs, term.Int("seq"))
	}
	if seqs[0] != 10 || seqs[2] != 30 {
		t.Errorf("seqs = %v", seqs)
	}
}

func TestPolicyDeleteRestrictedWhileReferenced(t *testing.T) {
	d, pr := popWithPR(t)
	_, sessionID, err := d.AddPeering(testCtx("pop"), PeeringSpec{
		Device: pr, Partner: "ISP-Two", ASN: 2914, Kind: "peering", LocalAS: 32934,
		ImportPolicy: &PolicySpec{Name: "pol", Terms: []PolicyTermSpec{{Action: "accept"}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	s, _ := d.Store().GetByID("BgpV6Session", sessionID)
	_, err = d.Store().Mutate(func(m *fbnet.Mutation) error {
		return m.Delete("RoutingPolicy", s.Ref("import_policy"))
	})
	if err == nil || !strings.Contains(err.Error(), "still referenced") {
		t.Errorf("deleting a referenced policy should RESTRICT, got %v", err)
	}
}
