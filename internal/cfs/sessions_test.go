package cfs

import (
	"testing"

	"facilitymap/internal/netaddr"
	"facilitymap/internal/platform"
	"facilitymap/internal/world"
)

func TestP2PPartner(t *testing.T) {
	cases := []struct{ in, want string }{
		{"20.0.0.1", "20.0.0.2"},
		{"20.0.0.2", "20.0.0.1"},
		{"20.0.0.5", "20.0.0.6"},
	}
	for _, c := range cases {
		if got := P2PPartner(netaddr.MustParseIP(c.in)); got != netaddr.MustParseIP(c.want) {
			t.Errorf("P2PPartner(%s) = %v, want %s", c.in, got, c.want)
		}
	}
	// Network/broadcast slots have no partner.
	for _, s := range []string{"20.0.0.0", "20.0.0.3"} {
		if got := P2PPartner(netaddr.MustParseIP(s)); got != 0 {
			t.Errorf("P2PPartner(%s) = %v, want 0", s, got)
		}
	}
}

// TestSessionsImproveResolution: LG session listings add backbone
// adjacencies the traceroute corpus misses, so resolution must not drop
// and pinned owners must be correct.
func TestSessionsImproveResolution(t *testing.T) {
	s := buildStack(t, world.Small())
	cfg := DefaultConfig()
	cfg.MaxIterations = 15

	paths := s.initialCorpus()
	var sessions []SessionObservation
	for _, vp := range s.fleet.ByKind(platform.LookingGlass) {
		for _, sess := range s.svc.LookingGlassSessions(vp) {
			sessions = append(sessions, SessionObservation{
				LGAS: vp.AS, PeerIP: sess.PeerIP, PeerAS: sess.PeerAS,
			})
		}
	}
	if len(sessions) == 0 {
		t.Skip("no BGP-capable LGs in small world")
	}
	without := mustNew(t, cfg, s.db, s.ipasn, s.svc, s.det, s.prober).Run(paths)
	with := mustNew(t, cfg, s.db, s.ipasn, s.svc, s.det, s.prober).
		RunObservations(Observations{Paths: paths, Sessions: sessions})

	if len(with.Interfaces) < len(without.Interfaces) {
		t.Errorf("sessions lost interfaces: %d vs %d", len(with.Interfaces), len(without.Interfaces))
	}
	if with.Resolved() < without.Resolved() {
		t.Errorf("sessions reduced resolution: %d vs %d", with.Resolved(), without.Resolved())
	}
	t.Logf("without sessions: %d/%d; with: %d/%d (%d sessions)",
		without.Resolved(), len(without.Interfaces),
		with.Resolved(), len(with.Interfaces), len(sessions))

	// Pinned owners are authoritative and correct against ground truth.
	wrong := 0
	for _, sess := range sessions {
		ir := with.Interfaces[sess.PeerIP]
		if ir == nil {
			continue
		}
		truth := s.w.RouterOfIP(sess.PeerIP)
		if truth != nil && ir.Owner != truth.AS {
			wrong++
		}
	}
	if wrong > 0 {
		t.Errorf("%d pinned session peers have wrong owners", wrong)
	}
}

// TestSessionZeroLocalIP covers LG rows whose local address is not
// derivable, ingested through the worklist engine: a private peer on a
// usable /30 slot derives its partner (pinned to the glass's AS), a
// peer on a network/broadcast slot is dropped entirely, a peer on an
// IXP LAN synthesises a far-side-only adjacency — and the rescan
// oracle ingests all three identically.
func TestSessionZeroLocalIP(t *testing.T) {
	s := buildStack(t, world.Small())

	var privPeer netaddr.IP
	var privAS world.ASN
	for _, ifc := range s.w.Interfaces {
		if ifc.Kind == world.IXPPort {
			continue
		}
		if r := ifc.IP % 4; r != 1 && r != 2 {
			continue
		}
		if _, onLAN := s.db.IXPByIP(ifc.IP); onLAN {
			continue
		}
		privPeer, privAS = ifc.IP, s.w.Routers[ifc.Router].AS
		break
	}
	if privPeer == 0 {
		t.Fatal("no usable private /30 interface in small world")
	}
	droppedPeer := privPeer - privPeer%4 // network slot: no partner derivable

	var pubPeer netaddr.IP
	var pubAS world.ASN
	for _, m := range s.w.Memberships {
		if _, confirmed := s.db.IXPs[m.IXP]; confirmed {
			pubPeer, pubAS = s.w.Interfaces[m.Port].IP, m.AS
			break
		}
	}
	if pubPeer == 0 {
		t.Skip("no confirmed memberships in small world")
	}

	const lgAS = world.ASN(64499)
	obs := Observations{Sessions: []SessionObservation{
		{LGAS: lgAS, PeerIP: privPeer, PeerAS: privAS},
		{LGAS: lgAS, PeerIP: droppedPeer, PeerAS: privAS},
		{LGAS: lgAS, PeerIP: pubPeer, PeerAS: pubAS},
	}}
	runEngine := func(setup func(*Pipeline)) *Result {
		cfg := DefaultConfig()
		cfg.MaxIterations = 3
		cfg.UseTargeted = false
		cfg.UseAliasResolution = false
		cfg.UseRemoteDetection = false
		p := mustNew(t, cfg, s.db, s.ipasn, nil, nil, nil)
		if setup != nil {
			setup(p)
		}
		return p.RunObservations(obs)
	}
	res := runEngine(nil)

	near := P2PPartner(privPeer)
	ir := res.Interfaces[near]
	if ir == nil {
		t.Fatalf("derived local side %v missing from pool", near)
	}
	if ir.Owner != lgAS {
		t.Errorf("derived local side owned by %v, want pinned %v", ir.Owner, lgAS)
	}
	if peer := res.Interfaces[privPeer]; peer == nil || peer.Owner != privAS {
		t.Errorf("private peer %v not pinned to %v: %+v", privPeer, privAS, peer)
	}
	if _, ok := res.Interfaces[droppedPeer]; ok {
		t.Errorf("underivable session peer %v entered the pool", droppedPeer)
	}
	farOnly := false
	for _, l := range res.Links {
		if l.Public && l.Near == 0 && l.FarPort == pubPeer {
			farOnly = true
		}
	}
	if !farOnly {
		t.Errorf("no far-side-only adjacency synthesised for %v", pubPeer)
	}
	if pub := res.Interfaces[pubPeer]; pub == nil || len(pub.Candidates) == 0 {
		t.Errorf("far port %v gained no candidates from the listing", pubPeer)
	}

	// No measurements issue in this configuration, so a second run over
	// the same stack is deterministic: the rescan oracle must agree
	// exactly.
	requireCrossEngineResults(t, "zero-LocalIP sessions", runEngine(useRescan), res)
}

// TestSessionPublicFarSide: a session whose peer sits on an IXP LAN
// constrains the far port even without a local address.
func TestSessionPublicFarSide(t *testing.T) {
	s := buildStack(t, world.Small())
	var obs []SessionObservation
	var expectIP netaddr.IP
	for _, m := range s.w.Memberships {
		if _, confirmed := s.db.IXPs[m.IXP]; !confirmed {
			continue
		}
		ip := s.w.Interfaces[m.Port].IP
		obs = append(obs, SessionObservation{LGAS: 64499, PeerIP: ip, PeerAS: m.AS})
		expectIP = ip
		break
	}
	if len(obs) == 0 {
		t.Skip("no confirmed memberships")
	}
	cfg := DefaultConfig()
	cfg.UseTargeted = false
	cfg.UseAliasResolution = false
	cfg.UseRemoteDetection = false
	cfg.MaxIterations = 3
	res := mustNew(t, cfg, s.db, s.ipasn, s.svc, nil, nil).
		RunObservations(Observations{Sessions: obs})
	ir := res.Interfaces[expectIP]
	if ir == nil {
		t.Fatal("session peer missing from pool")
	}
	if len(ir.Candidates) == 0 {
		t.Error("far port gained no candidates from the session listing")
	}
}
