package cfs

import (
	"testing"

	"facilitymap/internal/alias"
	"facilitymap/internal/bgp"
	"facilitymap/internal/ip2asn"
	"facilitymap/internal/netaddr"
	"facilitymap/internal/platform"
	"facilitymap/internal/registry"
	"facilitymap/internal/remote"
	"facilitymap/internal/trace"
	"facilitymap/internal/world"
)

// stack is the full observational stack over one world.
type stack struct {
	w      *world.World
	rt     *bgp.Routing
	engine *trace.Engine
	fleet  *platform.Fleet
	svc    *platform.Service
	db     *registry.Database
	ipasn  *ip2asn.Service
	det    *remote.Detector
	prober *alias.Prober
}

func buildStack(t testing.TB, cfg world.Config) *stack {
	t.Helper()
	w := world.Generate(cfg)
	rt := bgp.Compute(w)
	engine := trace.New(w, rt, 23)
	fleet := platform.Deploy(w, platform.DefaultDeploy())
	svc := platform.NewService(w, fleet, engine, rt)
	db := registry.Collect(w, registry.DefaultConfig())
	return &stack{
		w: w, rt: rt, engine: engine, fleet: fleet, svc: svc, db: db,
		ipasn:  ip2asn.New(w),
		det:    remote.NewDetector(svc, db),
		prober: alias.NewProber(w, 31),
	}
}

// initialCorpus mirrors the paper's setup: campaigns from every platform
// toward content providers and large transit networks, plus archived
// scans toward one address per AS (iPlane/Ark style).
func (s *stack) initialCorpus() []trace.Path {
	var focused []netaddr.IP
	for _, as := range s.w.ASes {
		if as.Type == world.Content || as.Type == world.Tier1 {
			for i, rid := range as.Routers {
				if i >= 3 {
					break // a few addresses per target network
				}
				focused = append(focused, s.w.Interfaces[s.w.Routers[rid].Core()].IP)
			}
		}
	}
	paths := s.svc.Campaign(platform.Kinds(), focused)
	var wide []netaddr.IP
	for _, as := range s.w.ASes {
		wide = append(wide, s.w.Interfaces[s.w.Routers[as.Routers[0]].Core()].IP)
	}
	paths = append(paths, s.svc.Campaign([]platform.Kind{platform.IPlane, platform.Ark}, wide)...)
	return paths
}

// mustNew is New for tests with known-good configs.
func mustNew(tb testing.TB, cfg Config, db *registry.Database, ipasn *ip2asn.Service,
	svc *platform.Service, det *remote.Detector, prober *alias.Prober) *Pipeline {
	tb.Helper()
	p, err := New(cfg, db, ipasn, svc, det, prober)
	if err != nil {
		tb.Fatalf("New: %v", err)
	}
	return p
}

func runSmall(t testing.TB, cfg Config) (*stack, *Result) {
	s := buildStack(t, world.Small())
	p := mustNew(t, cfg, s.db, s.ipasn, s.svc, s.det, s.prober)
	return s, p.Run(s.initialCorpus())
}

func TestEndToEndAccuracy(t *testing.T) {
	s, res := runSmall(t, DefaultConfig())
	if len(res.Interfaces) == 0 {
		t.Fatal("no interfaces observed")
	}
	right, wrong, sound, unsound := 0, 0, 0, 0
	for ip, ir := range res.Interfaces {
		ifc := s.w.InterfaceByIP(ip)
		if ifc == nil {
			t.Fatalf("inferred interface %v does not exist", ip)
		}
		rtr := s.w.Routers[ifc.Router]
		if rtr.Facility == world.None {
			continue // off-facility router: no truth to compare
		}
		truth := world.FacilityID(rtr.Facility)
		if ir.Resolved {
			if ir.Facility == truth {
				right++
			} else {
				wrong++
			}
		}
		if len(ir.Candidates) > 0 {
			ok := false
			for _, c := range ir.Candidates {
				if c == truth {
					ok = true
				}
			}
			if ok {
				sound++
			} else {
				unsound++
			}
		}
	}
	total := right + wrong
	if total == 0 {
		t.Fatal("nothing resolved")
	}
	t.Logf("resolved %d/%d interfaces (%.1f%%), accuracy %d/%d (%.1f%%), candidate soundness %d/%d",
		res.Resolved(), len(res.Interfaces), 100*res.ResolvedFraction(),
		right, total, 100*float64(right)/float64(total), sound, sound+unsound)
	// The 36-facility Small world amplifies registry-gap collapses
	// (candidate sets are tiny); TestDefaultWorldAccuracy enforces the
	// paper-level bar on the full-size world.
	if right*100 < total*72 {
		t.Errorf("facility accuracy %d/%d below 72%%", right, total)
	}
	if res.ResolvedFraction() < 0.30 {
		t.Errorf("resolved fraction %.2f too low", res.ResolvedFraction())
	}
	if unsound*3 > sound {
		t.Errorf("candidate sets unsound: truth missing from %d/%d", unsound, sound+unsound)
	}
}

func TestConvergenceMonotonic(t *testing.T) {
	_, res := runSmall(t, DefaultConfig())
	if len(res.History) == 0 {
		t.Fatal("no history recorded")
	}
	prev := -1
	for _, h := range res.History {
		if h.Resolved < prev {
			t.Fatalf("resolved count decreased: %d after %d (iteration %d)",
				h.Resolved, prev, h.Iteration)
		}
		prev = h.Resolved
		if h.Resolved > h.Observed {
			t.Fatalf("resolved %d exceeds observed %d", h.Resolved, h.Observed)
		}
	}
	first, last := res.History[0], res.History[len(res.History)-1]
	if last.Resolved <= first.Resolved {
		t.Errorf("no convergence progress: %d -> %d", first.Resolved, last.Resolved)
	}
}

func TestLinkClassification(t *testing.T) {
	s, res := runSmall(t, DefaultConfig())
	pubRight, pubWrong := 0, 0
	kindRight, kindWrong := 0, 0
	for _, a := range res.Links {
		// Recover the ground-truth link from the far-side interface.
		var truth *world.Link
		if a.Public {
			ifc := s.w.InterfaceByIP(a.FarPort)
			if ifc == nil || ifc.Kind != world.IXPPort {
				t.Fatalf("public adjacency far port %v is not an IXP port", a.FarPort)
			}
			pubRight++
			continue
		}
		ifc := s.w.InterfaceByIP(a.Far)
		if ifc == nil {
			continue
		}
		if ifc.Kind == world.IXPPort {
			pubWrong++ // classified private but actually public
			continue
		}
		if ifc.Link == world.None {
			continue
		}
		truth = s.w.Links[ifc.Link]
		switch a.Type {
		case PrivateCrossConnect:
			if truth.Kind == world.CrossConnect {
				kindRight++
			} else {
				kindWrong++
			}
		case PrivateTethering:
			if truth.Kind == world.Tethering {
				kindRight++
			} else {
				kindWrong++
			}
		}
	}
	if pubWrong > 0 {
		t.Errorf("%d private classifications were actually public", pubWrong)
	}
	if kindRight+kindWrong == 0 {
		t.Fatal("no private links classified")
	}
	t.Logf("public adjacencies: %d; private kind accuracy %d/%d",
		pubRight, kindRight, kindRight+kindWrong)
	if kindRight*100 < (kindRight+kindWrong)*55 {
		t.Errorf("private link kind accuracy %d/%d too low", kindRight, kindRight+kindWrong)
	}
}

func TestRemoteDetectionIntegration(t *testing.T) {
	s, res := runSmall(t, DefaultConfig())
	right, wrong := 0, 0
	for ip, ir := range res.Interfaces {
		if !ir.RemoteMember {
			continue
		}
		ifc := s.w.InterfaceByIP(ip)
		rtr := s.w.Routers[ifc.Router]
		// A remote-flagged interface should belong to a router with at
		// least one remote membership.
		remoteTruth := false
		for _, m := range s.w.Memberships {
			if m.Router == rtr.ID && m.Remote {
				remoteTruth = true
			}
		}
		if remoteTruth {
			right++
		} else {
			wrong++
		}
	}
	if right+wrong == 0 {
		t.Skip("no remote members flagged in small world")
	}
	if wrong > right {
		t.Errorf("remote flags mostly wrong: %d/%d", right, right+wrong)
	}
}

func TestCensus(t *testing.T) {
	_, res := runSmall(t, DefaultConfig())
	c := res.Census()
	if c.Routers == 0 || c.PublicRouters == 0 {
		t.Fatalf("census empty: %+v", c)
	}
	if c.MultiRole == 0 {
		t.Error("no multi-role routers observed (paper: 39%)")
	}
	if c.MultiRole > c.Routers || c.MultiIXP > c.PublicRouters {
		t.Fatalf("census inconsistent: %+v", c)
	}
	t.Logf("census: %+v", c)
}

func TestAblationTargetedHelps(t *testing.T) {
	base := DefaultConfig()
	noTarget := base
	noTarget.UseTargeted = false
	_, with := runSmall(t, base)
	_, without := runSmall(t, noTarget)
	if with.Resolved() < without.Resolved() {
		t.Errorf("targeted follow-ups reduced resolution: %d vs %d",
			with.Resolved(), without.Resolved())
	}
	t.Logf("resolved with targeting %d/%d, without %d/%d",
		with.Resolved(), len(with.Interfaces), without.Resolved(), len(without.Interfaces))
}

func TestAblationAliasHelps(t *testing.T) {
	base := DefaultConfig()
	noAlias := base
	noAlias.UseAliasResolution = false
	_, with := runSmall(t, base)
	_, without := runSmall(t, noAlias)
	if with.ResolvedFraction() < without.ResolvedFraction() {
		t.Errorf("alias resolution reduced resolution fraction: %.2f vs %.2f",
			with.ResolvedFraction(), without.ResolvedFraction())
	}
}

func TestProximityPick(t *testing.T) {
	px := NewProximity()
	px.Observe(1, 10, 20)
	px.Observe(1, 10, 20)
	px.Observe(1, 10, 21)
	if f, ok := px.Pick(1, 10, []world.FacilityID{20, 21}); !ok || f != 20 {
		t.Errorf("Pick = %d,%v want 20,true", f, ok)
	}
	// Tie: no inference (same-backhaul case, §4.4).
	px.Observe(1, 10, 21)
	if _, ok := px.Pick(1, 10, []world.FacilityID{20, 21}); ok {
		t.Error("tie should yield no inference")
	}
	// Unknown IXP or empty candidates.
	if _, ok := px.Pick(2, 10, []world.FacilityID{20}); ok {
		t.Error("unknown IXP should yield no inference")
	}
	if _, ok := px.Pick(1, 10, nil); ok {
		t.Error("no candidates should yield no inference")
	}
	// Candidates never observed.
	if _, ok := px.Pick(1, 10, []world.FacilityID{30, 31}); ok {
		t.Error("unobserved candidates should yield no inference")
	}
}

// TestMDAFollowUps: multipath follow-ups observe strictly more per
// target but cost one budget unit per flow. At equal *target* coverage
// (budget scaled by the flow count) resolution must not regress; at
// equal probe budget it may, which is the documented trade-off.
func TestMDAFollowUps(t *testing.T) {
	base := DefaultConfig()
	base.MaxIterations = 15
	mda := base
	mda.MDAFlows = 4
	mda.FollowUpBudget = base.FollowUpBudget * mda.MDAFlows
	_, plain := runSmall(t, base)
	_, multi := runSmall(t, mda)
	if multi.Resolved()+5 < plain.Resolved() {
		t.Errorf("MDA follow-ups regressed resolution at equal coverage: %d vs %d",
			multi.Resolved(), plain.Resolved())
	}
	if len(multi.Interfaces) < len(plain.Interfaces) {
		t.Errorf("MDA observed fewer interfaces: %d vs %d",
			len(multi.Interfaces), len(plain.Interfaces))
	}
	t.Logf("plain %d/%d, MDA %d/%d", plain.Resolved(), len(plain.Interfaces),
		multi.Resolved(), len(multi.Interfaces))
}
