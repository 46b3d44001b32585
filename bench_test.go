// Benchmarks regenerating every table and figure of the paper's
// evaluation, plus substrate micro-benchmarks and the ablation benches
// DESIGN.md calls out. Figures are emitted as benchmark metrics
// (resolved_frac, accuracy_pct, ...) so `go test -bench=. -benchmem`
// doubles as the reproduction harness; cmd/experiments prints the same
// data as paper-style tables.
package facilitymap

import (
	"sync"
	"testing"

	"facilitymap/internal/alias"
	"facilitymap/internal/bgp"
	"facilitymap/internal/cfs"
	"facilitymap/internal/experiments"
	"facilitymap/internal/netaddr"
	"facilitymap/internal/platform"
	"facilitymap/internal/registry"
	"facilitymap/internal/remote"
	"facilitymap/internal/world"
)

var (
	defaultEnvOnce sync.Once
	defaultEnv     *experiments.Env

	smallEnvOnce sync.Once
	smallEnv     *experiments.Env

	mainRunOnce sync.Once
	mainRun     *cfs.Result
)

func benchEnv() *experiments.Env {
	defaultEnvOnce.Do(func() { defaultEnv = experiments.NewEnv(world.Default(), 42) })
	return defaultEnv
}

func benchSmallEnv() *experiments.Env {
	smallEnvOnce.Do(func() { smallEnv = experiments.NewEnv(world.Small(), 42) })
	return smallEnv
}

// benchMainRun is the shared all-platform CFS run over the default world
// (the §5 campaign) reused by the figure benches that analyse a result.
func benchMainRun() (*experiments.Env, *cfs.Result) {
	e := benchEnv()
	mainRunOnce.Do(func() { mainRun = e.RunCFS(cfs.DefaultConfig()) })
	return e, mainRun
}

// fastCFS keeps sweep benches affordable.
func fastCFS() cfs.Config {
	cfg := cfs.DefaultConfig()
	cfg.MaxIterations = 25
	cfg.FollowUpBudget = 150
	cfg.AliasRounds = []int{1, 5, 15}
	return cfg
}

// ---- substrate micro-benchmarks ----------------------------------------

func BenchmarkWorldGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		w := world.Generate(world.Default())
		if len(w.Routers) == 0 {
			b.Fatal("empty world")
		}
	}
}

func BenchmarkBGPCompute(b *testing.B) {
	w := world.Generate(world.Default())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bgp.Compute(w)
	}
}

func BenchmarkTraceroute(b *testing.B) {
	e := benchEnv()
	src := e.W.ASes[len(e.W.ASes)-1].Routers[0]
	dst := e.W.Interfaces[e.W.Routers[e.W.ASes[0].Routers[0]].Core()].IP
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Engine.Traceroute(src, dst)
	}
}

func BenchmarkLongestPrefixMatch(b *testing.B) {
	e := benchEnv()
	ips := make([]netaddr.IP, 0, 1024)
	for i, ifc := range e.W.Interfaces {
		if i == 1024 {
			break
		}
		ips = append(ips, ifc.IP)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.IPASN.Lookup(ips[i%len(ips)])
	}
}

// ---- Table 1 ------------------------------------------------------------

func BenchmarkTable1Platforms(b *testing.B) {
	e := benchEnv()
	var r *experiments.Table1Result
	for i := 0; i < b.N; i++ {
		r = experiments.Table1(e)
	}
	b.ReportMetric(float64(r.Total.VPs), "vantage_points")
	b.ReportMetric(float64(r.Total.ASNs), "asns")
}

// ---- Figure 2 -----------------------------------------------------------

func BenchmarkFigure2RegistryCompleteness(b *testing.B) {
	e := benchEnv()
	var r *experiments.Figure2Result
	for i := 0; i < b.N; i++ {
		r = experiments.Figure2(e)
	}
	b.ReportMetric(float64(r.ASesChecked), "ases_checked")
	b.ReportMetric(float64(r.MissingLinks), "missing_links")
}

// ---- Figure 3 -----------------------------------------------------------

func BenchmarkFigure3MetroFacilities(b *testing.B) {
	e := benchEnv()
	var r *experiments.Figure3Result
	for i := 0; i < b.N; i++ {
		r = experiments.Figure3(e, 10)
	}
	b.ReportMetric(float64(len(r.Rows)), "metros_over_threshold")
	b.ReportMetric(float64(r.TotalFacilities), "facilities")
}

// ---- Figure 7 -----------------------------------------------------------

func BenchmarkFigure7Convergence(b *testing.B) {
	e := benchSmallEnv()
	var r *experiments.Figure7Result
	for i := 0; i < b.N; i++ {
		r = experiments.Figure7(e, fastCFS())
	}
	all := r.Curves[0].Fraction
	b.ReportMetric(100*all[len(all)-1], "resolved_pct_all")
	b.ReportMetric(100*r.DNSGeolocated, "dns_baseline_pct")
}

// ---- Figure 8 -----------------------------------------------------------

func BenchmarkFigure8Knockout(b *testing.B) {
	e := benchSmallEnv()
	n := len(e.DB.Facilities)
	var r *experiments.Figure8Result
	for i := 0; i < b.N; i++ {
		r = experiments.Figure8(e, fastCFS(), []int{0, n / 4, n / 2}, 2, 99)
	}
	last := r.Points[len(r.Points)-1]
	b.ReportMetric(100*last.UnresolvedFrac, "unresolved_pct_at_half")
	b.ReportMetric(100*last.ChangedFrac, "changed_pct_at_half")
}

// ---- Figure 9 -----------------------------------------------------------

func BenchmarkFigure9Validation(b *testing.B) {
	e, res := benchMainRun()
	var r *experiments.Figure9Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r = experiments.Figure9(e, res)
	}
	b.ReportMetric(100*r.Overall.Frac(), "accuracy_pct")
	b.ReportMetric(float64(r.Overall.Total), "validated_interfaces")
}

// ---- Figure 10 ----------------------------------------------------------

func BenchmarkFigure10PeeringMix(b *testing.B) {
	e, res := benchMainRun()
	var r *experiments.Figure10Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r = experiments.Figure10(e, res)
	}
	total := 0
	for _, asn := range r.Targets {
		total += r.Mix[asn][experiments.RegionAll].Total()
	}
	b.ReportMetric(float64(total), "target_interfaces")
}

// ---- §5 headline ----------------------------------------------------------

func BenchmarkHeadline(b *testing.B) {
	e, res := benchMainRun()
	var h *experiments.HeadlineResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h = experiments.Headline(e, res)
	}
	b.ReportMetric(100*h.ResolvedFrac, "resolved_pct")
	b.ReportMetric(100*h.MultiRoleFrac, "multi_role_pct")
}

// ---- §4.4 proximity heuristic ---------------------------------------------

func BenchmarkProximityHeuristic(b *testing.B) {
	e := benchEnv()
	var r *experiments.ProximityResult
	for i := 0; i < b.N; i++ {
		r = experiments.Proximity(e)
	}
	b.ReportMetric(100*r.ExactFrac(), "exact_pct")
	b.ReportMetric(float64(r.TestPairs), "test_pairs")
}

// ---- full pipeline ----------------------------------------------------------

func BenchmarkCFSFullRun(b *testing.B) {
	e := benchEnv()
	var res *cfs.Result
	for i := 0; i < b.N; i++ {
		res = e.RunCFS(cfs.DefaultConfig())
	}
	b.ReportMetric(100*res.ResolvedFraction(), "resolved_pct")
	b.ReportMetric(float64(len(res.Interfaces)), "interfaces")
}

// ---- worklist engine --------------------------------------------------------

// trimmedCFS is the trimmed default-world configuration the engine
// benches share.
func trimmedCFS() cfs.Config {
	cfg := cfs.DefaultConfig()
	cfg.MaxIterations = 10
	cfg.FollowUpBudget = 200
	cfg.AliasRounds = []int{1, 5}
	return cfg
}

func sumWork(res *cfs.Result) (dirty, recomputed float64) {
	for _, h := range res.History {
		dirty += float64(h.DirtyAdjs)
		recomputed += float64(h.Recomputed)
	}
	return dirty, recomputed
}

// BenchmarkCFSWorklist runs the trimmed default-world pipeline and
// reports the per-run work counters alongside the timing, so `go test
// -bench CFSWorklist` shows the dirty-set work directly. The
// worklist-vs-rescan ratio is internal/cfs's
// BenchmarkCFSWorklistSpeedup.
func BenchmarkCFSWorklist(b *testing.B) {
	e := benchEnv()
	cfg := trimmedCFS()
	var res *cfs.Result
	for i := 0; i < b.N; i++ {
		res = e.RunCFS(cfg)
	}
	dirty, recomputed := sumWork(res)
	b.ReportMetric(dirty, "dirty_adjs")
	b.ReportMetric(recomputed, "recomputed")
	b.ReportMetric(100*res.ResolvedFraction(), "resolved_pct")
}

// BenchmarkMerge exercises the incremental merge over three runs of
// the small world.
func BenchmarkMerge(b *testing.B) {
	e := benchSmallEnv()
	results := []*cfs.Result{
		e.RunCFS(fastCFS()), e.RunCFS(fastCFS()), e.RunCFS(fastCFS()),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := cfs.Merge(results...)
		if len(out.Interfaces) == 0 {
			b.Fatal("empty merge")
		}
	}
}

// ---- ablations (design choices from DESIGN.md) ------------------------------

func benchAblation(b *testing.B, mutate func(*cfs.Config)) {
	e := benchSmallEnv()
	cfg := fastCFS()
	mutate(&cfg)
	var res *cfs.Result
	for i := 0; i < b.N; i++ {
		res = e.RunCFS(cfg)
	}
	b.ReportMetric(100*res.ResolvedFraction(), "resolved_pct")
}

func BenchmarkAblationBaseline(b *testing.B) {
	benchAblation(b, func(*cfs.Config) {})
}

func BenchmarkAblationNoAliasResolution(b *testing.B) {
	benchAblation(b, func(c *cfs.Config) { c.UseAliasResolution = false })
}

func BenchmarkAblationNoTargetedTraceroutes(b *testing.B) {
	benchAblation(b, func(c *cfs.Config) { c.UseTargeted = false })
}

func BenchmarkAblationNoRemoteDetection(b *testing.B) {
	benchAblation(b, func(c *cfs.Config) { c.UseRemoteDetection = false })
}

func BenchmarkAblationNoProximity(b *testing.B) {
	benchAblation(b, func(c *cfs.Config) { c.UseProximity = false })
}

func BenchmarkAblationAtlasOnly(b *testing.B) {
	benchAblation(b, func(c *cfs.Config) { c.Platforms = []platform.Kind{platform.Atlas} })
}

func BenchmarkAblationLGOnly(b *testing.B) {
	benchAblation(b, func(c *cfs.Config) { c.Platforms = []platform.Kind{platform.LookingGlass} })
}

func BenchmarkAliasResolution(b *testing.B) {
	e := benchSmallEnv()
	var ips []netaddr.IP
	for _, ifc := range e.W.Interfaces {
		ips = append(ips, ifc.IP)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prober := alias.NewProber(e.W, int64(i)+100)
		sets := alias.Resolve(prober, ips)
		if sets.NonTrivial() == 0 {
			b.Fatal("no alias sets resolved")
		}
	}
}

func BenchmarkRemotePeeringDetection(b *testing.B) {
	e := benchSmallEnv()
	det := remote.NewDetector(e.Svc, e.DB)
	var ports []netaddr.IP
	var ixps []world.IXPID
	for _, m := range e.W.Memberships {
		ports = append(ports, e.W.Interfaces[m.Port].IP)
		ixps = append(ixps, m.IXP)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(ports)
		det.IsRemote(ports[j], ixps[j])
	}
}

func BenchmarkMetroNormalisation(b *testing.B) {
	e := benchEnv()
	for i := 0; i < b.N; i++ {
		// Collect includes the §3.1.1 normalisation pass.
		db := registry.Collect(e.W, registry.DefaultConfig())
		if db.Clusters() == 0 {
			b.Fatal("no clusters")
		}
	}
}
