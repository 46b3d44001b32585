// Package experiments regenerates every table and figure of the paper's
// evaluation (§3, §5, §6): Table 1, Figures 2, 3, 7, 8, 9 and 10, the §5
// headline numbers, the router-role census, and the §4.4 switch-proximity
// validation. Each harness returns typed data plus a Render method that
// prints a paper-style text table.
package experiments

import (
	"sort"

	"facilitymap/internal/alias"
	"facilitymap/internal/bgp"
	"facilitymap/internal/cfs"
	"facilitymap/internal/dnsnames"
	"facilitymap/internal/geoloc"
	"facilitymap/internal/ip2asn"
	"facilitymap/internal/netaddr"
	"facilitymap/internal/obs"
	"facilitymap/internal/platform"
	"facilitymap/internal/registry"
	"facilitymap/internal/remote"
	"facilitymap/internal/trace"
	"facilitymap/internal/validation"
	"facilitymap/internal/world"
)

// Env is the fully-wired observational stack over one synthetic world.
type Env struct {
	W      *world.World
	RT     *bgp.Routing
	Engine *trace.Engine
	Fleet  *platform.Fleet
	Svc    *platform.Service
	DB     *registry.Database
	IPASN  *ip2asn.Service
	Det    *remote.Detector
	Prober *alias.Prober

	Resolver *dnsnames.Resolver
	Decoder  *dnsnames.Decoder
	GeoDB    *geoloc.DB

	// Targets are the networks whose interconnections the campaigns
	// focus on: content providers and Tier-1 transit (§5).
	Targets []world.ASN

	// WideScanSample caps the iPlane/Ark wide scan of InitialCorpus at
	// this many destination ASes, chosen by a deterministic stride over
	// the AS list. 0 scans every AS (the pre-existing behavior); NewEnv
	// sets it automatically for internet-scale worlds, where
	// one-address-per-AS means hundreds of thousands of traceroutes.
	// Override it before calling InitialCorpus to change the budget.
	WideScanSample int

	seed int64
	obs  *obs.Obs
}

// largeWorldASes is the AS population above which NewEnv switches to
// the scaled deployment: stride-thinned Atlas and looking-glass fleets
// and a sampled wide scan. Well above every curated profile through
// PaperScale, so their stacks are built exactly as before.
const largeWorldASes = 4096

// Instrument attaches an observability sink to the whole stack: the
// trace engine, the platform scheduler, and every subsequent RunCFS /
// RunCFSOn pipeline. Observation is one-way — instrumented and plain
// environments produce bit-for-bit identical results.
func (e *Env) Instrument(o *obs.Obs) {
	e.obs = o
	e.Engine.Instrument(o)
	e.Svc.Instrument(o)
}

// NewEnv builds the stack for a world configuration.
func NewEnv(wcfg world.Config, seed int64) *Env {
	w := world.Generate(wcfg)
	rt := bgp.Compute(w)
	engine := trace.New(w, rt, seed)
	fleet := platform.Deploy(w, deployFor(w))
	svc := platform.NewService(w, fleet, engine, rt)
	db := registry.Collect(w, registry.DefaultConfig())
	e := &Env{
		W:      w,
		RT:     rt,
		Engine: engine,
		Fleet:  fleet,
		Svc:    svc,
		DB:     db,
		IPASN:  ip2asn.New(w),
		Det:    remote.NewDetector(svc, db),
		Prober: alias.NewProber(w, seed+7),
		GeoDB:  geoloc.New(w, seed+11),
		seed:   seed,
	}
	e.Resolver = dnsnames.NewResolver(w, seed+13)
	airports := make(map[string]string)
	for _, m := range w.Metros {
		airports[m.Name] = w.MetroAirport(m.ID)
	}
	var confirmed []string
	for _, as := range w.ASes {
		if as.DNSStyle == world.DNSFacility {
			confirmed = append(confirmed, as.Name)
		}
	}
	e.Decoder = dnsnames.NewDecoder(db, airports, confirmed)
	for _, as := range w.ASes {
		if as.Type == world.Content || as.Type == world.Tier1 {
			e.Targets = append(e.Targets, as.ASN)
		}
	}
	if len(w.ASes) >= largeWorldASes {
		e.WideScanSample = 512
	}
	return e
}

// deployFor picks the fleet configuration for a world: the Table 1
// deployment as-is for every curated profile, and a stride-thinned
// variant above largeWorldASes that holds the fleet near the size a
// thousand-AS world would get (a few hundred Atlas probes, a dozen or
// two looking-glass operators) instead of scaling it with the
// population — platform campaigns visit every vantage point, so an
// unthinned internet-scale fleet would turn every corpus into tens of
// millions of traceroutes.
func deployFor(w *world.World) platform.DeployConfig {
	dcfg := platform.DefaultDeploy()
	if len(w.ASes) < largeWorldASes {
		return dcfg
	}
	atlasEligible, lgASes := 0, 0
	for _, as := range w.ASes {
		switch as.Type {
		case world.Access, world.Enterprise:
			atlasEligible++
		}
		if as.RunsLookingGlass {
			lgASes++
		}
	}
	const atlasHosts, lgHosts = 128, 16
	if atlasEligible > atlasHosts {
		dcfg.AtlasSampleStride = atlasEligible / atlasHosts
	}
	if lgASes > lgHosts {
		dcfg.LGSampleStride = lgASes / lgHosts
	}
	return dcfg
}

// InitialCorpus runs the measurement campaigns of §5: every platform
// targets the content and transit networks (a few addresses each), and
// the iPlane/Ark archives contribute scans toward one address per AS.
func (e *Env) InitialCorpus() []trace.Path {
	var focused []netaddr.IP
	for _, asn := range e.Targets {
		as := e.W.ASByNumber(asn)
		for i, rid := range as.Routers {
			if i >= 3 {
				break
			}
			focused = append(focused, e.W.Interfaces[e.W.Routers[rid].Core()].IP)
		}
	}
	paths := e.Svc.Campaign(platform.Kinds(), focused)
	all := e.W.ASes
	stride := 1
	if e.WideScanSample > 0 && len(all) > e.WideScanSample {
		// Deterministic stride sample: evenly spaced across the AS list,
		// so every type and region stays represented.
		stride = (len(all) + e.WideScanSample - 1) / e.WideScanSample
	}
	var wide []netaddr.IP
	for i := 0; i < len(all); i += stride {
		as := all[i]
		wide = append(wide, e.W.Interfaces[e.W.Routers[as.Routers[0]].Core()].IP)
	}
	paths = append(paths, e.Svc.Campaign([]platform.Kind{platform.IPlane, platform.Ark}, wide)...)
	return paths
}

// Sessions collects BGP-session listings from every BGP-capable looking
// glass (§3.2: the paper identified 168 such LGs "and used them to
// augment our measurements").
func (e *Env) Sessions() []cfs.SessionObservation {
	var out []cfs.SessionObservation
	for _, vp := range e.Fleet.ByKind(platform.LookingGlass) {
		for _, s := range e.Svc.LookingGlassSessions(vp) {
			out = append(out, cfs.SessionObservation{
				LGAS:   vp.AS,
				PeerIP: s.PeerIP,
				PeerAS: s.PeerAS,
			})
		}
	}
	return out
}

// RunCFS executes the pipeline with the given configuration over a fresh
// initial corpus plus the looking-glass session listings.
func (e *Env) RunCFS(cfg cfs.Config) *cfs.Result {
	_, res := e.RunCFSPipeline(cfg)
	return res
}

// RunCFSPipeline is RunCFS, additionally handing back the live pipeline
// so the caller can feed it deltas (ApplyDelta) after the initial
// convergence.
func (e *Env) RunCFSPipeline(cfg cfs.Config) (*cfs.Pipeline, *cfs.Result) {
	if cfg.Obs == nil {
		cfg.Obs = e.obs
	}
	p, err := cfs.New(cfg, e.DB, e.IPASN, e.Svc, e.Det, e.Prober)
	if err != nil {
		// Harness configs are built in code, not parsed from user input;
		// a rejected one is a programming error.
		panic(err)
	}
	res := p.RunObservations(cfs.Observations{
		Paths:    e.InitialCorpus(),
		Sessions: e.Sessions(),
	})
	return p, res
}

// FreshRunCFS builds a brand-new environment for the given world and
// seed and runs the pipeline once. Use this — not two RunCFS calls on
// one Env — when comparing runs for equivalence: the trace engine
// derives measurement jitter from a global probe counter, so a second
// run on a shared engine sees different RTT draws (and thus possibly
// different remote-peering verdicts) than the first. A fresh
// environment restarts the counter, making runs with equal (world,
// seed, config) inputs bit-for-bit comparable.
func FreshRunCFS(wcfg world.Config, seed int64, cfg cfs.Config) *cfs.Result {
	return NewEnv(wcfg, seed).RunCFS(cfg)
}

// RunCFSOn executes the pipeline against a substitute registry database
// (the Figure 8 knockout uses this).
func (e *Env) RunCFSOn(cfg cfs.Config, db *registry.Database) *cfs.Result {
	if cfg.Obs == nil {
		cfg.Obs = e.obs
	}
	det := remote.NewDetector(e.Svc, db)
	p, err := cfs.New(cfg, db, e.IPASN, e.Svc, det, e.Prober)
	if err != nil {
		panic(err) // see RunCFS
	}
	return p.RunObservations(cfs.Observations{
		Paths:    e.InitialCorpus(),
		Sessions: e.Sessions(),
	})
}

// Validator builds the §6 validator for this environment.
func (e *Env) Validator() *validation.Validator {
	var feedback []world.ASN
	dicts := make(map[world.ASN]bgp.Dictionary)
	for _, as := range e.W.ASes {
		if as.Type == world.Content && len(feedback) < 2 {
			feedback = append(feedback, as.ASN)
		}
		if d := bgp.BuildDictionary(e.W, as.ASN); d != nil {
			dicts[as.ASN] = d
		}
	}
	return &validation.Validator{
		W:              e.W,
		DB:             e.DB,
		Res:            e.Resolver,
		Dec:            e.Decoder,
		Svc:            e.Svc,
		FeedbackASes:   feedback,
		CommunityDicts: dicts,
	}
}

// DestinationSampleForDebug exposes the validator's destination sampling
// for diagnostic tools.
func DestinationSampleForDebug(res *cfs.Result, n int) []netaddr.IP {
	var ips []netaddr.IP
	for ip := range res.Interfaces {
		ips = append(ips, ip)
	}
	sortIPs(ips)
	if len(ips) <= n {
		return ips
	}
	step := len(ips) / n
	var out []netaddr.IP
	for i := 0; i < len(ips) && len(out) < n; i += step {
		out = append(out, ips[i])
	}
	return out
}

func sortIPs(ips []netaddr.IP) {
	sort.Slice(ips, func(i, j int) bool { return ips[i] < ips[j] })
}
