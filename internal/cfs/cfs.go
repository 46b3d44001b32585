// Package cfs implements the paper's contribution: Constrained Facility
// Search (§4). Given traceroute observations, public facility/IXP data,
// alias resolution and remote-peering detection, it infers for each
// observed peering interface the physical facility hosting its router,
// and for each interconnection the engineering approach used (public
// peering, cross-connect, tethering, remote peering).
//
// The algorithm iterates four steps until convergence or timeout:
//
//  1. classify traceroute adjacencies into public ((IP_A, IP_ixp, IP_B))
//     and private ((IP_A, IP_B)) peerings;
//  2. constrain the near-end interface to the intersection of the
//     involved parties' facility sets, using remote-peering detection
//     when the intersection is empty;
//  3. propagate constraints across alias sets (all interfaces of one
//     router share one facility);
//  4. launch targeted follow-up traceroutes chosen to shrink the
//     candidate sets of still-unresolved interfaces.
//
// The package consumes only observational inputs — the registry, the
// IP-to-ASN service, the measurement platforms — never ground truth.
package cfs

import (
	"time"

	"facilitymap/internal/alias"
	"facilitymap/internal/ip2asn"
	"facilitymap/internal/netaddr"
	"facilitymap/internal/obs"
	"facilitymap/internal/platform"
	"facilitymap/internal/registry"
	"facilitymap/internal/remote"
	"facilitymap/internal/world"
)

// Config tunes the search and enables ablations.
type Config struct {
	// MaxIterations bounds the CFS loop (the paper uses 100, §5).
	MaxIterations int
	// FollowUpBudget caps targeted traceroutes per iteration.
	FollowUpBudget int
	// TargetsPerInterface caps follow-up targets per unresolved
	// interface per iteration.
	TargetsPerInterface int
	// VPsPerTarget caps vantage points per follow-up target.
	VPsPerTarget int
	// MDAFlows enables multipath exploration on follow-up traceroutes:
	// each probe tries this many flow labels, exposing redundant
	// equal-cost interconnections. 0 disables (plain Paris probes).
	MDAFlows int
	// Platforms usable for targeted measurements (Figure 7 runs CFS
	// with all platforms, Atlas-only and LG-only).
	Platforms []platform.Kind
	// AliasRounds lists the iterations (1-based) before which alias
	// resolution re-runs over the grown interface pool.
	AliasRounds []int

	// Ablation switches.
	UseAliasResolution bool
	UseTargeted        bool
	UseRemoteDetection bool
	UseProximity       bool

	// TraceProvenance records, per interface, the constraints applied
	// (for debugging and explainability; costs memory).
	TraceProvenance bool

	// Obs is the observability sink: metrics (iteration work counters,
	// phase durations, narrowings) and structured events (iterations,
	// constraint passes, alias rounds, follow-up planning). nil disables
	// both at the cost of one nil test per update site. Observation is
	// strictly one-way — no inference ever reads a metric — so runs with
	// and without Obs produce bit-for-bit identical Results.
	Obs *obs.Obs
}

// DefaultConfig mirrors the paper's operating point.
func DefaultConfig() Config {
	return Config{
		MaxIterations:       100,
		FollowUpBudget:      400,
		TargetsPerInterface: 3,
		VPsPerTarget:        2,
		Platforms:           platform.Kinds(),
		AliasRounds:         []int{1, 5, 15, 40, 70},
		UseAliasResolution:  true,
		UseTargeted:         true,
		UseRemoteDetection:  true,
		UseProximity:        true,
	}
}

// Pipeline wires the observational inputs together.
type Pipeline struct {
	cfg    Config
	db     *registry.Database
	ipasn  *ip2asn.Service
	svc    *platform.Service
	det    *remote.Detector
	prober *alias.Prober

	// fs interns the facility-set universe: the dense bit-slot index
	// plus per-AS and per-IXP bitsets. Built once here (the registry is
	// immutable within a run) and shared read-only by every state.
	fs *facsets

	// m holds the pre-resolved observability handles (all nil-safe
	// no-ops when cfg.Obs is nil).
	m pipelineMetrics

	// now supplies wall-clock readings for IterationStats.WallTime. It
	// is the only clock in the package and never influences an
	// inference; injectable so tests can pin it.
	now func() time.Time

	// newEngine builds the iteration core over a fresh state: the
	// worklist (worklist.go). Tests install the paper-literal rescan
	// loop here as the oracle the worklist is checked against.
	newEngine func(*state) engine

	// Incremental-convergence state, populated by the first run and
	// consumed by ApplyDelta: the converged engine state and the engine
	// over it, the retained observation corpus (initial paths and
	// sessions plus every targeted follow-up path, as a plain corpus),
	// and the snapshot epoch counter. epoch 0 is the initial run; each
	// ApplyDelta publishes epoch+1.
	st    *state
	eng   engine
	obsIn Observations
	epoch int
	// plan is obsIn.Paths compiled for re-ingestion (ingest.go); nil
	// until the first re-ingestion after a run, and after a batch that
	// took a path out of the corpus.
	plan *ingestPlan

	// What a surgical epoch carries forward from the one before it (see
	// finish): the last published Result, the addresses its post-passes
	// placed, the pool addresses counted in its MissingFacilityData, the
	// converged state's pool tallies, and the §4.4 ranking, which the
	// post-pass relearns in place every epoch.
	last    *Result
	placed  map[netaddr.IP]placement
	missing map[netaddr.IP]bool
	tally   poolTally
	px      *Proximity
}

// pipelineMetrics are the CFS loop's observability handles, resolved
// once at construction so the loop pays no registry lookups.
type pipelineMetrics struct {
	iterations  *obs.Counter // cfs.iterations
	aliasRounds *obs.Counter // cfs.alias_rounds
	dirtyAdjs   *obs.Counter // cfs.constraint.dirty_adjs
	recomputed  *obs.Counter // cfs.recomputed (constraint + alias)
	narrowings  *obs.Counter // cfs.narrowings
	followUps   *obs.Counter // cfs.followups
	newAdjs     *obs.Counter // cfs.new_adjacencies
	conflicts   *obs.Gauge   // cfs.conflicts
	resolved    *obs.Gauge   // cfs.resolved
	observed    *obs.Gauge   // cfs.observed

	// Delta-ingestion observability: deltas folded in, adjacencies
	// re-dirtied per epoch, the published snapshot version, and the
	// alias rounds the prober answered from its memo of the last
	// resolution from a reset stream.
	deltasApplied *obs.Counter // cfs.delta.applied
	deltaRedirty  *obs.Counter // cfs.delta.redirtied
	snapshotVer   *obs.Gauge   // cfs.snapshot.version
	aliasReplayed *obs.Counter // cfs.alias_rounds_replayed

	phaseIngest       *obs.Histogram // cfs.phase.ingest
	phaseAliasResolve *obs.Histogram // cfs.phase.alias_resolve
	phaseConstraint   *obs.Histogram // cfs.phase.constraint
	phaseAlias        *obs.Histogram // cfs.phase.alias
	phaseFollowUp     *obs.Histogram // cfs.phase.followup
	iterWall          *obs.Histogram // cfs.iteration.wall

	tracer *obs.Tracer
}

// emit forwards a structured event to the pipeline's tracer; a no-op
// when observability is off. Events carry only structural quantities
// (counts, iteration numbers), never wall-clock readings, so a trace
// log replays identically across runs of the same seed.
func (p *Pipeline) emit(kind string, fields ...obs.Field) {
	p.m.tracer.Emit(kind, fields...)
}

func resolveMetrics(o *obs.Obs) pipelineMetrics {
	m := pipelineMetrics{
		iterations:        o.Counter("cfs.iterations"),
		aliasRounds:       o.Counter("cfs.alias_rounds"),
		dirtyAdjs:         o.Counter("cfs.constraint.dirty_adjs"),
		recomputed:        o.Counter("cfs.recomputed"),
		narrowings:        o.Counter("cfs.narrowings"),
		followUps:         o.Counter("cfs.followups"),
		newAdjs:           o.Counter("cfs.new_adjacencies"),
		conflicts:         o.Gauge("cfs.conflicts"),
		resolved:          o.Gauge("cfs.resolved"),
		observed:          o.Gauge("cfs.observed"),
		deltasApplied:     o.Counter("cfs.delta.applied"),
		deltaRedirty:      o.Counter("cfs.delta.redirtied"),
		snapshotVer:       o.Gauge("cfs.snapshot.version"),
		aliasReplayed:     o.Counter("cfs.alias_rounds_replayed"),
		phaseIngest:       o.Histogram("cfs.phase.ingest"),
		phaseAliasResolve: o.Histogram("cfs.phase.alias_resolve"),
		phaseConstraint:   o.Histogram("cfs.phase.constraint"),
		phaseAlias:        o.Histogram("cfs.phase.alias"),
		phaseFollowUp:     o.Histogram("cfs.phase.followup"),
		iterWall:          o.Histogram("cfs.iteration.wall"),
	}
	if o != nil {
		m.tracer = o.Tracer
	}
	return m
}

// New builds a pipeline. det and prober may be nil when the matching
// config switches are off. The error is always nil: no configuration
// is invalid any more, and the result stays for the callers (e2ebench
// among them) that check it.
func New(cfg Config, db *registry.Database, ipasn *ip2asn.Service,
	svc *platform.Service, det *remote.Detector, prober *alias.Prober) (*Pipeline, error) {
	return &Pipeline{
		cfg: cfg, db: db, ipasn: ipasn, svc: svc, det: det, prober: prober,
		fs:        newFacsets(db),
		m:         resolveMetrics(cfg.Obs),
		px:        NewProximity(),
		newEngine: func(st *state) engine { return newWorklist(st) },
		//cfslint:ignore noclock the injected-clock boundary itself: wall time enters the pipeline only here, feeds IterationStats.WallTime, and never an inference; tests swap it out
		now: time.Now,
	}, nil
}

// LinkType is the inferred engineering approach of an interconnection.
type LinkType int

const (
	// PublicLocal: public peering with the near member colocated at an
	// IXP facility.
	PublicLocal LinkType = iota
	// PublicRemote: public peering with the near member reaching the
	// IXP through a reseller.
	PublicRemote
	// PrivateCrossConnect: private interconnect inside a shared
	// facility.
	PrivateCrossConnect
	// PrivateTethering: private VLAN over a shared IXP fabric.
	PrivateTethering
	// PrivateUnknown: private interconnect with no shared facility or
	// fabric in the data (long-haul circuit or missing data).
	PrivateUnknown
)

func (t LinkType) String() string {
	switch t {
	case PublicLocal:
		return "public-local"
	case PublicRemote:
		return "public-remote"
	case PrivateCrossConnect:
		return "cross-connect"
	case PrivateTethering:
		return "tethering"
	case PrivateUnknown:
		return "private-unknown"
	default:
		return "invalid"
	}
}

// Adjacency is one classified peering observation from a traceroute.
type Adjacency struct {
	// Near is the near-end peering interface (IP_A in the paper).
	Near netaddr.IP
	// NearAS is IP_A's (repaired) owner.
	NearAS world.ASN
	// Public marks an IXP crossing; IXP and FarPort describe it.
	Public  bool
	IXP     world.IXPID
	FarPort netaddr.IP // the IXP-LAN address replying (far router's port)
	// FarAS/Far are set for private adjacencies: the next hop interface
	// and its owner.
	Far   netaddr.IP
	FarAS world.ASN

	Type LinkType
}

// farEnd is the adjacency's far address: the far member's IXP port for
// a public crossing, the far interface of a private one.
func (a *Adjacency) farEnd() netaddr.IP {
	if a.Public {
		return a.FarPort
	}
	return a.Far
}

// InterfaceResult is the final inference for one interface.
type InterfaceResult struct {
	IP    netaddr.IP
	Owner world.ASN // zero when the owner could not be established
	// Candidates is the final candidate facility set; nil when the
	// search never obtained a constraint.
	Candidates []world.FacilityID
	// Facility is set when Candidates collapsed to exactly one.
	Facility world.FacilityID
	Resolved bool
	// CityCluster is set when all candidates share one metro cluster
	// ("constrain the location to a single city", §5).
	CityCluster   int
	CityConstrain bool
	// ViaProximity marks far-end ports placed by the switch-proximity
	// heuristic rather than by set intersection.
	ViaProximity bool
	// ViaFarEnd marks cross-connect far ends placed by the §4.3
	// same-building inference.
	ViaFarEnd bool
	// RemoteMember marks interfaces of IXP members inferred to peer
	// remotely.
	RemoteMember bool
}

// IterationStats is one row of the convergence curve (Figure 7).
type IterationStats struct {
	Iteration  int
	Observed   int // peering interfaces in the pool
	Resolved   int // collapsed to a single facility
	CityOnly   int // constrained to one metro but not one facility
	FollowUps  int // targeted traceroutes issued this iteration
	NewAdjs    int // adjacencies added this iteration
	Conflicts  int // distinct conflicts discovered so far (cumulative)
	RemoteSeen int // interfaces flagged remote so far

	// DirtyAdjs counts the adjacencies the constraint step visited this
	// iteration: the worklist's popped dirty set (the rescan oracle in
	// the tests visits the whole adjacency list).
	DirtyAdjs int
	// Recomputed counts constraint proposals plus alias-set
	// intersections actually recomputed this iteration — the engine's
	// per-iteration work, and the number the worklist core shrinks.
	Recomputed int
	// WallTime is the wall-clock cost of the iteration, including any
	// follow-up measurements. Purely observational: it never feeds an
	// inference and is ignored by the equivalence tests.
	WallTime time.Duration
}

// Result is the full outcome of one CFS convergence. Results are
// immutable snapshots: nothing in one is shared with the live engine
// state, so a Result stays valid — and safe to serve concurrently —
// while later ApplyDelta epochs re-converge. A surgical epoch's Result
// shares every record, link and provenance list it did not change with
// its predecessor; shared values are never written again.
type Result struct {
	Interfaces map[netaddr.IP]*InterfaceResult
	Links      []*Adjacency
	History    []IterationStats

	// Epoch is the snapshot version: 0 for the initial run, then one
	// per ApplyDelta. History covers only this epoch's convergence.
	Epoch int

	// aliasSetOf maps an address to its alias-set ID (router identity)
	// for the census; nil when alias resolution was disabled.
	aliasSetOf func(netaddr.IP) int
	// census is the router census, computed once when the pipeline
	// publishes the Result; nil for a Merge, whose Census computes it.
	census *RouterCensus
	// changed is the change set a surgical epoch reports; nil for every
	// other Result. See Changed.
	changed *changeSet

	// Provenance lists the constraints applied per interface, in order,
	// when Config.TraceProvenance was set.
	Provenance map[netaddr.IP][]string

	// MissingFacilityData counts unresolved interfaces whose owner has
	// no facility data at all (§5: 33% of unresolved interfaces).
	MissingFacilityData int
	// ProximityInferences counts far-end placements by the heuristic.
	ProximityInferences int
	// FarEndInferences counts cross-connect far ends placed by the
	// same-building rule (§4.3).
	FarEndInferences int
	// MergeConflicts counts interfaces whose candidate sets disagreed
	// outright when results were combined with Merge.
	MergeConflicts int
}

// changeSet lists what a surgical epoch's Result changed relative to
// its predecessor, each in ascending order. touched is the part of
// interfaces the drain reset or re-ran (touchSet.ips); the tests hold
// every narrowing of the epoch to it.
type changeSet struct {
	interfaces []netaddr.IP
	links      []int
	touched    []netaddr.IP
}

// Changed reports what r changed relative to the Result its pipeline
// published before it (epoch r.Epoch-1). ok is true only for a
// surgical epoch (facility-list deltas or an empty batch): interfaces
// then lists, in ascending address order, every address whose record
// the epoch rebuilt — the interfaces the edit reset or re-constrained,
// plus every §4.3/§4.4 post-pass placement made, dropped or redone
// since the predecessor — and links lists, in ascending order, the
// indices into Links of every adjacency the epoch re-classified. Every
// other record, link and provenance list is the predecessor's own
// value, and the two Results hold the same interface set and the same
// link endpoints. A listed record or link may still equal its
// predecessor's. For the initial run, a re-ingestion epoch and a
// Merge, ok is false. The lists are shared; treat them as read-only.
func (r *Result) Changed() (interfaces []netaddr.IP, links []int, ok bool) {
	if r.changed == nil {
		return nil, nil, false
	}
	return r.changed.interfaces, r.changed.links, true
}

// Resolved returns the number of interfaces mapped to a single facility.
func (r *Result) Resolved() int {
	n := 0
	for _, ir := range r.Interfaces {
		if ir.Resolved {
			n++
		}
	}
	return n
}

// ResolvedFraction returns Resolved()/len(Interfaces).
func (r *Result) ResolvedFraction() float64 {
	if len(r.Interfaces) == 0 {
		return 0
	}
	return float64(r.Resolved()) / float64(len(r.Interfaces))
}
