// Package facilitymap is a reproduction of "Mapping Peering
// Interconnections to a Facility" (Giotsas, Smaragdakis, Huffaker,
// Luckie, claffy — CoNEXT 2015): an implementation of Constrained
// Facility Search (CFS), the algorithm that infers the physical
// colocation facility where an interconnection between two networks is
// established, and the engineering approach used (public peering over an
// IXP, private cross-connect, tethering, or remote peering).
//
// Because the original study consumes the live Internet, this module
// ships a full synthetic substrate with known ground truth: an Internet
// generator (internal/world), a BGP and traceroute simulator, alias
// resolution, a PeeringDB-style registry with realistic gaps, and the
// four validation sources of the paper's §6. The CFS core consumes only
// the noisy observational views; the ground truth is used exclusively
// for validation.
//
// This package is the high-level facade: build a System, run the
// mapping, inspect per-interface inferences, validate, and print the
// paper's tables. The sub-packages under internal/ expose the full
// machinery for finer control (see the examples/ directory).
package facilitymap

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"facilitymap/internal/cfs"
	"facilitymap/internal/delta"
	"facilitymap/internal/experiments"
	"facilitymap/internal/netaddr"
	"facilitymap/internal/stats"
	"facilitymap/internal/validation"
	"facilitymap/internal/world"
)

// Config selects the world profile and search parameters.
type Config struct {
	// Profile is "small", "medium", "default", "paper" or "large"
	// (dataset scale; "large" is the internet-scale world — expect
	// generation alone to take seconds and the default iteration budget
	// to run for a long time).
	Profile string
	// Seed drives every random choice; equal seeds give equal worlds
	// and equal inferences. Every value — including 0 — is honored
	// verbatim: NewSystem never substitutes the profile's built-in
	// seed, so Config{Profile: "small"} and Config{Profile: "small",
	// Seed: 0} mean the same (seed-0) world. Use DefaultConfig for the
	// paper's canonical operating point (seed 42).
	Seed int64
	// MaxIterations bounds the CFS loop (paper: 100).
	MaxIterations int
	// Explain records, per interface, the constraints that produced its
	// inference; Lookup then returns them as Evidence.
	Explain bool
}

// DefaultConfig mirrors the paper's operating point on the default
// world profile.
func DefaultConfig() Config {
	return Config{Profile: "default", Seed: 42, MaxIterations: 100}
}

// System is a fully wired synthetic Internet plus measurement stack.
//
// After MapInterconnections, the System retains the live pipeline and
// the latest versioned snapshot: Apply folds registry or observation
// deltas in and re-converges incrementally, Current returns the most
// recently published mapping. Apply calls are serialized internally;
// Current is safe from any goroutine and always sees a complete,
// immutable snapshot.
type System struct {
	// Env exposes the underlying environment for advanced use (the
	// experiment harnesses, the raw world, the measurement service).
	Env *experiments.Env
	cfg Config

	mu   sync.Mutex // serializes MapInterconnections / Apply
	pipe *cfs.Pipeline
	cur  atomic.Pointer[Mapping]
}

// NewSystem generates the world and deploys the measurement platforms.
func NewSystem(cfg Config) (*System, error) {
	var wcfg world.Config
	switch cfg.Profile {
	case "", "default":
		wcfg = world.Default()
	case "small":
		wcfg = world.Small()
	case "medium":
		wcfg = world.Medium()
	case "paper":
		wcfg = world.PaperScale()
	case "large":
		wcfg = world.Large()
	default:
		return nil, fmt.Errorf("facilitymap: unknown profile %q", cfg.Profile)
	}
	// The configured seed is honored verbatim, zero included: silently
	// falling back to the profile default made Seed==0 the one value
	// that could not be asked for, and masked forgotten-seed bugs in
	// reproducibility harnesses.
	wcfg.Seed = cfg.Seed
	return &System{Env: experiments.NewEnv(wcfg, wcfg.Seed), cfg: cfg}, nil
}

// MapInterconnections runs the measurement campaigns and the CFS search,
// returning the converged mapping.
func (s *System) MapInterconnections() *Mapping {
	c := cfs.DefaultConfig()
	if s.cfg.MaxIterations > 0 {
		c.MaxIterations = s.cfg.MaxIterations
	}
	c.TraceProvenance = s.cfg.Explain
	s.mu.Lock()
	defer s.mu.Unlock()
	pipe, res := s.Env.RunCFSPipeline(c)
	m := newMapping(s, res, nil)
	s.pipe = pipe
	s.cur.Store(m)
	return m
}

// Apply folds a batch of deltas — facility-list edits, IXP membership
// changes, BGP sessions coming or going, cross-connects appearing or
// vanishing — into the system's view and re-converges incrementally,
// publishing and returning the next epoch's snapshot. The result is
// bit-for-bit the mapping a fresh run over the mutated inputs would
// produce (see the cfs package's differential tests for the exact
// regime). The snapshot's serving tables are built from its
// predecessor's before it is published. Requires a prior
// MapInterconnections. A batch naming a facility outside the registry is rejected whole with
// an error matching delta.ErrUnknownFacility.
func (s *System) Apply(log []delta.Delta) (*Mapping, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pipe == nil {
		return nil, fmt.Errorf("facilitymap: Apply before MapInterconnections")
	}
	res, err := s.pipe.ApplyDelta(log)
	if err != nil {
		return nil, err
	}
	m := newMapping(s, res, s.cur.Load())
	s.cur.Store(m)
	return m, nil
}

// Current returns the most recently published mapping snapshot, or nil
// before the first MapInterconnections. Snapshots are immutable; a
// concurrent Apply publishes a new one rather than mutating this one.
func (s *System) Current() *Mapping { return s.cur.Load() }

// Mapping is the outcome of one CFS run: the immutable result plus the
// query-serving tables derived from it. The tables are built before
// the mapping is returned or published, so every accessor is a table
// read and concurrent readers never race a build.
type Mapping struct {
	sys *System
	res *cfs.Result

	// order lists every interface resolved-first, then in ascending
	// address order — the Interfaces() and stream-dump ordering.
	order []netaddr.IP
	// index maps an interface address to its position in order.
	index map[netaddr.IP]int
	// infos[i] is the described record of order[i]; blobs[i] is its
	// JSON rendering. Both are immutable and may be shared with the
	// neighbouring epochs' snapshots.
	infos []InterfaceInfo
	blobs [][]byte
	// far[i] is the far-end AS of res.Links[i] (0 when unknown); with
	// the link's NearAS it is the link's key in ixn.
	far []world.ASN
	// ixn maps a normalized AS pair to indices into res.Links.
	ixn map[asPair][]int
	// summary is the snapshot digest, pre-computed so /v1/snapshot
	// never re-walks the router census per query.
	summary SnapshotSummary
}

// asPair is a normalized (lo <= hi) AS pair, the interconnection
// index key.
type asPair struct{ lo, hi world.ASN }

func pairKey(a, b world.ASN) asPair {
	if a > b {
		a, b = b, a
	}
	return asPair{a, b}
}

// Result exposes the raw CFS result for advanced consumers.
func (m *Mapping) Result() *cfs.Result { return m.res }

// Epoch is the snapshot's version number: 0 for the initial
// convergence, incremented by every Apply.
func (m *Mapping) Epoch() int { return m.res.Epoch }

// InterfaceInfo is the human-readable inference for one interface.
type InterfaceInfo struct {
	IP        string
	Owner     string // "AS64500 (Some Network)"
	Resolved  bool
	Facility  string // facility name when resolved
	City      string // metro when resolved or city-constrained
	Candidate []string
	Remote    bool // member reaches its IXP through a reseller
	Heuristic bool // placed by a §4.3/§4.4 heuristic, not set intersection
	// Evidence lists the constraints behind the inference when the
	// System was built with Explain.
	Evidence []string
}

// Lookup reports the inference for one interface address, read from
// the snapshot's table. Returned records share their slices with the
// snapshot — treat them as read-only.
//
//cfslint:hotpath
func (m *Mapping) Lookup(ip string) (InterfaceInfo, bool) {
	addr, err := netaddr.ParseIP(ip)
	if err != nil {
		return InterfaceInfo{}, false
	}
	i, ok := m.index[addr]
	if !ok {
		return InterfaceInfo{}, false
	}
	return m.infos[i], true
}

// interfaceOrder returns the snapshot's canonical listing order —
// resolved first, then ascending address — as a pre-sorted slice. The
// (ip, resolved) pairs are captured up front so the comparator never
// does map lookups (two per comparison adds up over n·log n compares
// on the internet-scale profile).
func interfaceOrder(interfaces map[netaddr.IP]*cfs.InterfaceResult) []netaddr.IP {
	type sortKey struct {
		ip       netaddr.IP
		resolved bool
	}
	keys := make([]sortKey, 0, len(interfaces))
	for ip, ir := range interfaces {
		keys = append(keys, sortKey{ip, ir.Resolved})
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].resolved != keys[j].resolved {
			return keys[i].resolved
		}
		return keys[i].ip < keys[j].ip
	})
	out := make([]netaddr.IP, len(keys))
	for i, k := range keys {
		out[i] = k.ip
	}
	return out
}

// Interfaces lists every inference, resolved first, in address order.
func (m *Mapping) Interfaces() []InterfaceInfo {
	out := make([]InterfaceInfo, len(m.infos))
	copy(out, m.infos)
	return out
}

// newMapping builds the serving tables for res. With a predecessor —
// the snapshot of the same System that res re-converged from, so
// Explain is on for both or for neither — every table whose inputs did
// not change is carried over instead of rebuilt:
//
//   - an interface whose InterfaceResult (and, under Explain, its
//     provenance notes) equals the predecessor's keeps its described
//     record and JSON blob;
//   - the listing order and address index carry over when the
//     interface set and every Resolved flag are unchanged;
//   - the AS-pair index carries over when every link's near AS and
//     far-end AS match, position by position.
//
// Reuse rests on describe reading nothing else that can change between
// epochs: the registry fields it consults — AS names, facility names
// and metro clusters — are mutated by no delta kind. The router census
// is recomputed every time. A nil prev renders everything.
func newMapping(sys *System, res *cfs.Result, prev *Mapping) *Mapping {
	m := &Mapping{sys: sys, res: res}
	m.buildListing(prev)
	m.buildRecords(prev)
	m.buildInterconnectionIndex(prev)
	m.summary = m.computeSummary()
	return m
}

// buildListing sets order and index, sharing the predecessor's when
// their sort keys — the interface set and the Resolved flags — are
// unchanged.
func (m *Mapping) buildListing(prev *Mapping) {
	if prev != nil && prev.sameListing(m.res.Interfaces) {
		m.order, m.index = prev.order, prev.index
		return
	}
	m.order = interfaceOrder(m.res.Interfaces)
	m.index = make(map[netaddr.IP]int, len(m.order))
	for i, ip := range m.order {
		m.index[ip] = i
	}
}

func (m *Mapping) sameListing(interfaces map[netaddr.IP]*cfs.InterfaceResult) bool {
	if len(m.order) != len(interfaces) {
		return false
	}
	for i, ip := range m.order {
		ir := interfaces[ip]
		if ir == nil || ir.Resolved != m.infos[i].Resolved {
			return false
		}
	}
	return true
}

// buildRecords fills infos and blobs: records whose inputs equal the
// predecessor's are shared with it, the rest are described and
// marshaled.
func (m *Mapping) buildRecords(prev *Mapping) {
	m.infos = make([]InterfaceInfo, len(m.order))
	m.blobs = make([][]byte, len(m.order))
	for i, ip := range m.order {
		if prev != nil {
			if j, ok := prev.index[ip]; ok && m.sameRecord(prev, ip) {
				m.infos[i], m.blobs[i] = prev.infos[j], prev.blobs[j]
				continue
			}
		}
		m.infos[i] = m.describe(m.res.Interfaces[ip])
		m.blobs[i], _ = json.Marshal(&m.infos[i])
	}
}

// sameRecord reports whether ip describes identically in m and prev:
// every InterfaceResult field is equal and, under Explain, so are its
// provenance notes.
func (m *Mapping) sameRecord(prev *Mapping, ip netaddr.IP) bool {
	a, b := prev.res.Interfaces[ip], m.res.Interfaces[ip]
	if a == nil || b == nil || !sameInference(a, b) {
		return false
	}
	return m.res.Provenance == nil || slices.Equal(prev.res.Provenance[ip], m.res.Provenance[ip])
}

// sameInference compares every field of two inferences.
// TestSameInferenceCoversEveryField fails when a field is added to
// cfs.InterfaceResult without being compared here.
func sameInference(a, b *cfs.InterfaceResult) bool {
	return a.IP == b.IP && a.Owner == b.Owner &&
		slices.Equal(a.Candidates, b.Candidates) &&
		a.Facility == b.Facility && a.Resolved == b.Resolved &&
		a.CityCluster == b.CityCluster && a.CityConstrain == b.CityConstrain &&
		a.ViaProximity == b.ViaProximity && a.ViaFarEnd == b.ViaFarEnd &&
		a.RemoteMember == b.RemoteMember
}

// Materialize does nothing; it is kept so existing callers still
// compile. Every snapshot carries complete serving tables from the
// moment MapInterconnections, Apply or MergeMappings returns it.
func (m *Mapping) Materialize(workers int) {}

// InterfaceJSON returns the pre-rendered JSON record (the InterfaceInfo
// shape) for one interface address. The returned bytes are shared and
// immutable.
//
//cfslint:hotpath
func (m *Mapping) InterfaceJSON(ip string) ([]byte, bool) {
	addr, err := netaddr.ParseIP(ip)
	if err != nil {
		return nil, false
	}
	i, ok := m.index[addr]
	if !ok {
		return nil, false
	}
	return m.blobs[i], true
}

// EachInterfaceJSON calls yield with every interface's pre-rendered
// JSON record in the snapshot's listing order (resolved first, then
// ascending address) until yield returns false. The bytes are shared
// and immutable; the daemon's stream endpoint writes them verbatim.
//
//cfslint:hotpath
func (m *Mapping) EachInterfaceJSON(yield func(rec []byte) bool) {
	for _, b := range m.blobs {
		if !yield(b) {
			return
		}
	}
}

func (m *Mapping) describe(ir *cfs.InterfaceResult) InterfaceInfo {
	env := m.sys.Env
	info := InterfaceInfo{
		IP:        ir.IP.String(),
		Resolved:  ir.Resolved,
		Remote:    ir.RemoteMember,
		Heuristic: ir.ViaFarEnd || ir.ViaProximity,
	}
	if ir.Owner != 0 {
		info.Owner = fmt.Sprintf("%v (%s)", ir.Owner, env.DB.ASName(ir.Owner))
	}
	for _, f := range ir.Candidates {
		if rec, ok := env.DB.Facilities[f]; ok {
			info.Candidate = append(info.Candidate, rec.Name)
		}
	}
	if ir.Resolved {
		if rec, ok := env.DB.Facilities[ir.Facility]; ok {
			info.Facility = rec.Name
		}
		if c, ok := env.DB.MetroClusterOf(ir.Facility); ok {
			info.City = env.DB.ClusterName(c)
		}
	} else if ir.CityConstrain {
		info.City = env.DB.ClusterName(ir.CityCluster)
	}
	if m.res.Provenance != nil {
		// Deduplicate: constraints reapply every iteration.
		seen := make(map[string]bool)
		for _, ev := range m.res.Provenance[ir.IP] {
			if !seen[ev] {
				seen[ev] = true
				info.Evidence = append(info.Evidence, ev)
			}
		}
	}
	return info
}

// Interconnection is one classified peering link between two ASes, in
// the JSON shape the query API serves.
type Interconnection struct {
	// NearIP is the near-end peering interface; FarIP is the far
	// interface (private links) or the far member's IXP port (public
	// links), empty when the far side was never observed.
	NearIP string `json:"near_ip"`
	FarIP  string `json:"far_ip,omitempty"`
	NearAS int    `json:"near_as"`
	FarAS  int    `json:"far_as"`
	// Type is the engineering approach: public-local, public-remote,
	// cross-connect, tethering or private-unknown.
	Type string `json:"type"`
	// IXP names the exchange crossed by a public link.
	IXP string `json:"ixp,omitempty"`
	// Facility and City locate the link where its near end resolved.
	Facility string `json:"facility,omitempty"`
	City     string `json:"city,omitempty"`
	Resolved bool   `json:"resolved"`
}

// Interconnections lists every classified link between the two ASes
// (order-insensitive), in the snapshot's deterministic link order. The
// paper's §8 query — "which interconnections does this AS pair have,
// and where are they established" — served from the epoch's immutable
// snapshot.
func (m *Mapping) Interconnections(a, b int) []Interconnection {
	idx := m.ixn[pairKey(world.ASN(a), world.ASN(b))]
	out := make([]Interconnection, 0, len(idx))
	for _, i := range idx {
		out = append(out, m.describeLink(m.res.Links[i]))
	}
	return out
}

// ASPairs returns the number of distinct AS pairs with at least one
// classified interconnection in this snapshot.
func (m *Mapping) ASPairs() int {
	return len(m.ixn)
}

// buildInterconnectionIndex folds res.Links into the per-AS-pair
// index, or shares the predecessor's when every link's key is
// unchanged. The far-end AS of a public link is the owner of the
// replying IXP port, resolved through the snapshot's own interface
// inferences (the same rule the resilience analyzer applies). Every
// pair's link list is in ascending link order.
func (m *Mapping) buildInterconnectionIndex(prev *Mapping) {
	links := m.res.Links
	m.far = make([]world.ASN, len(links))
	same := prev != nil && len(prev.far) == len(links)
	for i, l := range links {
		m.far[i] = m.farASOf(l)
		if same && (m.far[i] != prev.far[i] || l.NearAS != prev.res.Links[i].NearAS) {
			same = false
		}
	}
	if same {
		m.ixn = prev.ixn
		return
	}
	idx := make(map[asPair][]int)
	for i, l := range links {
		near, far := l.NearAS, m.far[i]
		if near == 0 || far == 0 || far == near {
			continue
		}
		key := pairKey(near, far)
		idx[key] = append(idx[key], i)
	}
	m.ixn = idx
}

func (m *Mapping) farASOf(l *cfs.Adjacency) world.ASN {
	if !l.Public {
		return l.FarAS
	}
	if ir := m.res.Interfaces[l.FarPort]; ir != nil {
		return ir.Owner
	}
	return 0
}

// describeLink renders one adjacency in the query-API shape.
func (m *Mapping) describeLink(l *cfs.Adjacency) Interconnection {
	env := m.sys.Env
	out := Interconnection{
		NearIP: l.Near.String(),
		NearAS: int(l.NearAS),
		FarAS:  int(m.farASOf(l)),
		Type:   l.Type.String(),
	}
	if l.Public {
		if l.FarPort != 0 {
			out.FarIP = l.FarPort.String()
		}
		if rec, ok := env.DB.IXPs[l.IXP]; ok {
			out.IXP = rec.Name
		}
	} else if l.Far != 0 {
		out.FarIP = l.Far.String()
	}
	if ir := m.res.Interfaces[l.Near]; ir != nil && ir.Resolved {
		out.Resolved = true
		if rec, ok := env.DB.Facilities[ir.Facility]; ok {
			out.Facility = rec.Name
		}
		if c, ok := env.DB.MetroClusterOf(ir.Facility); ok {
			out.City = env.DB.ClusterName(c)
		}
	}
	return out
}

// ValidationSummary condenses the §6 validation of a run.
type ValidationSummary struct {
	Overall       validation.Count
	BySource      map[string]validation.Count
	CityLevel     validation.Count
	RemotePeering validation.Count
}

// Validate scores the mapping against the paper's four ground-truth
// sources (direct feedback, BGP communities, DNS records, IXP websites).
func (m *Mapping) Validate() ValidationSummary {
	rep := m.sys.Env.Validator().Validate(m.res)
	out := ValidationSummary{
		Overall:       rep.Overall(),
		BySource:      make(map[string]validation.Count),
		CityLevel:     rep.CityLevel,
		RemotePeering: rep.RemotePeering,
	}
	for cell, c := range rep.Cells {
		got := out.BySource[cell.Source.String()]
		got.Correct += c.Correct
		got.Total += c.Total
		out.BySource[cell.Source.String()] = got
	}
	return out
}

// Summary renders a short report: coverage, convergence, router roles.
func (m *Mapping) Summary() string {
	res := m.res
	census := res.Census()
	t := stats.NewTable("Constrained Facility Search — run summary", "metric", "value")
	t.AddRow("peering interfaces observed", fmt.Sprint(len(res.Interfaces)))
	t.AddRow("resolved to a single facility", fmt.Sprint(res.Resolved()))
	t.AddRow("resolved fraction", stats.Pct(res.ResolvedFraction()))
	t.AddRow("CFS iterations", fmt.Sprint(len(res.History)))
	t.AddRow("routers observed", fmt.Sprint(census.Routers))
	t.AddRow("multi-role routers", fmt.Sprint(census.MultiRole))
	t.AddRow("multi-IXP routers", fmt.Sprint(census.MultiIXP))
	t.AddRow("far-end placements (§4.3)", fmt.Sprint(res.FarEndInferences))
	t.AddRow("proximity placements (§4.4)", fmt.Sprint(res.ProximityInferences))
	return t.Render()
}

// MergeMappings combines several runs into one incremental map (§8 of
// the paper): candidate facility sets intersect across runs, so a later
// campaign can collapse interfaces an earlier one left ambiguous. All
// mappings must come from the same System.
func MergeMappings(mappings ...*Mapping) *Mapping {
	if len(mappings) == 0 {
		return nil
	}
	results := make([]*cfs.Result, 0, len(mappings))
	for _, m := range mappings {
		results = append(results, m.res)
	}
	return newMapping(mappings[0].sys, cfs.Merge(results...), nil)
}

// SnapshotSummary is the JSON-shaped digest of one snapshot: the epoch
// stamp plus coverage and convergence statistics. It is the "summary"
// block of WriteJSON and the body of the daemon's /v1/snapshot.
type SnapshotSummary struct {
	// Epoch identifies which versioned snapshot this summary (and any
	// dump carrying it) describes — without it, tooling replaying a
	// delta log cannot tell which epoch a JSON dump belongs to.
	Epoch               int     `json:"epoch"`
	Interfaces          int     `json:"interfaces"`
	Resolved            int     `json:"resolved"`
	ResolvedFraction    float64 `json:"resolved_fraction"`
	Iterations          int     `json:"iterations"`
	Routers             int     `json:"routers"`
	MultiRoleRouters    int     `json:"multi_role_routers"`
	MultiIXPRouters     int     `json:"multi_ixp_routers"`
	FarEndPlacements    int     `json:"far_end_placements"`
	ProximityPlacements int     `json:"proximity_placements"`
}

// Summarize condenses the snapshot into its JSON-shaped digest.
func (m *Mapping) Summarize() SnapshotSummary { return m.summary }

func (m *Mapping) computeSummary() SnapshotSummary {
	census := m.res.Census()
	return SnapshotSummary{
		Epoch:               m.res.Epoch,
		Interfaces:          len(m.res.Interfaces),
		Resolved:            m.res.Resolved(),
		ResolvedFraction:    m.res.ResolvedFraction(),
		Iterations:          len(m.res.History),
		Routers:             census.Routers,
		MultiRoleRouters:    census.MultiRole,
		MultiIXPRouters:     census.MultiIXP,
		FarEndPlacements:    m.res.FarEndInferences,
		ProximityPlacements: m.res.ProximityInferences,
	}
}

// WriteJSON emits the mapping as machine-readable JSON: a summary
// (epoch first, so dumps from different epochs are distinguishable)
// plus one record per interface (resolved first). Downstream tooling
// can consume this instead of the text tables.
func (m *Mapping) WriteJSON(w io.Writer) error {
	doc := struct {
		Summary    SnapshotSummary `json:"summary"`
		Interfaces []InterfaceInfo `json:"interfaces"`
	}{Summary: m.Summarize(), Interfaces: m.Interfaces()}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
