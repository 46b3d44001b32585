package cfs

import (
	"fmt"
	"sort"

	"facilitymap/internal/alias"
	"facilitymap/internal/netaddr"
	"facilitymap/internal/platform"
	"facilitymap/internal/trace"
	"facilitymap/internal/world"
)

// facset (see facset.go) is a candidate facility set: a dense bitset
// over the pipeline's interned facility index.

type portKey struct {
	as world.ASN
	ix world.IXPID
}

type adjKey struct {
	near, far netaddr.IP
}

type state struct {
	p *Pipeline

	pool     []netaddr.IP // peering interfaces under study, discovery order
	inPool   map[netaddr.IP]bool
	cand     map[netaddr.IP]facset // nil entry: unconstrained
	owner    map[netaddr.IP]world.ASN
	repaired map[netaddr.IP]world.ASN

	sets *alias.Sets

	adjs     map[adjKey]*Adjacency
	adjOrder []*Adjacency

	observedBy  map[netaddr.IP][]*platform.VantagePoint
	vpsByRouter map[world.RouterID]*platform.VantagePoint
	usedTargets map[netaddr.IP]map[world.ASN]bool
	queriedIXPs map[netaddr.IP]map[world.IXPID]bool

	portOf      map[portKey]netaddr.IP
	remoteCache map[portKey]int // 0 untested, 1 remote, 2 local, 3 untestable
	remoteIface map[netaddr.IP]bool
	// pinned holds authoritative IP-to-ASN mappings from looking-glass
	// session listings; they outrank alias repair and prefix matching.
	pinned map[netaddr.IP]world.ASN

	// conflicts counts distinct conflicts. Counting is transition-based
	// — a given adjacency side or alias set increments it at most once
	// per cause (adjConflicts / setConflicts record what was already
	// counted) — so the rescan oracle in the tests, which keeps
	// re-attempting the same doomed intersections, agrees with the
	// worklist, which never revisits them.
	conflicts    int
	adjConflicts map[adjConflictKey]bool
	setConflicts map[netaddr.IP]bool // keyed by the set's first member
	changed      bool

	// wl is the dirty-set tracker when the worklist drives this state;
	// nil under the rescan oracle the tests run. constrain reports every
	// candidate-set narrowing to it so dependent alias sets re-enqueue.
	wl *worklist

	// allASNs caches the (static, sorted) origin-AS list the target
	// scan walks, so it is not re-sorted per call.
	allASNs []world.ASN
	// origins is allASNs with each AS's interned footprint, restricted
	// to the ASes that have one. Built on a targeted round's first
	// pickTargets call and dropped when the round ends, so a registry
	// delta between runs can never leave it stale.
	origins []originAS
	// targets answers targetAddress. Built on a targeted round's first
	// call and dropped when the round ends, like origins.
	targets *targetIndex
	// picks is the list of scored targets pickTargets fills, reused
	// across calls.
	picks []scoredTarget
	// events is processPath's classified-hop buffer, reused for every
	// ingested path: the whole loop runs on one goroutine.
	events []adjEvent

	// prov records constraint provenance per IP when tracing is on.
	prov map[netaddr.IP][]string
	// provBase is, per IP, the length of prov right after ingestion —
	// the pinned-owner prefix that survives a surgical delta reset
	// (everything after it is re-derived narrowing history).
	provBase map[netaddr.IP]int
}

// captureProvBase snapshots the post-ingestion provenance lengths.
// Run calls it once, after paths and sessions folded in and before
// iteration 1: the only provenance written by ingestion is the pin
// entries, and those are exactly what a delta reset must keep.
func (st *state) captureProvBase() {
	if st.prov == nil {
		return
	}
	st.provBase = make(map[netaddr.IP]int, len(st.prov))
	for ip, notes := range st.prov {
		st.provBase[ip] = len(notes)
	}
}

func (p *Pipeline) newState() *state {
	st := &state{
		p:           p,
		inPool:      make(map[netaddr.IP]bool),
		cand:        make(map[netaddr.IP]facset),
		owner:       make(map[netaddr.IP]world.ASN),
		repaired:    make(map[netaddr.IP]world.ASN),
		adjs:        make(map[adjKey]*Adjacency),
		observedBy:  make(map[netaddr.IP][]*platform.VantagePoint),
		vpsByRouter: make(map[world.RouterID]*platform.VantagePoint),
		usedTargets: make(map[netaddr.IP]map[world.ASN]bool),
		queriedIXPs: make(map[netaddr.IP]map[world.IXPID]bool),
		portOf:      make(map[portKey]netaddr.IP),
		remoteCache: make(map[portKey]int),
		remoteIface: make(map[netaddr.IP]bool),

		adjConflicts: make(map[adjConflictKey]bool),
		setConflicts: make(map[netaddr.IP]bool),
	}
	if p.cfg.TraceProvenance {
		st.prov = make(map[netaddr.IP][]string)
	}
	st.allASNs = p.ipasn.AllASNs()
	// Offline mode (pre-collected traceroutes, no measurement service)
	// runs without vantage-point bookkeeping; step 4 requires a service.
	if p.svc != nil {
		for _, vp := range p.svc.Fleet().VPs {
			if _, ok := st.vpsByRouter[vp.Router]; !ok {
				st.vpsByRouter[vp.Router] = vp
			}
		}
	}
	return st
}

// ownerOf resolves an address's AS: the alias-repaired mapping when
// available, then PeeringDB netixlan port records for peering-LAN
// addresses (which BGP does not cover), then the raw longest-prefix
// mapping.
func (st *state) ownerOf(ip netaddr.IP) (world.ASN, bool) {
	if asn, ok := st.pinned[ip]; ok {
		return asn, true
	}
	if asn, ok := st.repaired[ip]; ok {
		return asn, true
	}
	if asn, ok := st.owner[ip]; ok {
		return asn, true
	}
	if asn, ok := st.p.db.PortOwner(ip); ok {
		st.owner[ip] = asn
		return asn, true
	}
	asn, ok := st.p.ipasn.Lookup(ip)
	if ok {
		st.owner[ip] = asn
	}
	return asn, ok
}

func (st *state) addToPool(ip netaddr.IP) {
	if !st.inPool[ip] {
		st.inPool[ip] = true
		st.pool = append(st.pool, ip)
	}
}

func (st *state) observe(ip netaddr.IP, vp *platform.VantagePoint) {
	if vp == nil {
		return
	}
	for _, prev := range st.observedBy[ip] {
		if prev == vp {
			return
		}
	}
	st.observedBy[ip] = append(st.observedBy[ip], vp)
}

// adjEvent is one classified hop pair: the pure outcome of Step 1 for
// a single adjacency, before any state mutation. `other` is the far
// IXP port for public events and the far /30 side for private ones.
type adjEvent struct {
	near, other netaddr.IP
	public      bool
	ix          world.IXPID
	portAS      world.ASN // far port's owner, for the portOf index
	hasPortAS   bool
}

// classifyPath is the lookup half of Step 1 (§4.2): it turns one
// traceroute into adjacency events with classifyPair, appending to
// events. It pairs consecutive responsive hops straight from
// path.Hops, skipping silent hops and zero addresses by the rule
// trace.Path.ResponsiveHops applies.
func (st *state) classifyPath(path trace.Path, events []adjEvent) []adjEvent {
	var prev netaddr.IP // the last responsive hop; zero before the first
	for _, hop := range path.Hops {
		if !hop.Responded || hop.IP == 0 {
			continue
		}
		h1, h2 := prev, hop.IP
		prev = h2
		if h1 == 0 {
			continue
		}
		if ev, ok := st.classifyPair(h1, h2); ok {
			events = append(events, ev)
		}
	}
	return events
}

// classifyPair classifies one pair of consecutive responsive hops
// using only the IXP prefix trie and ownership resolution; ok is false
// when the pair is no peering adjacency.
func (st *state) classifyPair(h1, h2 netaddr.IP) (ev adjEvent, ok bool) {
	if ix, isIXP := st.p.db.IXPByIP(h2); isIXP {
		// Public peering (IP_A, IP_ixp, ...): the near interface h1
		// belongs to the near member's router; h2 is the far router's
		// port on the IXP LAN.
		if _, nearIXP := st.p.db.IXPByIP(h1); nearIXP {
			return ev, false // consecutive IXP hops: ambiguous, discard
		}
		if _, known := st.ownerOf(h1); !known {
			return ev, false // unresolved interface: discard (§4.2 step 1)
		}
		ev = adjEvent{near: h1, other: h2, public: true, ix: ix}
		if b, known := st.ownerOf(h2); known {
			ev.portAS, ev.hasPortAS = b, true
		}
		return ev, true
	}
	// Private peering (IP_A, IP_B): both sides resolve to different
	// ASes. Shared-/30 misattribution makes some of these look
	// intra-AS until alias repair fixes the owners; adjacencies are
	// re-derived from stored IPs each round, so repairs take effect.
	a1, ok1 := st.ownerOf(h1)
	a2, ok2 := st.ownerOf(h2)
	if !ok1 || !ok2 || a1 == a2 {
		return ev, false
	}
	return adjEvent{near: h1, other: h2}, true
}

// applyPathEvents is the mutating half of Step 1: it folds classified
// events into the adjacency state in hop order.
func (st *state) applyPathEvents(path trace.Path, events []adjEvent) int {
	vp := st.vpsByRouter[path.SrcRouter]
	added := 0
	for _, ev := range events {
		if st.addAdjacency(ev) {
			added++
		}
		st.addToPool(ev.near)
		st.addToPool(ev.other)
		st.observe(ev.near, vp)
		st.observe(ev.other, vp)
		if ev.hasPortAS {
			st.portOf[portKey{ev.portAS, ev.ix}] = ev.other
		}
	}
	return added
}

// addAdjacency registers ev's adjacency unless it exists, reporting
// whether it was new.
func (st *state) addAdjacency(ev adjEvent) bool {
	key := adjKey{ev.near, ev.other}
	if _, dup := st.adjs[key]; dup {
		return false
	}
	a := &Adjacency{Near: ev.near}
	if ev.public {
		a.Public, a.IXP, a.FarPort = true, ev.ix, ev.other
	} else {
		a.Far = ev.other
	}
	st.adjs[key] = a
	st.adjOrder = append(st.adjOrder, a)
	return true
}

// processPath classifies one traceroute into adjacencies (Step 1, §4.2),
// classifying into the state's reused event buffer.
func (st *state) processPath(path trace.Path) int {
	st.events = st.classifyPath(path, st.events[:0])
	return st.applyPathEvents(path, st.events)
}

// ingestPaths runs Step 1 over a traceroute corpus, in corpus order.
func (st *state) ingestPaths(paths []trace.Path) {
	for _, path := range paths {
		st.processPath(path)
	}
}

// constrainOutcome reports what a constrain call did.
type constrainOutcome int

const (
	constrainNoop constrainOutcome = iota
	constrainNarrowed
	constrainConflict
)

// adjConflictKey identifies one conflict cause of one adjacency: the
// adjacency's position in adjOrder plus which constraint failed.
type adjConflictKey struct {
	idx  int
	side uint8 // 'n' near set, 'f' far set, 'r' remote verdict vs facility data
}

// reasonKind names the rule behind a constraint.
type reasonKind uint8

const (
	reasonPublicNear   reasonKind = iota // as at ixp, near side
	reasonPublicFar                      // as at ixp, far port
	reasonRemoteMember                   // as reaches ixp remotely
	reasonPrivatePair                    // as x as2, far interface ip
	reasonAliasSet                       // alias set whose first member is ip
)

// reason is a constraint's provenance, kept unformatted: noteNarrowed
// renders it only when provenance is recorded, so a run without
// provenance formats no text. The fields a kind does not name stay
// zero.
type reason struct {
	kind    reasonKind
	as, as2 world.ASN
	ixp     world.IXPID
	ip      netaddr.IP
}

func (r reason) String() string {
	switch r.kind {
	case reasonPublicNear:
		return fmt.Sprintf("public near %v x IXP%d", r.as, r.ixp)
	case reasonPublicFar:
		return fmt.Sprintf("public far %v x IXP%d", r.as, r.ixp)
	case reasonRemoteMember:
		return fmt.Sprintf("remote member %v of IXP%d", r.as, r.ixp)
	case reasonPrivatePair:
		return fmt.Sprintf("private pair %v x %v (far %v)", r.as, r.as2, r.ip)
	default:
		return fmt.Sprintf("alias set of %v", r.ip)
	}
}

// constrain intersects ip's candidate set with s (Step 2). Candidate
// sets only ever shrink; an empty intersection signals inconsistent
// data and leaves the previous set untouched. Provenance records only
// applications that change the set — re-deriving the same constraint
// is a no-op, not new evidence — which also keeps the trace identical
// whether or not an engine bothers to re-derive it. The caller decides
// whether a conflict outcome is newly discovered.
func (st *state) constrain(ip netaddr.IP, s facset, why reason) constrainOutcome {
	n := s.count()
	if n == 0 {
		return constrainNoop
	}
	cur := st.cand[ip]
	if cur == nil {
		// Clone: s may be an interned footprint shared across the run.
		st.cand[ip] = s.clone()
		st.noteNarrowed(ip, why, n)
		return constrainNarrowed
	}
	inter := intersect(cur, s)
	in := inter.count()
	if in == 0 {
		return constrainConflict
	}
	if in != cur.count() {
		st.cand[ip] = inter
		st.noteNarrowed(ip, why, in)
		return constrainNarrowed
	}
	return constrainNoop
}

// noteNarrowed records the bookkeeping of a candidate-set change:
// provenance, the fixed-point flag, and the worklist's dirty marking.
func (st *state) noteNarrowed(ip netaddr.IP, why reason, size int) {
	st.changed = true
	if st.p != nil { // unit tests exercise bare states with no pipeline
		st.p.m.narrowings.Inc()
	}
	if st.prov != nil {
		st.prov[ip] = append(st.prov[ip], fmt.Sprintf("%s -> %d candidates", why, size))
	}
	if st.wl != nil {
		st.wl.candChanged(ip)
	}
}

// noteAdjConflict counts a conflict of one adjacency side exactly once.
func (st *state) noteAdjConflict(idx int, side uint8) {
	key := adjConflictKey{idx, side}
	if !st.adjConflicts[key] {
		st.adjConflicts[key] = true
		st.conflicts++
	}
}

func (st *state) markQueried(ip netaddr.IP, ix world.IXPID) {
	m := st.queriedIXPs[ip]
	if m == nil {
		m = make(map[world.IXPID]bool)
		st.queriedIXPs[ip] = m
	}
	m[ix] = true
}

// checkRemote consults (and caches) the remote-peering detector for a
// member's port at an IXP.
func (st *state) checkRemote(asn world.ASN, ix world.IXPID) int {
	key := portKey{asn, ix}
	if v := st.remoteCache[key]; v != 0 {
		return v
	}
	if !st.p.cfg.UseRemoteDetection || st.p.det == nil {
		st.remoteCache[key] = 3
		return 3
	}
	port, ok := st.portOf[key]
	if !ok {
		st.remoteCache[key] = 3
		return 3
	}
	remote, tested := st.p.det.IsRemote(port, ix)
	switch {
	case !tested:
		st.remoteCache[key] = 3
	case remote:
		st.remoteCache[key] = 1
	default:
		st.remoteCache[key] = 2
	}
	return st.remoteCache[key]
}

// adjProposal is the pure half of Step 2 for one adjacency: every
// facility-set intersection the constraint step needs, computed from
// registry and ownership lookups alone. It carries no verdicts that
// require measurements — the empty-intersection remote-peering check
// happens in the apply half, so the detector's fabric pings issue in
// adjacency order.
type adjProposal struct {
	nearAS, farAS world.ASN
	nearOK, farOK bool
	// nearSet is the near side's intersection: F_near ∩ F_ixp for
	// public adjacencies, F_near ∩ F_far for private ones.
	nearSet facset
	// nearFoot is the near AS's full footprint — the fallback
	// candidate set for a confirmed remote member (public only).
	nearFoot facset
	// farSet / farFoot are the far port's equivalents (public only).
	farSet  facset
	farFoot facset
	// tethered marks a private pair with no shared facility but a
	// shared IXP fabric (§4.2 outcome 3).
	tethered bool
}

// computeProposal evaluates the side-effect-free constraint sets for
// one adjacency.
func (st *state) computeProposal(a *Adjacency) adjProposal {
	db, fs := st.p.db, st.p.fs
	var pr adjProposal
	if a.Public {
		fixp := fs.ofIXP(db, a.IXP)
		if nearAS, ok := st.ownerOf(a.Near); ok {
			pr.nearAS, pr.nearOK = nearAS, true
			pr.nearFoot = fs.ofAS(db, nearAS)
			pr.nearSet = intersect(pr.nearFoot, fixp)
		}
		if farAS, ok := st.ownerOf(a.FarPort); ok {
			pr.farAS, pr.farOK = farAS, true
			pr.farFoot = fs.ofAS(db, farAS)
			pr.farSet = intersect(pr.farFoot, fixp)
		}
		return pr
	}
	nearAS, ok1 := st.ownerOf(a.Near)
	farAS, ok2 := st.ownerOf(a.Far)
	if !ok1 || !ok2 || nearAS == farAS {
		return pr // apply half leaves the adjacency untouched
	}
	pr.nearAS, pr.farAS, pr.nearOK, pr.farOK = nearAS, farAS, true, true
	pr.nearSet = intersect(fs.ofAS(db, nearAS), fs.ofAS(db, farAS))
	if pr.nearSet.count() == 0 {
		pr.tethered = len(sharedIXPs(db.IXPsOfAS(nearAS), db.IXPsOfAS(farAS))) > 0
	}
	return pr
}

func (st *state) applyProposal(idx int, a *Adjacency, pr adjProposal) {
	if a.Public {
		st.applyPublic(idx, a, pr)
	} else {
		st.applyPrivate(idx, a, pr)
	}
}

func (st *state) applyPublic(idx int, a *Adjacency, pr adjProposal) {
	// Near side.
	if pr.nearOK {
		a.NearAS = pr.nearAS
		switch {
		case pr.nearSet.count() > 0:
			if st.constrain(a.Near, pr.nearSet, reason{kind: reasonPublicNear, as: pr.nearAS, ixp: a.IXP}) == constrainConflict {
				st.noteAdjConflict(idx, 'n')
			}
			st.markQueried(a.Near, a.IXP)
			a.Type = PublicLocal
		case pr.nearFoot.count() > 0:
			// No common facility: remote member, or missing data.
			switch st.checkRemote(pr.nearAS, a.IXP) {
			case 1:
				st.remoteIface[a.Near] = true
				// Anywhere in the member's footprint.
				if st.constrain(a.Near, pr.nearFoot, reason{kind: reasonRemoteMember, as: pr.nearAS, ixp: a.IXP}) == constrainConflict {
					st.noteAdjConflict(idx, 'n')
				}
				a.Type = PublicRemote
			case 2:
				st.noteAdjConflict(idx, 'r') // detector says local yet no common facility
			}
		}
	}
	// Far side: the port's owner (when alias repair identified it) must
	// sit at a facility it shares with the IXP — the "reverse
	// direction" constraint of §4.3, applied without needing a reverse
	// traceroute because the port address itself pins the IXP.
	if !pr.farOK {
		return
	}
	a.FarAS = pr.farAS
	switch {
	case pr.farSet.count() > 0:
		if st.constrain(a.FarPort, pr.farSet, reason{kind: reasonPublicFar, as: pr.farAS, ixp: a.IXP}) == constrainConflict {
			st.noteAdjConflict(idx, 'f')
		}
		st.markQueried(a.FarPort, a.IXP)
	case pr.farFoot.count() > 0:
		if st.checkRemote(pr.farAS, a.IXP) == 1 {
			st.remoteIface[a.FarPort] = true
			if st.constrain(a.FarPort, pr.farFoot, reason{kind: reasonRemoteMember, as: pr.farAS, ixp: a.IXP}) == constrainConflict {
				st.noteAdjConflict(idx, 'f')
			}
		}
	}
}

func (st *state) applyPrivate(idx int, a *Adjacency, pr adjProposal) {
	if !pr.nearOK {
		return // unresolvable or intra-AS pair: leave untouched
	}
	a.NearAS, a.FarAS = pr.nearAS, pr.farAS
	if pr.nearSet.count() > 0 {
		// Cross-connect: constrain the near end (§4.2). The candidate
		// set is the pair's full co-presence list, never this single
		// link's facility, because AS pairs interconnect in several
		// metros and a narrower guess would collapse wrongly.
		if st.constrain(a.Near, pr.nearSet, reason{kind: reasonPrivatePair, as: pr.nearAS, as2: pr.farAS, ip: a.Far}) == constrainConflict {
			st.noteAdjConflict(idx, 'n')
		}
		a.Type = PrivateCrossConnect
		return
	}
	// No common facility: tethering over a shared IXP, or remote
	// private peering / missing data (§4.2 outcome 3).
	if !pr.tethered {
		a.Type = PrivateUnknown
		return
	}
	// Classify as tethering but apply no facility constraint: the
	// empty intersection may equally mean a cross-connect whose shared
	// facility is missing from one party's record, and constraining on
	// a misclassification would poison the candidate sets (the paper
	// likewise leaves outcome 3 unconstrained, §4.2).
	a.Type = PrivateTethering
}

func sharedIXPs(a, b []world.IXPID) []world.IXPID {
	set := make(map[world.IXPID]bool, len(a))
	for _, ix := range a {
		set[ix] = true
	}
	var out []world.IXPID
	for _, ix := range b {
		if set[ix] {
			out = append(out, ix)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// setIntersection computes the candidate intersection over one alias
// set: nil when no member carries a constraint yet, empty (non-nil)
// when members disagree outright. Pure — reads candidate sets only.
func (st *state) setIntersection(set []netaddr.IP) facset {
	var inter facset
	for _, ip := range set {
		c := st.cand[ip]
		if c == nil {
			continue
		}
		if inter == nil {
			inter = c.clone()
			continue
		}
		inter.intersectWith(c)
	}
	return inter
}

// aliasStepSets runs Step 3 — all interfaces of one router share a
// facility, so their candidate sets intersect — over the multi-member
// alias sets named by ascending indices into Sets.All, in that order.
// Returns the number of intersections recomputed.
func (st *state) aliasStepSets(idxs []int) (recomputed int) {
	sets := st.sets.All()
	for _, idx := range idxs {
		set := sets[idx]
		inter := st.setIntersection(set)
		if inter.count() == 0 {
			if inter != nil {
				st.noteSetConflict(set[0])
			}
			continue
		}
		// Applying the intersection brings every member to the set's
		// fixed point; tell the worklist not to re-enqueue the set for
		// its own narrowings.
		if st.wl != nil {
			st.wl.applyingSet = idx
		}
		for _, ip := range set {
			st.constrain(ip, inter, reason{kind: reasonAliasSet, ip: set[0]})
		}
		if st.wl != nil {
			st.wl.applyingSet = -1
		}
	}
	return len(idxs)
}

// noteSetConflict counts a disagreeing alias set once, keyed by its
// first (smallest) member so the count survives set rebuilds.
func (st *state) noteSetConflict(first netaddr.IP) {
	if !st.setConflicts[first] {
		st.setConflicts[first] = true
		st.conflicts++
	}
}

// resolveAliases (re-)runs alias resolution over the interface pool and
// repairs IP-to-ASN mappings by majority vote (§4.1).
func (st *state) resolveAliases() {
	if !st.p.cfg.UseAliasResolution || st.p.prober == nil {
		return
	}
	replays := st.p.prober.Replays
	st.sets = alias.Resolve(st.p.prober, st.pool)
	st.p.m.aliasReplayed.Add(int64(st.p.prober.Replays - replays))
	st.repaired = st.p.ipasn.Repair(st.sets.All())
	// Give repaired owners to ports etc. that raw lookup missed.
	for ip, asn := range st.repaired {
		st.owner[ip] = asn
	}
}

// unresolved lists pool interfaces not yet collapsed to one facility,
// in discovery order.
func (st *state) unresolved() []netaddr.IP {
	var out []netaddr.IP
	for _, ip := range st.pool {
		if c := st.cand[ip]; c == nil || c.count() > 1 {
			out = append(out, ip)
		}
	}
	return out
}
