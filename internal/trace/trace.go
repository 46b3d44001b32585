// Package trace simulates Paris-traceroute measurements over the
// ground-truth world. It reproduces the observational semantics the CFS
// methodology depends on (§4.1):
//
//   - each transited router replies from its *ingress* interface: the
//     core interface when entered from inside its own AS, the IXP port
//     when entered across a public peering, the /30 side when entered
//     across a private interconnect;
//   - the destination replies from the probed address itself, so the
//     final router's ingress stays invisible (the reason for the
//     reverse-direction search, §4.3);
//   - unresponsive routers appear as '*' hops;
//   - RTTs accumulate geographic propagation delay plus jitter, with
//     occasional transient congestion spikes (why remote-peering
//     inference takes the minimum over repeated measurements, §4.2).
package trace

import (
	"time"

	"facilitymap/internal/bgp"
	"facilitymap/internal/geo"
	"facilitymap/internal/netaddr"
	"facilitymap/internal/obs"
	"facilitymap/internal/world"
)

// Hop is one traceroute hop.
type Hop struct {
	IP        netaddr.IP // zero when the hop did not respond
	RTT       time.Duration
	Responded bool
}

// Path is the result of one traceroute.
type Path struct {
	SrcRouter world.RouterID
	Dst       netaddr.IP
	Hops      []Hop
	Reached   bool // the destination itself replied
}

// ResponsiveHops returns the hop addresses that replied, in order. A
// hop marked Responded but carrying the zero address (malformed input,
// e.g. a hand-written transcript) is treated as silent: the zero IP is
// not an observation and must never reach adjacency classification.
func (p Path) ResponsiveHops() []netaddr.IP {
	var out []netaddr.IP
	for _, h := range p.Hops {
		if h.Responded && h.IP != 0 {
			out = append(out, h.IP)
		}
	}
	return out
}

// Engine simulates the data plane of one world.
//
// The engine is single-goroutine by design: the probe ledger is
// unsynchronized because probe issue order is semantics (the RNG stream
// derives from it), and the hot-path caches below share that property.
type Engine struct {
	w    *world.World
	rt   *bgp.Routing
	seed int64

	linksBetween map[asnPair][]*world.Link
	// prefixOwner maps announced prefixes to their AS, replacing
	// resolveDst's linear scan over every AS × prefix with one
	// longest-prefix lookup. Built once in New; duplicate prefixes keep
	// the first announcing AS, matching the retired scan's first-match
	// order.
	prefixOwner netaddr.Trie[*world.AS]
	// dstMemo caches resolveDst verdicts. The world is immutable for the
	// engine's lifetime, so a destination's resolution never changes —
	// and CFS re-probes the same targets across iterations.
	dstMemo map[netaddr.IP]dstRes
	// selCache holds the flow-independent half of selectLink: per
	// (current router, AS pair), each candidate link's exit distance and
	// fabric locality. The flow-dependent ECMP tie-break stays outside
	// the cache so per-flow path diversity is untouched.
	selCache map[selKey][]linkRank
	// ledger is the single source of probe accounting (budget tally and
	// jitter sequence); see ledger.go for the invariants it carries.
	ledger probeLedger
	// mr is the engine's reusable per-measurement RNG. measurementRNG
	// re-seeds it in O(1) instead of paying math/rand's full 607-word
	// state initialization per probe; the value stream is bit-identical
	// (see fastrng.go). Reuse is safe because measurements never
	// interleave on the single-goroutine engine.
	mr mrand
	// hops is TracerouteFlow's hop buffer, reused like mr. Each returned
	// Path gets its own exact-length copy: the retained corpus keeps
	// every path, so no path may alias the buffer.
	hops []Hop

	m engineMetrics
}

// engineMetrics holds the engine's pre-resolved observability handles.
// All fields are nil-safe no-ops until Instrument installs a registry.
type engineMetrics struct {
	traceroutes    *obs.Counter // trace.probes.traceroute
	pings          *obs.Counter // trace.probes.ping
	fabricPings    *obs.Counter // trace.probes.fabric_ping
	unreachable    *obs.Counter // trace.probes.unreachable
	silentHops     *obs.Counter // trace.hops.silent
	responsiveHops *obs.Counter // trace.hops.responsive
	ecmpDivergent  *obs.Counter // trace.ecmp.divergent_paths
	tracer         *obs.Tracer
}

// Instrument attaches an observability sink to the engine. Counter
// handles resolve once here, so the per-probe cost is one atomic add
// when enabled and one nil test when not. Instrumentation is purely
// observational: it never changes a path, an RTT draw or a verdict.
func (e *Engine) Instrument(o *obs.Obs) {
	e.m = engineMetrics{
		traceroutes:    o.Counter("trace.probes.traceroute"),
		pings:          o.Counter("trace.probes.ping"),
		fabricPings:    o.Counter("trace.probes.fabric_ping"),
		unreachable:    o.Counter("trace.probes.unreachable"),
		silentHops:     o.Counter("trace.hops.silent"),
		responsiveHops: o.Counter("trace.hops.responsive"),
		ecmpDivergent:  o.Counter("trace.ecmp.divergent_paths"),
	}
	if o != nil {
		e.m.tracer = o.Tracer
	}
}

// dstRes is a memoized resolveDst verdict.
type dstRes struct {
	rtr       world.RouterID
	reachable bool
}

// selKey identifies one hot-potato exit decision up to its flow label.
type selKey struct {
	cur           world.RouterID
	curAS, nextAS world.ASN
}

// linkRank is the precomputed, flow-independent score of one candidate
// exit link: distance from the current router to the near end, and the
// far port's fabric locality.
type linkRank struct {
	l   *world.Link
	km  float64
	loc int
}

type asnPair struct{ a, b world.ASN }

func pairOf(a, b world.ASN) asnPair {
	if a > b {
		a, b = b, a
	}
	return asnPair{a, b}
}

// New builds a traceroute engine. The seed controls jitter and loss;
// paths themselves are deterministic functions of (src, dst).
func New(w *world.World, rt *bgp.Routing, seed int64) *Engine {
	e := &Engine{w: w, rt: rt, seed: seed,
		linksBetween: make(map[asnPair][]*world.Link),
		dstMemo:      make(map[netaddr.IP]dstRes),
		selCache:     make(map[selKey][]linkRank),
	}
	for _, l := range w.Links {
		a := w.Routers[l.A].AS
		b := w.Routers[l.B].AS
		e.linksBetween[pairOf(a, b)] = append(e.linksBetween[pairOf(a, b)], l)
	}
	for _, as := range w.ASes {
		for _, p := range as.Prefixes {
			if _, ok := e.prefixOwner.Exact(p); !ok {
				e.prefixOwner.Insert(p, as)
			}
		}
	}
	return e
}

// Probes returns the number of probes issued so far: one per
// traceroute (any flow label, so an MDA exploration of n flows counts
// n), and one per echo request of a Ping or FabricPing — including
// probes toward unreachable or unrouted destinations, which leave the
// source and time out just like answered ones. Measurements that can
// never be launched (a fabric ping from a router with no port on that
// fabric) count zero.
func (e *Engine) Probes() int { return e.ledger.probes() }

// measurementRNG derives a deterministic RNG for one measurement so that
// repeated identical calls still see fresh jitter (the attempt counter
// feeds the seed). It hands back the engine's single mrand, re-seeded:
// each measurement finishes its draws before the next one starts, so
// the previous borrower is always done.
func (e *Engine) measurementRNG(src world.RouterID, dst netaddr.IP, attempt int) *mrand {
	h := uint64(e.seed)
	h = h*1099511628211 + uint64(src)
	h = h*1099511628211 + uint64(dst)
	h = h*1099511628211 + uint64(attempt)
	e.mr.reset(int64(h))
	return &e.mr
}

// resolveDst finds the router hosting the probed address. When the
// address is inside an AS block but on no interface, the probe is routed
// to the AS's first router and never answered. Verdicts are memoized —
// the world never changes under a live engine.
func (e *Engine) resolveDst(dst netaddr.IP) (rtr world.RouterID, reachable bool) {
	if r, ok := e.dstMemo[dst]; ok {
		return r.rtr, r.reachable
	}
	rtr, reachable = e.lookupDst(dst)
	e.dstMemo[dst] = dstRes{rtr, reachable}
	return rtr, reachable
}

// lookupDst is the uncached resolution: an exact interface match first
// (it always outranks a merely covering prefix), then the longest
// announced prefix containing the address. Generated worlds announce
// disjoint per-AS blocks, so longest-prefix and the retired first-match
// scan pick the same AS.
func (e *Engine) lookupDst(dst netaddr.IP) (world.RouterID, bool) {
	if ifc := e.w.InterfaceByIP(dst); ifc != nil {
		return ifc.Router, true
	}
	if as, _, ok := e.prefixOwner.Lookup(dst); ok {
		if len(as.Routers) == 0 {
			return world.RouterID(world.None), false
		}
		return as.Routers[0], false
	}
	return world.RouterID(world.None), false
}

// selectLink picks the interconnection link an AS uses to hand traffic to
// the next AS, from the standpoint of the current router: hot-potato
// routing chooses the exit nearest to where the traffic currently is.
// Among fully-tied candidates, the flow label decides (ECMP hashing);
// flow 0 — Paris traceroute's fixed flow — always picks the lowest link
// ID. Returns nil when the ASes share no link.
func (e *Engine) selectLink(cur world.RouterID, curAS, nextAS world.ASN, flow uint32) *world.Link {
	ranks := e.linkRanks(cur, curAS, nextAS)
	var best *world.Link
	bestKm := 0.0
	bestLoc := 0
	for _, r := range ranks {
		better := false
		switch {
		case best == nil, r.km < bestKm-1e-9:
			better = true
		case r.km < bestKm+1e-9 && flow == 0:
			// Flow 0 (the dominant share of traffic, and Paris
			// traceroute's fixed flow): IXP fabrics keep traffic local
			// to an access or backhaul switch (Figure 6), so among
			// redundant public links prefer the fabric-proximate far
			// port, then the lowest link ID.
			if r.loc < bestLoc || (r.loc == bestLoc && r.l.ID < best.ID) {
				better = true
			}
		case r.km < bestKm+1e-9:
			// Non-zero flows: BGP multipath hashes flows across every
			// equal-cost session, including a dual-homed peer's second
			// port — what MDA exploration relies on to see redundancy.
			if ecmpRank(r.l.ID, flow) < ecmpRank(best.ID, flow) {
				better = true
			}
		}
		if better {
			best, bestKm, bestLoc = r.l, r.km, r.loc
		}
	}
	return best
}

// linkRanks returns the memoized flow-independent scores for one exit
// decision, in the same candidate order the uncached path evaluated, so
// the selection loop above replays the identical comparison sequence.
func (e *Engine) linkRanks(cur world.RouterID, curAS, nextAS world.ASN) []linkRank {
	key := selKey{cur, curAS, nextAS}
	if r, ok := e.selCache[key]; ok {
		return r
	}
	links := e.linksBetween[pairOf(curAS, nextAS)]
	var ranks []linkRank
	if len(links) > 0 {
		at := e.w.Routers[cur].Coord
		ranks = make([]linkRank, 0, len(links))
		for _, l := range links {
			near := l.A
			if e.w.Routers[l.A].AS != curAS {
				near = l.B
			}
			ranks = append(ranks, linkRank{
				l:   l,
				km:  geo.DistanceKm(at, e.w.Routers[near].Coord),
				loc: e.locality(l, near),
			})
		}
	}
	e.selCache[key] = ranks
	return ranks
}

// ecmpRank orders equal-cost links for one flow label. Flow 0 keeps the
// stable lowest-ID order; other flows hash, emulating per-flow ECMP.
func ecmpRank(id world.LinkID, flow uint32) uint64 {
	if flow == 0 {
		return uint64(id)
	}
	h := uint64(id)*2654435761 + uint64(flow)*40503
	h ^= h >> 16
	return h
}

// locality ranks how local a link's far port is to its near port on the
// IXP fabric: 0 same access switch, 1 same backhaul, 2 via core. Private
// links rank 0.
func (e *Engine) locality(l *world.Link, near world.RouterID) int {
	if l.Kind != world.PublicPeering {
		return 0
	}
	nearIfc := e.w.Interfaces[l.NearEnd(near)]
	_, farIfc := l.OtherEnd(near)
	far := e.w.Interfaces[farIfc]
	if nearIfc.Switch == world.None || far.Switch == world.None {
		return 2
	}
	switch e.w.Locality(world.SwitchID(nearIfc.Switch), world.SwitchID(far.Switch)) {
	case world.SameSwitch:
		return 0
	case world.SameBackhaul:
		return 1
	default:
		return 2
	}
}

// ExitRouter exposes the hot-potato link selection to other packages
// (BGP looking-glass queries need the same decision to attach ingress
// communities). It returns the link used from srcRouter's AS toward
// nextAS and the near-end router.
func (e *Engine) ExitRouter(srcRouter world.RouterID, nextAS world.ASN) (*world.Link, world.RouterID) {
	curAS := e.w.Routers[srcRouter].AS
	l := e.selectLink(srcRouter, curAS, nextAS, 0)
	if l == nil {
		return nil, world.RouterID(world.None)
	}
	near := l.A
	if e.w.Routers[l.A].AS != curAS {
		near = l.B
	}
	return l, near
}

// Traceroute issues one Paris traceroute from the network of srcRouter
// toward dst (fixed flow label, so the path is stable).
func (e *Engine) Traceroute(srcRouter world.RouterID, dst netaddr.IP) Path {
	return e.TracerouteFlow(srcRouter, dst, 0)
}

// TracerouteFlow issues a traceroute with an explicit flow label.
// Different labels may take different equal-cost links, which is what
// MDA-style exploration exploits.
func (e *Engine) TracerouteFlow(srcRouter world.RouterID, dst netaddr.IP, flow uint32) Path {
	e.ledger.book(1, e.m.traceroutes)
	rng := e.measurementRNG(srcRouter, dst, e.ledger.nextSeq())
	e.hops = e.hops[:0]
	reached := e.walk(srcRouter, dst, flow, rng)
	p := Path{SrcRouter: srcRouter, Dst: dst, Hops: append([]Hop(nil), e.hops...), Reached: reached}
	e.recordTraceroute(&p, flow)
	return p
}

// walk simulates one traceroute into e.hops and reports whether the
// destination itself replied.
func (e *Engine) walk(srcRouter world.RouterID, dst netaddr.IP, flow uint32, rng *mrand) (reached bool) {
	dstRtr, reachable := e.resolveDst(dst)
	if dstRtr == world.RouterID(world.None) {
		return false
	}
	srcAS := e.w.Routers[srcRouter].AS
	dstAS := e.w.Routers[dstRtr].AS
	asPath, ok := e.rt.ASPath(srcAS, dstAS)
	if !ok {
		return false
	}

	cum := time.Duration(0) // one-way accumulated propagation
	prevCoord := e.w.Routers[srcRouter].Coord
	emit := func(r world.RouterID, ip netaddr.IP) {
		router := e.w.Routers[r]
		cum += geo.PropagationDelay(prevCoord, router.Coord)
		prevCoord = router.Coord
		rtt := 2*cum + hopJitter(rng)
		if rng.Float64() < congestionProb {
			rtt += congestionSpike(rng)
		}
		if !router.RespondsToTraceroute {
			e.hops = append(e.hops, Hop{})
			return
		}
		e.hops = append(e.hops, Hop{IP: ip, RTT: rtt, Responded: true})
	}

	cur := srcRouter
	// First hop: the vantage point's gateway replies from its core
	// interface, unless the probe targets the gateway itself.
	if cur != dstRtr {
		emit(cur, e.w.Interfaces[e.w.Routers[cur].Core()].IP)
	}
	for i := 0; i+1 < len(asPath); i++ {
		curAS, nextAS := asPath[i], asPath[i+1]
		l := e.selectLink(cur, curAS, nextAS, flow)
		if l == nil {
			return false // routing said adjacent but no link: give up
		}
		near := l.A
		if e.w.Routers[l.A].AS != curAS {
			near = l.B
		}
		// Intra-AS segment to the exit router.
		if near != cur {
			if near == dstRtr {
				// Destination inside this AS segment; fall through to
				// the final-hop logic below.
				cur = near
				break
			}
			emit(near, e.w.Interfaces[e.w.Routers[near].Core()].IP)
			cur = near
		}
		far, farIface := l.OtherEnd(cur)
		if far == dstRtr {
			cur = far
			break
		}
		// The far router replies from its ingress: the link's far-side
		// interface (IXP port for public peering, /30 side otherwise).
		emit(far, e.w.Interfaces[farIface].IP)
		cur = far
	}
	// Deliver to the destination router.
	if cur != dstRtr {
		// Still inside the destination AS: one intra-AS handoff.
		if e.w.Routers[cur].AS == dstAS {
			cur = dstRtr
		} else {
			return false
		}
	}
	if reachable {
		dstRouter := e.w.Routers[dstRtr]
		cum += geo.PropagationDelay(prevCoord, dstRouter.Coord)
		rtt := 2*cum + hopJitter(rng)
		if rng.Float64() < congestionProb {
			rtt += congestionSpike(rng)
		}
		// Destinations answer echo requests even when their router
		// drops time-exceeded generation.
		e.hops = append(e.hops, Hop{IP: dst, RTT: rtt, Responded: true})
	}
	return reachable
}

// recordTraceroute books a finished traceroute's hop mix into the obs
// counters and, when a tracer is installed, the event trace.
func (e *Engine) recordTraceroute(p *Path, flow uint32) {
	silent, responsive := 0, 0
	for _, h := range p.Hops {
		if h.Responded {
			responsive++
		} else {
			silent++
		}
	}
	e.m.silentHops.Add(int64(silent))
	e.m.responsiveHops.Add(int64(responsive))
	if !p.Reached {
		e.m.unreachable.Inc()
	}
	if e.m.tracer == nil {
		return
	}
	e.m.tracer.Emit("measurement",
		obs.F("probe", "traceroute"),
		obs.F("src_router", int(p.SrcRouter)),
		obs.F("dst", p.Dst.String()),
		obs.F("flow", flow),
		obs.F("hops", len(p.Hops)),
		obs.F("silent", silent),
		obs.F("reached", p.Reached))
}

// Ping measures the RTT to dst, returning the minimum over count probes
// (the paper's remote-peering method uses repeated measurements at
// different times to shed transient congestion, §4.2).
//
// All count echo requests leave the source regardless of whether dst
// resolves or routes, so they always land in Probes(); only answered
// probes contribute RNG draws (keeping the jitter stream independent of
// accounting).
func (e *Engine) Ping(srcRouter world.RouterID, dst netaddr.IP, count int) (rtt time.Duration, ok bool) {
	e.ledger.book(count, e.m.pings)
	if e.m.tracer != nil {
		defer func() {
			e.m.tracer.Emit("measurement",
				obs.F("probe", "ping"),
				obs.F("src_router", int(srcRouter)),
				obs.F("dst", dst.String()),
				obs.F("count", count),
				obs.F("answered", ok))
		}()
	}
	dstRtr, reachable := e.resolveDst(dst)
	if !reachable {
		e.m.unreachable.Add(int64(count))
		return 0, false
	}
	srcAS := e.w.Routers[srcRouter].AS
	dstAS := e.w.Routers[dstRtr].AS
	asPath, haveRoute := e.rt.ASPath(srcAS, dstAS)
	if !haveRoute {
		e.m.unreachable.Add(int64(count))
		return 0, false
	}
	// Propagation along the router-level path.
	oneWay := time.Duration(0)
	prev := e.w.Routers[srcRouter].Coord
	cur := srcRouter
	for i := 0; i+1 < len(asPath); i++ {
		l := e.selectLink(cur, asPath[i], asPath[i+1], 0)
		if l == nil {
			e.m.unreachable.Add(int64(count))
			return 0, false
		}
		near := l.A
		if e.w.Routers[l.A].AS != asPath[i] {
			near = l.B
		}
		if near != cur {
			oneWay += geo.PropagationDelay(prev, e.w.Routers[near].Coord)
			prev = e.w.Routers[near].Coord
			cur = near
		}
		far, _ := l.OtherEnd(cur)
		oneWay += geo.PropagationDelay(prev, e.w.Routers[far].Coord)
		prev = e.w.Routers[far].Coord
		cur = far
		if far == dstRtr {
			break
		}
	}
	if cur != dstRtr {
		oneWay += geo.PropagationDelay(prev, e.w.Routers[dstRtr].Coord)
	}
	best := time.Duration(-1)
	for i := 0; i < count; i++ {
		rng := e.measurementRNG(srcRouter, dst, e.ledger.nextSeq())
		r := 2*oneWay + hopJitter(rng)
		if rng.Float64() < congestionProb {
			r += congestionSpike(rng)
		}
		if best < 0 || r < best {
			best = r
		}
	}
	return best, true
}

// FabricPing measures the RTT from a member router to another member's
// peering-LAN address across the IXP switch fabric. Members of one LAN
// are layer-2 adjacent, so this bypasses BGP entirely — the measurement
// setup remote-peering inference needs (§4.2). ok is false unless src
// holds a port on the same IXP as the probed address.
// A fabric ping needs layer-2 adjacency before anything can leave the
// source: when the probed address is not a port on an IXP LAN the
// source belongs to, no frame is ever sent, so nothing is booked into
// Probes().
func (e *Engine) FabricPing(src world.RouterID, port netaddr.IP, count int) (time.Duration, bool) {
	ifc := e.w.InterfaceByIP(port)
	if ifc == nil || ifc.Kind != world.IXPPort {
		return 0, false
	}
	if e.w.MembershipOf(src, ifc.IXP) == nil {
		return 0, false
	}
	e.ledger.book(count, e.m.fabricPings)
	if e.m.tracer != nil {
		e.m.tracer.Emit("measurement",
			obs.F("probe", "fabric_ping"),
			obs.F("src_router", int(src)),
			obs.F("dst", port.String()),
			obs.F("count", count))
	}
	// Transport over the fabric: reseller circuits for remote members
	// stretch roughly the geographic distance between the routers.
	oneWay := geo.PropagationDelay(e.w.Routers[src].Coord, e.w.Routers[ifc.Router].Coord)
	best := time.Duration(-1)
	for i := 0; i < count; i++ {
		rng := e.measurementRNG(src, port, e.ledger.nextSeq())
		rtt := 2*oneWay + hopJitter(rng)
		if rng.Float64() < congestionProb {
			rtt += congestionSpike(rng)
		}
		if best < 0 || rtt < best {
			best = rtt
		}
	}
	return best, true
}

const congestionProb = 0.03

func hopJitter(rng *mrand) time.Duration {
	return time.Duration(100+rng.Intn(900)) * time.Microsecond
}

func congestionSpike(rng *mrand) time.Duration {
	return time.Duration(10+rng.Intn(90)) * time.Millisecond
}

// TracerouteMDA runs a multipath (MDA-style) exploration: traceroutes
// with `flows` distinct flow labels, returning one path per distinct hop
// sequence discovered. Useful for exposing redundant interconnections —
// e.g. both ports of a dual-homed IXP member — that a single Paris flow
// hides.
func (e *Engine) TracerouteMDA(srcRouter world.RouterID, dst netaddr.IP, flows int) []Path {
	seen := make(map[string]bool)
	var out []Path
	for f := 0; f < flows; f++ {
		p := e.TracerouteFlow(srcRouter, dst, uint32(f))
		key := ""
		for _, h := range p.Hops {
			if h.Responded {
				key += h.IP.String()
			}
			key += "|"
		}
		if !seen[key] {
			seen[key] = true
			out = append(out, p)
		}
	}
	// Every distinct hop sequence beyond the first is an equal-cost
	// divergence the fixed Paris flow would have hidden.
	if len(out) > 1 {
		e.m.ecmpDivergent.Add(int64(len(out) - 1))
	}
	return out
}
