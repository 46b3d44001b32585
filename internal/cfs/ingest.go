package cfs

import (
	"cmp"
	"slices"

	"facilitymap/internal/netaddr"
	"facilitymap/internal/platform"
	"facilitymap/internal/trace"
	"facilitymap/internal/world"
)

// ingestPlan is the retained corpus compiled for re-ingestion: every
// hop address as a dense slot, every pair of consecutive responsive
// hops as a dense pair id, and each distinct (vantage point, pair)
// listed once, in the order of its first occurrence. A re-ingestion
// folds the plan (ingestPlanned) instead of replaying every path: the
// corpus repeats its pairs (on medium, 226,173 hop pairs hold 7,767
// distinct ones), and Step 1's cost is per map operation.
//
// The fold is exact because a re-ingestion ingests into a fresh state
// and no owner changes while it does: pins come from sessions and
// repairs from alias rounds, both after the paths, and the IXP prefixes
// IXPByIP reads are never edited by a delta. So a pair classifies the
// same way at every occurrence within one ingestion, and what
// ingestPaths leaves depends on the order of the occurrences only
// through the pairs' first occurrences (adjOrder, the pool, each
// address's observers) and their last ones (portOf, where the last
// writer wins). Everything else it writes is a set, or the owner
// memo, which is never enumerated.
//
// The Pipeline compiles the plan at the first re-ingestion and extends
// it over the paths appended since (a boot's follow-up paths, a
// cross-connect delta's synthetic path); a batch that takes a path out
// of the corpus drops it (editCorpus). The boot keeps ingestPaths:
// compiling costs what one ingestion does.
type ingestPlan struct {
	paths int // corpus paths compiled
	occ   int // pair occurrences compiled

	addrs  []netaddr.IP         // slot -> address
	slotOf map[netaddr.IP]int32 // address -> slot
	pairs  [][2]int32           // pair -> its (earlier, later) hop slots
	pairOf map[uint64]int32     // earlier slot<<32 | later slot -> pair
	last   []int                // pair -> position of its last occurrence

	vps   []*platform.VantagePoint // observer -> vantage point
	vpOf  map[world.RouterID]int32 // source router -> observer, -1 for none
	order []planEntry              // (observer, pair) entries, first occurrence first

	// byLast lists the pairs by ascending last occurrence; nil until a
	// fold needs it after the plan grew.
	byLast []int32

	// The fold's scratch, cleared at every fold: each pair's class this
	// epoch, and one bit per (slot, observer) already recorded.
	class []pairClass
	seen  []uint64
}

// planEntry is one (observer, pair) of the corpus: a pair of hops seen
// on a path from a source router, and the vantage point that router
// hosts.
type planEntry struct {
	pair int32
	vp   int32 // observer index; -1 when the source router hosts no vantage point
}

// pairClass is one pair's Step 1 outcome in the current fold.
type pairClass struct {
	ev    adjEvent
	state uint8 // pairUnclassified, pairDiscarded or pairEvent
}

const (
	pairUnclassified = iota
	pairDiscarded
	pairEvent
)

func newIngestPlan() *ingestPlan {
	return &ingestPlan{
		slotOf: make(map[netaddr.IP]int32),
		pairOf: make(map[uint64]int32),
		vpOf:   make(map[world.RouterID]int32),
	}
}

// extend compiles the corpus paths appended since the last call,
// pairing consecutive responsive hops by the rule classifyPath applies.
// The compiled prefix of paths must be the one compiled before. Each
// call lists an (observer, pair) once; one a later call lists again,
// as a cross-connect's synthetic path may, is a second entry, which
// the fold passes over: the class and the observer bits it would set
// are set already.
func (pl *ingestPlan) extend(paths []trace.Path, vpsByRouter map[world.RouterID]*platform.VantagePoint) {
	if pl.paths == len(paths) {
		return
	}
	listed := make(map[planEntry]struct{})
	for _, path := range paths[pl.paths:] {
		vp := pl.observer(path.SrcRouter, vpsByRouter)
		prev := int32(-1)
		for _, hop := range path.Hops {
			if !hop.Responded || hop.IP == 0 {
				continue
			}
			s := pl.slot(hop.IP)
			if prev >= 0 {
				pair := pl.pair(prev, s)
				pl.last[pair] = pl.occ
				pl.occ++
				e := planEntry{pair, vp}
				if _, dup := listed[e]; !dup {
					listed[e] = struct{}{}
					pl.order = append(pl.order, e)
				}
			}
			prev = s
		}
	}
	pl.paths = len(paths)
	pl.byLast = nil
}

func (pl *ingestPlan) observer(r world.RouterID, vpsByRouter map[world.RouterID]*platform.VantagePoint) int32 {
	if i, ok := pl.vpOf[r]; ok {
		return i
	}
	i := int32(-1)
	if vp := vpsByRouter[r]; vp != nil {
		i = int32(len(pl.vps))
		pl.vps = append(pl.vps, vp)
	}
	pl.vpOf[r] = i
	return i
}

func (pl *ingestPlan) slot(ip netaddr.IP) int32 {
	if s, ok := pl.slotOf[ip]; ok {
		return s
	}
	s := int32(len(pl.addrs))
	pl.addrs = append(pl.addrs, ip)
	pl.slotOf[ip] = s
	return s
}

func (pl *ingestPlan) pair(h1, h2 int32) int32 {
	key := uint64(h1)<<32 | uint64(h2)
	if p, ok := pl.pairOf[key]; ok {
		return p
	}
	p := int32(len(pl.pairs))
	pl.pairs = append(pl.pairs, [2]int32{h1, h2})
	pl.last = append(pl.last, 0)
	pl.pairOf[key] = p
	return p
}

// clearScratch sizes the fold's scratch to the plan and clears it.
func (pl *ingestPlan) clearScratch() {
	pl.class = resize(pl.class, len(pl.pairs))
	pl.seen = resize(pl.seen, len(pl.addrs)*pl.seenStride())
}

// seenStride is the number of words each slot's observer bits take.
func (pl *ingestPlan) seenStride() int { return (len(pl.vps) + 63) / 64 }

// resize returns s at length n, cleared, reusing its array when it can.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// pairsByLast returns the pairs by ascending last occurrence.
func (pl *ingestPlan) pairsByLast() []int32 {
	if pl.byLast == nil {
		pl.byLast = make([]int32, len(pl.pairs))
		for i := range pl.byLast {
			pl.byLast[i] = int32(i)
		}
		slices.SortFunc(pl.byLast, func(a, b int32) int { return cmp.Compare(pl.last[a], pl.last[b]) })
	}
	return pl.byLast
}

// ingestPlanned is ingestPaths over the corpus pl compiled, into a
// state nothing has been ingested into. It classifies each pair once,
// at its first entry in pl.order, with the state's current owners;
// creates the adjacency and pools its ends there; records each vantage
// point at the first event that shows it an address; and then writes
// portOf once per public pair with a port owner, in the order of the
// pairs' last occurrences.
func (st *state) ingestPlanned(pl *ingestPlan) {
	pl.clearScratch()
	stride := pl.seenStride()
	observers := make([][]*platform.VantagePoint, len(pl.addrs))
	for _, e := range pl.order {
		c := &pl.class[e.pair]
		ends := pl.pairs[e.pair]
		if c.state == pairUnclassified {
			ev, ok := st.classifyPair(pl.addrs[ends[0]], pl.addrs[ends[1]])
			if !ok {
				c.state = pairDiscarded
				continue
			}
			c.ev, c.state = ev, pairEvent
			st.addAdjacency(ev)
			st.addToPool(ev.near)
			st.addToPool(ev.other)
		}
		if c.state != pairEvent || e.vp < 0 {
			continue
		}
		for _, s := range ends {
			bit := int(s)*stride*64 + int(e.vp)
			if pl.seen[bit/64]&(1<<(bit%64)) == 0 {
				pl.seen[bit/64] |= 1 << (bit % 64)
				observers[s] = append(observers[s], pl.vps[e.vp])
			}
		}
	}
	for s, vps := range observers {
		if vps != nil {
			st.observedBy[pl.addrs[s]] = vps
		}
	}
	for _, pair := range pl.pairsByLast() {
		if c := &pl.class[pair]; c.state == pairEvent && c.ev.hasPortAS {
			st.portOf[portKey{c.ev.portAS, c.ev.ix}] = c.ev.other
		}
	}
}
