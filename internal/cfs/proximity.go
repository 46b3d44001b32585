package cfs

import (
	"facilitymap/internal/netaddr"
	"facilitymap/internal/world"
)

// Proximity is the learned facility-proximity ranking of one IXP:
// counts of how often a resolved near-end facility exchanged traffic
// with each far-end facility (§4.4). IXP fabrics keep traffic local to
// an access or backhaul switch, so the most-traversed far-end facility
// for a given near-end facility is its fabric-proximate one.
type Proximity struct {
	counts map[world.IXPID]map[[2]world.FacilityID]int
}

// NewProximity builds an empty ranking.
func NewProximity() *Proximity {
	return &Proximity{counts: make(map[world.IXPID]map[[2]world.FacilityID]int)}
}

// Observe records one public peering crossing with both ends resolved.
func (px *Proximity) Observe(ix world.IXPID, near, far world.FacilityID) {
	m := px.counts[ix]
	if m == nil {
		m = make(map[[2]world.FacilityID]int)
		px.counts[ix] = m
	}
	m[[2]world.FacilityID{near, far}]++
}

// Unobserve retracts one crossing (used by leave-one-out validation).
func (px *Proximity) Unobserve(ix world.IXPID, near, far world.FacilityID) {
	if m := px.counts[ix]; m != nil {
		if m[[2]world.FacilityID{near, far}] > 0 {
			m[[2]world.FacilityID{near, far}]--
		}
	}
}

// Pick chooses the far-end facility for a crossing whose near end is
// known, among the given candidates. It requires a strict ranking
// winner; ties (facilities on the same backhaul, §4.4) yield ok=false.
func (px *Proximity) Pick(ix world.IXPID, near world.FacilityID, cands []world.FacilityID) (world.FacilityID, bool) {
	m := px.counts[ix]
	if m == nil || len(cands) == 0 {
		return 0, false
	}
	// No defensive copy-and-sort: the winner is the unique maximum count
	// and the tie check trips whenever the maximum recurs, so the answer
	// is the same for any candidate order.
	best, bestN, tie := world.FacilityID(0), 0, false
	for _, c := range cands {
		n := m[[2]world.FacilityID{near, c}]
		switch {
		case n > bestN:
			best, bestN, tie = c, n, false
		case n == bestN && n > 0:
			tie = true
		}
	}
	if bestN == 0 || tie {
		return 0, false
	}
	return best, true
}

// reset empties every per-IXP count map, keeping the maps.
func (px *Proximity) reset() {
	for _, m := range px.counts {
		clear(m)
	}
}

// applyProximity runs the fallback far-end placement (§4.4): learn the
// proximity ranking from fully-resolved public crossings, then place
// far-end ports that still carry multiple candidate facilities.
// Placing one far port flips it to resolved, which later adjacencies
// sharing the port observe, so adjacency order is semantics. Like
// applyFarEnd it runs once, after the iteration loop reached its fixed
// point, outside any engine's dirty-set accounting, and places through
// place. The ranking is relearned every epoch into the pipeline's own
// Proximity, emptied first.
func (p *Pipeline) applyProximity(st *state, res *Result, placed map[netaddr.IP]placement) {
	px := p.px
	px.reset()
	for _, a := range st.adjOrder {
		if !a.Public {
			continue
		}
		near, far := res.Interfaces[a.Near], res.Interfaces[a.FarPort]
		if near != nil && far != nil && near.Resolved && far.Resolved {
			px.Observe(a.IXP, near.Facility, far.Facility)
		}
	}
	for _, a := range st.adjOrder {
		if !a.Public {
			continue
		}
		near, far := res.Interfaces[a.Near], res.Interfaces[a.FarPort]
		if near == nil || far == nil || !near.Resolved || far.Resolved {
			continue
		}
		if len(far.Candidates) < 2 {
			continue
		}
		if f, ok := px.Pick(a.IXP, near.Facility, far.Candidates); ok {
			p.place(res, far, f, true, placed)
			res.ProximityInferences++
		}
	}
}

// ProximityFromResults builds a ranking from externally-supplied
// resolved crossings; used by the §4.4 validation experiment, which
// learns from one member population and tests on another.
func ProximityFromResults(links []*Adjacency, loc map[netaddr.IP]world.FacilityID) *Proximity {
	px := NewProximity()
	for _, a := range links {
		if !a.Public {
			continue
		}
		n, okN := loc[a.Near]
		f, okF := loc[a.FarPort]
		if okN && okF {
			px.Observe(a.IXP, n, f)
		}
	}
	return px
}
