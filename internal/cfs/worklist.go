package cfs

// The incremental worklist engine, the CFS loop's one iteration core.
// The paper-literal loop reprocesses every adjacency and alias set each
// iteration even though, after the first pass, only state touched by
// new observations can still change. This engine maintains a
// dependency index —
//
//   interface        → adjacencies whose proposal reads its owner
//   alias set        → member interfaces (setOf, inverted)
//   AS / IXP         → adjacencies constrained by its facility list
//
// — and dirty sets seeded by path ingestion. Each iteration pops only
// the dirty adjacencies, recomputes their proposals (fanned out over
// the Config.Workers pool), and re-enqueues dependents when constrain()
// actually narrows a candidate set.
//
// Equivalence with the paper-literal loop is an invariant, not an
// aspiration: the tests keep that loop as the rescan oracle
// (rescan_test.go) and run the worklist differential against it. It
// rests on three properties of the shared state code:
//
//  1. A constraint proposal reads only interface owners and the static
//     registry, never candidate sets. So an adjacency's proposal can
//     change only when it is new or when an owner changed (alias
//     repair) — exactly the events that dirty it.
//  2. Constraints are monotone intersections: re-applying an unchanged
//     proposal is a no-op (cannot narrow further, cannot newly
//     conflict), and remote-peering verdicts are cached forever, so
//     skipping a clean adjacency skips no measurement and no mutation.
//  3. An alias set reaches its fixed point the moment it is processed
//     (every member's candidate set becomes the set-wide
//     intersection), so it needs revisiting only when a member was
//     narrowed from outside or after a set rebuild.
//
// Dirty work is always applied in ascending index order — the same
// relative order the full rescan uses — so candidate-set mutations,
// provenance, conflict discovery and the serially-issued measurements
// interleave identically.

import (
	"sort"

	"facilitymap/internal/netaddr"
	"facilitymap/internal/world"
)

type worklist struct {
	st *state

	// indexed is how many adjOrder entries have been registered in the
	// dependency index; entries beyond it are new and become dirty at
	// the next constraint pass.
	indexed int

	// Dependency index.
	ifaceAdjs map[netaddr.IP][]int     // interface -> dependent adjacency indices
	asAdjs    map[world.ASN][]int      // AS facility list -> constrained adjacencies
	ixpAdjs   map[world.IXPID][]int    // IXP facility list -> constrained adjacencies
	lastOwner map[netaddr.IP]world.ASN // owner at last (re-)registration, 0 = unresolved

	// Dirty sets.
	dirtyAdj  map[int]bool // adjOrder indices to reprocess
	dirtySets map[int]bool // Sets.All indices to re-intersect
	setOf     map[netaddr.IP]int

	// pristine is parallel to adjOrder: a value copy of every
	// adjacency as registered, before any constraint pass mutated its
	// Type/owner fields. A surgical delta epoch restores re-dirtied
	// adjacencies from here so a stale classification (say PublicRemote
	// from the old facility lists) cannot survive into the new fixed
	// point when neither classify branch fires under the new lists.
	pristine []Adjacency

	// applyingSet suppresses self-re-enqueueing: while an alias set's
	// own intersection is being applied to its members, their narrowing
	// must not re-dirty the set (it is at its fixed point afterwards).
	applyingSet int
}

func newWorklist(st *state) *worklist {
	w := &worklist{
		st:          st,
		ifaceAdjs:   make(map[netaddr.IP][]int),
		asAdjs:      make(map[world.ASN][]int),
		ixpAdjs:     make(map[world.IXPID][]int),
		lastOwner:   make(map[netaddr.IP]world.ASN),
		dirtyAdj:    make(map[int]bool),
		dirtySets:   make(map[int]bool),
		setOf:       make(map[netaddr.IP]int),
		applyingSet: -1,
	}
	st.wl = w
	return w
}

// candChanged is called by constrain whenever ip's candidate set
// narrows: the alias set containing ip must re-intersect.
func (w *worklist) candChanged(ip netaddr.IP) {
	if idx, ok := w.setOf[ip]; ok && idx != w.applyingSet {
		w.dirtySets[idx] = true
	}
}

// register indexes adjacencies appended to adjOrder since the last
// pass and marks them dirty.
func (w *worklist) register() {
	st := w.st
	for idx := w.indexed; idx < len(st.adjOrder); idx++ {
		a := st.adjOrder[idx]
		w.pristine = append(w.pristine, *a)
		w.dirtyAdj[idx] = true
		w.dep(a.Near, idx)
		if a.Public {
			w.dep(a.FarPort, idx)
			w.ixpAdjs[a.IXP] = append(w.ixpAdjs[a.IXP], idx)
		} else {
			w.dep(a.Far, idx)
		}
	}
	w.indexed = len(st.adjOrder)
}

// dep records that adjacency idx's proposal depends on ip's owner (and
// thereby on that owner's facility list).
func (w *worklist) dep(ip netaddr.IP, idx int) {
	w.ifaceAdjs[ip] = append(w.ifaceAdjs[ip], idx)
	asn, _ := w.st.ownerOf(ip)
	w.lastOwner[ip] = asn
	if asn != 0 {
		w.asAdjs[asn] = append(w.asAdjs[asn], idx)
	}
}

// resolveAliases wraps the shared alias-resolution pass with the two
// invalidations it implies: adjacencies whose interface owners were
// repaired get re-proposed, and — because Sets.All indices are not
// stable across a rebuild — every multi-member set re-intersects.
func (w *worklist) resolveAliases() {
	w.st.resolveAliases()
	//cfslint:ordered writes only the dirtyAdj/asAdjs accumulator sets, keyed independently per entry; the drain sorts before processing, so map order never reaches an inference
	for ip, idxs := range w.ifaceAdjs {
		asn, _ := w.st.ownerOf(ip)
		if asn == w.lastOwner[ip] {
			continue
		}
		w.lastOwner[ip] = asn
		for _, idx := range idxs {
			w.dirtyAdj[idx] = true
		}
		if asn != 0 {
			w.asAdjs[asn] = append(w.asAdjs[asn], idxs...)
		}
	}
	w.rebuildSets()
}

// rebuildSets re-derives the member→set index after alias resolution
// and marks every multi-member set dirty.
func (w *worklist) rebuildSets() {
	w.setOf = make(map[netaddr.IP]int)
	w.dirtySets = make(map[int]bool)
	if w.st.sets == nil {
		return
	}
	for i, set := range w.st.sets.All() {
		if len(set) < 2 {
			continue
		}
		w.dirtySets[i] = true
		for _, ip := range set {
			w.setOf[ip] = i
		}
	}
}

// constraintPass pops the dirty adjacencies and reprocesses only them,
// in ascending index order. Proposal computation fans out over the
// worker pool; the apply half runs on the coordinator.
func (w *worklist) constraintPass() (dirty, recomputed int) {
	st := w.st
	w.register()
	if len(w.dirtyAdj) == 0 {
		return 0, 0
	}
	idxs := make([]int, 0, len(w.dirtyAdj))
	for idx := range w.dirtyAdj {
		idxs = append(idxs, idx)
	}
	sort.Ints(idxs)
	w.dirtyAdj = make(map[int]bool)

	adjs := st.adjOrder
	if wk := st.p.cfg.workerCount(); wk > 1 && len(idxs) >= minParallelAdjs {
		proposals := make([]adjProposal, len(idxs))
		parallelRanges(len(idxs), wk, func(_, lo, hi int) {
			owner := st.readOnlyOwner()
			for i := lo; i < hi; i++ {
				proposals[i] = st.computeProposal(adjs[idxs[i]], owner.ownerOf)
			}
		})
		for i, idx := range idxs {
			st.applyProposal(idx, adjs[idx], proposals[i])
		}
		return len(idxs), len(idxs)
	}
	for _, idx := range idxs {
		st.applyProposal(idx, adjs[idx], st.computeProposal(adjs[idx], st.ownerOf))
	}
	return len(idxs), len(idxs)
}

// aliasPass re-intersects only the dirty alias sets, in ascending set
// order.
func (w *worklist) aliasPass() (recomputed int) {
	if w.st.sets == nil || len(w.dirtySets) == 0 {
		return 0
	}
	idxs := make([]int, 0, len(w.dirtySets))
	for idx := range w.dirtySets {
		idxs = append(idxs, idx)
	}
	sort.Ints(idxs)
	w.dirtySets = make(map[int]bool)
	return w.st.aliasStepSets(idxs)
}

// invalidateAS re-enqueues every adjacency constrained by asn's
// facility list. The registry is immutable within a run, so the run
// loop never calls this; it is the hook a streaming feed of PeeringDB
// updates uses to make the fixed point track facility-list edits.
func (w *worklist) invalidateAS(asn world.ASN) {
	for _, idx := range w.asAdjs[asn] {
		w.dirtyAdj[idx] = true
	}
}

// invalidateIXP is invalidateAS for an IXP's facility list.
func (w *worklist) invalidateIXP(ix world.IXPID) {
	for _, idx := range w.ixpAdjs[ix] {
		w.dirtyAdj[idx] = true
	}
}
