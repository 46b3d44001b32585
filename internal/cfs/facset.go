package cfs

import (
	"fmt"
	"math/bits"

	"facilitymap/internal/registry"
	"facilitymap/internal/world"
)

// The candidate-set machinery is the innermost loop of CFS: every
// constraint proposal intersects facility sets, every alias pass
// re-intersects candidate sets across a router's interfaces, and every
// snapshot counts them. The original representation —
// map[world.FacilityID]bool — costs one allocation plus hashing per
// element per operation. facset replaces it with a dense bitset over a
// per-pipeline facility index: intersect is a word-wise AND, size is
// popcount, and the common sets (an AS's footprint, an IXP's facility
// list) are interned once per pipeline and shared read-only across
// iterations.

// facIndex maps the pipeline's facility universe to dense bit slots.
// Slots are assigned in ascending FacilityID order, so walking a
// facset's bits in slot order yields facility IDs already sorted —
// assemble and the property tests rely on this. Built once per
// pipeline from the registry (immutable within a run) and never
// mutated afterwards.
type facIndex struct {
	ids   []world.FacilityID       // slot -> FacilityID, ascending
	slots map[world.FacilityID]int // FacilityID -> slot
	words int                      // len of every facset built by this index
}

// newFacIndex builds the index over a sorted, duplicate-free universe.
func newFacIndex(universe []world.FacilityID) *facIndex {
	x := &facIndex{
		ids:   universe,
		slots: make(map[world.FacilityID]int, len(universe)),
		words: (len(universe) + 63) / 64,
	}
	for slot, id := range universe {
		x.slots[id] = slot
	}
	return x
}

// has reports whether id is in the universe.
func (x *facIndex) has(id world.FacilityID) bool {
	_, ok := x.slots[id]
	return ok
}

// setOf builds a facset from a facility list. IDs outside the universe
// are impossible by construction: the universe is the union of every
// association in the registry, and ApplyDelta rejects deltas naming
// anything else. One reaching here is a bug, so it panics rather than
// land in some other facility's slot.
func (x *facIndex) setOf(ids []world.FacilityID) facset {
	if len(ids) == 0 {
		return nil
	}
	s := make(facset, x.words)
	for _, id := range ids {
		slot, ok := x.slots[id]
		if !ok {
			panic(fmt.Sprintf("cfs: facility %d outside the pipeline's facility universe", id))
		}
		s[slot>>6] |= 1 << (slot & 63)
	}
	return s
}

// appendIDs appends s's members to dst in ascending FacilityID order.
func (x *facIndex) appendIDs(s facset, dst []world.FacilityID) []world.FacilityID {
	for w, word := range s {
		for word != 0 {
			bit := bits.TrailingZeros64(word)
			dst = append(dst, x.ids[w<<6|bit])
			word &= word - 1
		}
	}
	return dst
}

// each calls fn for every member of s in ascending FacilityID order,
// stopping early when fn returns false.
func (x *facIndex) each(s facset, fn func(world.FacilityID) bool) {
	for w, word := range s {
		for word != 0 {
			bit := bits.TrailingZeros64(word)
			if !fn(x.ids[w<<6|bit]) {
				return
			}
			word &= word - 1
		}
	}
}

// facset is a candidate facility set: a bitset whose slot layout comes
// from the pipeline's facIndex. A nil facset means "no constraint yet"
// (distinct from a non-nil all-zero set, which records an outright
// disagreement); the distinction mirrors the old nil-map convention.
type facset []uint64

// count returns the number of facilities in the set.
func (s facset) count() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// has reports whether the facility occupying the given slot is present.
func (s facset) has(slot int) bool {
	w := slot >> 6
	return w < len(s) && s[w]&(1<<(slot&63)) != 0
}

// clone returns a copy safe to mutate.
func (s facset) clone() facset {
	if s == nil {
		return nil
	}
	out := make(facset, len(s))
	copy(out, s)
	return out
}

// intersect returns a ∩ b as a fresh set, never aliasing its inputs.
// Differing word counts cannot occur within one pipeline; the min
// guard keeps mixed-index misuse from reading out of bounds.
func intersect(a, b facset) facset {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	out := make(facset, n)
	for i := 0; i < n; i++ {
		out[i] = a[i] & b[i]
	}
	return out
}

// intersectWith narrows s in place to s ∩ t, returning the surviving
// count. Only legal on sets the caller owns (clones), never on interned
// footprints.
func (s facset) intersectWith(t facset) int {
	n := 0
	for i := range s {
		if i < len(t) {
			s[i] &= t[i]
		} else {
			s[i] = 0
		}
		n += bits.OnesCount64(s[i])
	}
	return n
}

// overlapCount returns |a ∩ b| without materialising the intersection.
func overlapCount(a, b facset) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	c := 0
	for i := 0; i < n; i++ {
		c += bits.OnesCount64(a[i] & b[i])
	}
	return c
}

// subsetOf reports whether a ⊆ b.
func subsetOf(a, b facset) bool {
	for i, w := range a {
		if i >= len(b) {
			if w != 0 {
				return false
			}
			continue
		}
		if w&^b[i] != 0 {
			return false
		}
	}
	return true
}

// facsets is the pipeline's interned facility-set store: the facility
// index plus the per-AS and per-IXP bitsets the constraint step
// intersects on every proposal. Built at pipeline construction; only
// ApplyDelta replaces the footprint of an AS or IXP whose facility
// list a delta edited, so within a run every interned set is
// read-only and may be shared.
type facsets struct {
	fx  *facIndex
	as  map[world.ASN]facset
	ixp map[world.IXPID]facset
}

func newFacsets(db *registry.Database) *facsets {
	fs := &facsets{fx: newFacIndex(db.AllFacilityIDs())}
	asns := db.AllASNs()
	fs.as = make(map[world.ASN]facset, len(asns))
	for _, asn := range asns {
		fs.as[asn] = fs.fx.setOf(db.FacilitiesOfAS(asn))
	}
	fs.ixp = make(map[world.IXPID]facset, len(db.IXPs))
	for ix := range db.IXPs {
		fs.ixp[ix] = fs.fx.setOf(db.FacilitiesOfIXP(ix))
	}
	return fs
}

// ofAS returns the interned footprint of an AS (nil when the registry
// knows no facilities for it). The returned set is shared: callers
// must not mutate it. ASNs outside the interned universe fall back to
// a fresh conversion so hand-fed owner data cannot silently read nil.
func (fs *facsets) ofAS(db *registry.Database, asn world.ASN) facset {
	if s, ok := fs.as[asn]; ok {
		return s
	}
	return fs.fx.setOf(db.FacilitiesOfAS(asn))
}

// ofIXP is ofAS for an IXP's facility list.
func (fs *facsets) ofIXP(db *registry.Database, ix world.IXPID) facset {
	if s, ok := fs.ixp[ix]; ok {
		return s
	}
	return fs.fx.setOf(db.FacilitiesOfIXP(ix))
}
