package cfs

import (
	"facilitymap/internal/netaddr"
	"facilitymap/internal/obs"
	"facilitymap/internal/world"
)

// Merge combines the results of several CFS runs into one incremental
// map — the paper's closing point (§8): "by utilizing results for
// individual interconnections and others inferred in the process, it is
// possible to incrementally construct a more detailed map of
// interconnections."
//
// Merge consumes finished Results, after the loop has run to its fixed
// point, so it never sees how an iteration was scheduled.
//
// Per interface, candidate sets intersect across runs (each run's set is
// a sound over-approximation, so the intersection is too); an interface
// unresolved in one run may collapse to a single facility once another
// run contributes a disjoint constraint. Runs that disagree outright —
// an empty intersection — keep the earliest run's answer and increment
// MergeConflicts. Links are unioned. The merged Epoch is the maximum of
// the inputs' epochs (the merge describes the newest state involved).
func Merge(results ...*Result) *Result {
	return MergeObserved(nil, results...)
}

// MergeObserved is Merge with observability: when o is non-nil it
// books cfs.merge.* counters and emits one "merge" event describing
// the fold. Observation is strictly one-way — the merged Result is
// bit-for-bit identical whether or not o is supplied.
func MergeObserved(o *obs.Obs, results ...*Result) *Result {
	out := &Result{Interfaces: make(map[netaddr.IP]*InterfaceResult)}
	seenLinks := make(map[adjKey]bool)
	// First pass: global counters, link union (order-preserving), and
	// the per-address fold lists in run order.
	perIP := make(map[netaddr.IP][]*InterfaceResult)
	for _, res := range results {
		if res == nil {
			continue
		}
		out.MissingFacilityData += res.MissingFacilityData
		out.ProximityInferences += res.ProximityInferences
		out.FarEndInferences += res.FarEndInferences
		// A merge of epoch-N and epoch-M snapshots describes the world
		// as of the newest input, so the merged result carries the max
		// epoch rather than silently resetting to 0.
		if res.Epoch > out.Epoch {
			out.Epoch = res.Epoch
		}
		if out.aliasSetOf == nil {
			out.aliasSetOf = res.aliasSetOf
		}
		for _, a := range res.Links {
			key := adjKey{a.Near, a.FarPort}
			if !a.Public {
				key = adjKey{a.Near, a.Far}
			}
			if !seenLinks[key] {
				seenLinks[key] = true
				out.Links = append(out.Links, a)
			}
		}
		for ip, ir := range res.Interfaces {
			perIP[ip] = append(perIP[ip], ir)
		}
	}
	// Second pass: fold each address's run sequence in turn.
	//cfslint:ordered each address folds its own run list into its own fresh record, and the conflict total is a sum, so map order cannot reach the result
	for ip, runs := range perIP {
		cur := *runs[0]
		cur.Candidates = append([]world.FacilityID(nil), runs[0].Candidates...)
		for _, next := range runs[1:] {
			if mergeInterface(&cur, next) {
				out.MergeConflicts++
			}
		}
		out.Interfaces[ip] = &cur
	}

	o.Counter("cfs.merge.runs").Add(int64(len(results)))
	o.Counter("cfs.merge.interfaces").Add(int64(len(out.Interfaces)))
	o.Counter("cfs.merge.conflicts").Add(int64(out.MergeConflicts))
	o.Counter("cfs.merge.links").Add(int64(len(out.Links)))
	o.Emit("merge",
		obs.F("runs", len(results)),
		obs.F("interfaces", len(out.Interfaces)),
		obs.F("links", len(out.Links)),
		obs.F("conflicts", out.MergeConflicts),
	)
	return out
}

// mergeInterface folds one further run's inference into cur, reporting
// whether the candidate sets disagreed outright (in which case cur
// keeps the earlier answer).
func mergeInterface(cur *InterfaceResult, next *InterfaceResult) (conflict bool) {
	if cur.Owner == 0 {
		cur.Owner = next.Owner
	}
	cur.RemoteMember = cur.RemoteMember || next.RemoteMember
	cur.ViaProximity = cur.ViaProximity && next.ViaProximity
	cur.ViaFarEnd = cur.ViaFarEnd && next.ViaFarEnd
	switch {
	case len(next.Candidates) == 0:
		// The new run adds no constraint.
	case len(cur.Candidates) == 0:
		cur.Candidates = append([]world.FacilityID(nil), next.Candidates...)
	default:
		inter := intersectSlices(cur.Candidates, next.Candidates)
		if len(inter) == 0 {
			return true // keep the earlier run's answer
		}
		cur.Candidates = inter
	}
	if len(cur.Candidates) == 1 {
		cur.Resolved = true
		cur.Facility = cur.Candidates[0]
		cur.CityConstrain = false
	} else {
		cur.Resolved = false
	}
	return false
}

// intersectSlices merges two ascending candidate lists linearly. Both
// inputs are sorted by construction: assemble emits candidates in index
// order and mergeInterface only ever stores intersectSlices output or
// copies of such lists.
func intersectSlices(a, b []world.FacilityID) []world.FacilityID {
	var out []world.FacilityID
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}
