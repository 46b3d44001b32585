package cfs

import (
	"sort"

	"facilitymap/internal/netaddr"
	"facilitymap/internal/obs"
	"facilitymap/internal/platform"
	"facilitymap/internal/trace"
	"facilitymap/internal/world"
)

// Run executes the CFS loop over an initial traceroute corpus and
// returns the converged inferences.
func (p *Pipeline) Run(initial []trace.Path) *Result {
	return p.run(Observations{Paths: initial})
}

// engine schedules the per-iteration work of the CFS loop. The one
// runtime implementation is the worklist (worklist.go); the tests hold
// a second, the paper-literal rescan loop, as the oracle. Both share
// all state-mutation code and differ only in which adjacencies and
// alias sets an iteration visits, and the contract — enforced by the
// worklist-vs-rescan differential — is that both produce the
// bit-for-bit identical Result.
type engine interface {
	// resolveAliases (re-)runs alias resolution before an iteration.
	resolveAliases()
	// constraintPass runs Step 2, returning how many adjacencies were
	// visited and how many constraint proposals were recomputed.
	constraintPass() (dirty, recomputed int)
	// aliasPass runs Step 3, returning the alias-set intersections
	// recomputed.
	aliasPass() (recomputed int)
}

func (p *Pipeline) run(in Observations) *Result {
	st := p.newState()
	eng := p.newEngine(st)
	st.ingestPaths(in.Paths)
	for _, s := range in.Sessions {
		st.processSession(s)
	}
	st.captureProvBase()

	// Retain the converged state, engine and corpus for ApplyDelta.
	// The corpus copy grows with every targeted follow-up path, so a
	// re-ingestion epoch can replay exactly what this run consumed.
	p.st, p.eng, p.epoch = st, eng, 0
	p.obsIn = Observations{
		Paths:    append([]trace.Path(nil), in.Paths...),
		Sessions: append([]SessionObservation(nil), in.Sessions...),
	}

	history := p.converge(st, eng, p.cfg.UseTargeted)
	return p.finish(st, history)
}

// converge drives the CFS iteration loop to its fixed point and
// returns the convergence curve. Targeted follow-ups are suppressed on
// re-ingestion epochs (the retained corpus already contains the
// follow-up paths of the original run; re-measuring them would fork
// the probe stream from the fresh-run equivalent).
func (p *Pipeline) converge(st *state, eng engine, useTargeted bool) []IterationStats {
	aliasAt := make(map[int]bool, len(p.cfg.AliasRounds))
	for _, r := range p.cfg.AliasRounds {
		aliasAt[r] = true
	}

	var history []IterationStats
	for iter := 1; iter <= p.cfg.MaxIterations; iter++ {
		// WallTime clock boundaries are identical for every engine: the
		// engine phases (alias resolve, constraint pass, alias pass) and
		// the follow-up round are timed; the snapshot scan and all metric
		// emission in between are excluded, so enabling observability
		// does not inflate the reported per-iteration wall time.
		start := p.now()
		st.changed = false
		if aliasAt[iter] {
			eng.resolveAliases()
		}
		afterResolve := p.now()
		dirty, constraintRecomputed := eng.constraintPass()
		afterConstraint := p.now()
		aliasRecomputed := eng.aliasPass()
		engineEnd := p.now()
		recomputed := constraintRecomputed + aliasRecomputed

		stats := st.snapshot(iter)
		stats.DirtyAdjs = dirty
		stats.Recomputed = recomputed

		if aliasAt[iter] {
			p.m.aliasRounds.Inc()
			p.m.phaseAliasResolve.Observe(afterResolve.Sub(start))
			p.emit("alias_round", obs.F("iter", iter))
		}
		p.m.phaseConstraint.Observe(afterConstraint.Sub(afterResolve))
		p.m.phaseAlias.Observe(engineEnd.Sub(afterConstraint))
		p.m.dirtyAdjs.Add(int64(dirty))
		p.m.recomputed.Add(int64(recomputed))
		p.emit("constraint_pass",
			obs.F("iter", iter),
			obs.F("dirty", dirty),
			obs.F("recomputed", constraintRecomputed),
		)
		p.emit("alias_pass",
			obs.F("iter", iter),
			obs.F("recomputed", aliasRecomputed),
		)

		followUps, newAdjs := 0, 0
		followStart := p.now()
		if useTargeted && p.svc != nil && iter < p.cfg.MaxIterations {
			followUps, newAdjs = st.targetedRound(iter)
		}
		followEnd := p.now()
		stats.FollowUps = followUps
		stats.NewAdjs = newAdjs
		stats.WallTime = engineEnd.Sub(start) + followEnd.Sub(followStart)
		history = append(history, stats)

		p.m.phaseFollowUp.Observe(followEnd.Sub(followStart))
		p.m.iterWall.Observe(stats.WallTime)
		p.m.iterations.Inc()
		p.m.followUps.Add(int64(followUps))
		p.m.newAdjs.Add(int64(newAdjs))
		p.m.conflicts.Set(int64(stats.Conflicts))
		p.m.resolved.Set(int64(stats.Resolved))
		p.m.observed.Set(int64(stats.Observed))
		if followUps > 0 {
			p.emit("followup_plan",
				obs.F("iter", iter),
				obs.F("follow_ups", followUps),
				obs.F("new_adjs", newAdjs),
			)
		}
		p.emit("iteration",
			obs.F("iter", iter),
			obs.F("observed", stats.Observed),
			obs.F("resolved", stats.Resolved),
			obs.F("city_only", stats.CityOnly),
			obs.F("conflicts", stats.Conflicts),
			obs.F("dirty", dirty),
			obs.F("recomputed", recomputed),
			obs.F("follow_ups", followUps),
			obs.F("new_adjs", newAdjs),
		)

		if stats.Resolved == stats.Observed {
			break
		}
		if !st.changed && newAdjs == 0 && !aliasAt[iter+1] {
			break // fixed point: nothing more to learn
		}
	}
	return history
}

// finish assembles the immutable snapshot for the current epoch: the
// deep-copied Result plus the two second-class post-passes (§4.3
// far-end, §4.4 proximity), both pure functions of converged state.
func (p *Pipeline) finish(st *state, history []IterationStats) *Result {
	res := st.assemble(history)
	p.applyFarEnd(st, res)
	if p.cfg.UseProximity {
		p.applyProximity(st, res)
	}
	res.Epoch = p.epoch
	p.m.snapshotVer.Set(int64(p.epoch))
	return res
}

// applyFarEnd is the §4.3 cross-connect inference, run as a second-class
// pass so its errors cannot cascade through alias propagation: once the
// near router of a cross-connect is pinned to one facility, its other
// end sits in the same building, provided the far AS is known to be
// present there.
func (p *Pipeline) applyFarEnd(st *state, res *Result) {
	for _, a := range st.adjOrder {
		if a.Public || a.Type != PrivateCrossConnect {
			continue
		}
		near, far := res.Interfaces[a.Near], res.Interfaces[a.Far]
		if near == nil || far == nil || !near.Resolved || far.Resolved {
			continue
		}
		if near.ViaFarEnd || near.ViaProximity {
			continue // no chaining off heuristic placements
		}
		f := near.Facility
		coPresent := false
		for _, g := range p.db.FacilitiesOfAS(a.FarAS) {
			if g == f {
				coPresent = true
				break
			}
		}
		if !coPresent {
			continue
		}
		// Consistent with the far side's own candidates, if any.
		if len(far.Candidates) > 0 {
			in := false
			for _, c := range far.Candidates {
				if c == f {
					in = true
				}
			}
			if !in {
				continue
			}
		}
		far.Resolved = true
		far.Facility = f
		far.Candidates = []world.FacilityID{f}
		far.ViaFarEnd = true
		res.FarEndInferences++
	}
}

func (st *state) snapshot(iter int) IterationStats {
	s := IterationStats{Iteration: iter, Observed: len(st.pool), Conflicts: st.conflicts}
	for _, ip := range st.pool {
		c := st.cand[ip]
		switch n := c.count(); {
		case n == 1:
			s.Resolved++
		case n > 1 && st.singleCluster(c):
			s.CityOnly++
		}
		if st.remoteIface[ip] {
			s.RemoteSeen++
		}
	}
	return s
}

// singleCluster reports whether every candidate facility normalises to
// one metro cluster.
func (st *state) singleCluster(c facset) bool {
	first, ok := -1, true
	st.p.fs.fx.each(c, func(f world.FacilityID) bool {
		cl, known := st.p.db.MetroClusterOf(f)
		if !known {
			ok = false
			return false
		}
		if first == -1 {
			first = cl
			return true
		}
		if cl != first {
			ok = false
			return false
		}
		return true
	})
	return ok && first != -1
}

// targetPlan is the precomputed follow-up selection for one unresolved
// interface: the outcome of the pure target-picking scan, decoupled
// from probe issuing so the scan can fan out across workers.
type targetPlan struct {
	ok      bool
	targets []world.ASN
}

// planTargets runs the pure half of Step 4 for one interface: resolve
// its owner, look up the owner's footprint, and score candidate target
// ASes. It reads only round-start state (candidate sets, queried IXPs
// and used-target records are not mutated while planning), so plans
// computed concurrently match the lazy serial computation exactly.
func (st *state) planTargets(ip netaddr.IP, owner ownerFn) targetPlan {
	ownerAS, ok := owner(ip)
	if !ok {
		return targetPlan{}
	}
	fa := st.p.db.FacilitiesOfAS(ownerAS)
	if len(fa) == 0 {
		return targetPlan{} // missing facility data: no constraint can help
	}
	cand := st.cand[ip]
	if cand == nil {
		cand = st.p.fs.ofAS(st.p.db, ownerAS)
	}
	return targetPlan{ok: true, targets: st.pickTargets(ip, ownerAS, fa, cand)}
}

// targetedRound implements Step 4: for unresolved interfaces, pick
// target ASes whose facility sets can shrink the candidates, and
// traceroute toward them from vantage points that saw the interface.
//
// Target selection — the expensive scan over every origin AS — is a
// pure function of round-start state, so with multiple workers it
// precomputes for the whole unresolved pool in parallel. The probes
// themselves always issue from this goroutine in pool order: the
// simulated engine derives measurement randomness from its global
// probe counter, and follow-up paths feed back into the pool that
// later target-address picks consult, so issue order is semantics.
// Workers=1 keeps the lazy serial scan and does no extra work beyond
// the follow-up budget.
func (st *state) targetedRound(iter int) (followUps, newAdjs int) {
	cfg := st.p.cfg
	budget := cfg.FollowUpBudget
	allowed := make(map[platform.Kind]bool, len(cfg.Platforms))
	for _, k := range cfg.Platforms {
		allowed[k] = true
	}
	unresolved := st.unresolved()
	var plans []targetPlan
	if w := cfg.workerCount(); w > 1 && len(unresolved) >= minParallelPlans {
		plans = make([]targetPlan, len(unresolved))
		parallelRanges(len(unresolved), w, func(_, lo, hi int) {
			owner := st.readOnlyOwner()
			for i := lo; i < hi; i++ {
				plans[i] = st.planTargets(unresolved[i], owner.ownerOf)
			}
		})
	}
	for i, ip := range unresolved {
		if budget <= 0 {
			break
		}
		var plan targetPlan
		if plans != nil {
			plan = plans[i]
		} else {
			plan = st.planTargets(ip, st.ownerOf)
		}
		if !plan.ok {
			continue
		}
		for _, tgt := range plan.targets {
			if budget <= 0 {
				break
			}
			dst, ok := st.targetAddress(tgt)
			if !ok {
				continue
			}
			vps := st.vantagePoints(ip, allowed, iter)
			for _, vp := range vps {
				if budget <= 0 {
					break
				}
				if cfg.MDAFlows > 1 {
					for _, path := range st.p.svc.MDAFrom(vp, dst, cfg.MDAFlows) {
						st.p.obsIn.Paths = append(st.p.obsIn.Paths, path)
						newAdjs += st.processPath(path)
					}
					followUps += cfg.MDAFlows
					budget -= cfg.MDAFlows
					continue
				}
				path := st.p.svc.TracerouteFrom(vp, dst)
				followUps++
				budget--
				st.p.obsIn.Paths = append(st.p.obsIn.Paths, path)
				newAdjs += st.processPath(path)
			}
			used := st.usedTargets[ip]
			if used == nil {
				used = make(map[world.ASN]bool)
				st.usedTargets[ip] = used
			}
			used[tgt] = true
		}
	}
	return followUps, newAdjs
}

// pickTargets selects follow-up target ASes for an unresolved interface
// owned by A: networks whose facility footprint is a subset of A's
// (paper: {F_target} ⊂ {F_A}) and overlaps — but does not cover — the
// current candidate set, smallest overlap first, preferring targets not
// colocated at IXPs already used to constrain this interface.
func (st *state) pickTargets(ip netaddr.IP, a world.ASN, fa []world.FacilityID, cand facset) []world.ASN {
	fs := st.p.fs
	faSet := fs.ofAS(st.p.db, a)
	candN := cand.count()
	queried := st.queriedIXPs[ip]
	used := st.usedTargets[ip]

	type scored struct {
		asn     world.ASN
		overlap int
		subset  bool // facility footprint fully inside F_A
		atQuery bool // colocated at an already-queried IXP
	}
	var cands []scored
	for _, rec := range st.allASNs {
		if rec == a || used[rec] {
			continue
		}
		ftSet := fs.ofAS(st.p.db, rec)
		if ftSet.count() == 0 {
			continue
		}
		subset := ftSet.count() < len(fa) && subsetOf(ftSet, faSet)
		overlap := overlapCount(ftSet, cand)
		if overlap == 0 || overlap == candN {
			continue
		}
		atQuery := false
		for _, ix := range st.p.db.IXPsOfAS(rec) {
			if queried[ix] {
				atQuery = true
				break
			}
		}
		cands = append(cands, scored{rec, overlap, subset, atQuery})
	}
	sort.Slice(cands, func(i, j int) bool {
		// Paper preference first: targets whose footprint is a strict
		// subset of F_A guarantee any resulting constraint shrinks the
		// set; non-subset overlappers are a fallback tier.
		if cands[i].subset != cands[j].subset {
			return cands[i].subset
		}
		if cands[i].atQuery != cands[j].atQuery {
			return !cands[i].atQuery // unqueried-IXP targets first
		}
		if cands[i].overlap != cands[j].overlap {
			return cands[i].overlap < cands[j].overlap
		}
		return cands[i].asn < cands[j].asn
	})
	n := st.p.cfg.TargetsPerInterface
	if n > len(cands) {
		n = len(cands)
	}
	out := make([]world.ASN, 0, n)
	for _, c := range cands[:n] {
		out = append(out, c.asn)
	}
	return out
}

// targetAddress picks "one active IP per prefix" for a target AS: a
// previously-observed interface when available, otherwise the first
// host of its announced prefix.
func (st *state) targetAddress(asn world.ASN) (netaddr.IP, bool) {
	for _, ip := range st.pool {
		if o, ok := st.ownerOf(ip); ok && o == asn {
			if _, isIXP := st.p.db.IXPByIP(ip); !isIXP {
				return ip, true
			}
		}
	}
	prefixes := st.p.ipasn.PrefixesOf(asn)
	if len(prefixes) == 0 {
		return 0, false
	}
	return prefixes[0].Addr + 1, true
}

// vantagePoints selects sources for a follow-up: vantage points that
// already observed the interface (their paths cross its router), else a
// deterministic rotation over the allowed platforms.
func (st *state) vantagePoints(ip netaddr.IP, allowed map[platform.Kind]bool, iter int) []*platform.VantagePoint {
	var out []*platform.VantagePoint
	for _, vp := range st.observedBy[ip] {
		if allowed[vp.Kind] {
			out = append(out, vp)
			if len(out) >= st.p.cfg.VPsPerTarget {
				return out
			}
		}
	}
	fleet := st.p.svc.Fleet().VPs
	if len(fleet) == 0 {
		return out
	}
	start := (int(ip) + iter*7919) % len(fleet)
	for i := 0; i < len(fleet) && len(out) < st.p.cfg.VPsPerTarget; i++ {
		vp := fleet[(start+i)%len(fleet)]
		if allowed[vp.Kind] {
			out = append(out, vp)
		}
	}
	return out
}

// assemble builds the final Result from converged state.
func (st *state) assemble(history []IterationStats) *Result {
	res := &Result{
		Interfaces: make(map[netaddr.IP]*InterfaceResult, len(st.pool)),
		History:    history,
	}
	for _, ip := range st.pool {
		ir := &InterfaceResult{IP: ip, RemoteMember: st.remoteIface[ip]}
		if asn, ok := st.ownerOf(ip); ok {
			ir.Owner = asn
		}
		if c := st.cand[ip]; c != nil {
			// appendIDs walks bit slots in order, which the index assigned
			// by ascending FacilityID — no sort needed.
			ir.Candidates = st.p.fs.fx.appendIDs(c, nil)
			if len(ir.Candidates) == 1 {
				ir.Resolved = true
				ir.Facility = ir.Candidates[0]
			} else if st.singleCluster(c) {
				ir.CityConstrain = true
				ir.CityCluster, _ = st.p.db.MetroClusterOf(ir.Candidates[0])
			}
		}
		if !ir.Resolved && ir.Owner != 0 && len(st.p.db.FacilitiesOfAS(ir.Owner)) == 0 {
			res.MissingFacilityData++
		}
		res.Interfaces[ip] = ir
	}
	// The snapshot must outlive the live state: later delta epochs
	// mutate adjacencies in place and append provenance, so both are
	// deep-copied here. aliasSetOf captures the current Sets object,
	// which is immutable — re-resolution replaces the pointer.
	res.Links = make([]*Adjacency, len(st.adjOrder))
	for i, a := range st.adjOrder {
		cp := *a
		res.Links[i] = &cp
	}
	if st.sets != nil {
		res.aliasSetOf = st.sets.SetID
	}
	if st.prov != nil {
		res.Provenance = make(map[netaddr.IP][]string, len(st.prov))
		//cfslint:ordered per-key deep copy into a fresh map: each note slice is copied independently, so iteration order cannot reach the result
		for ip, notes := range st.prov {
			res.Provenance[ip] = append([]string(nil), notes...)
		}
	}
	return res
}
