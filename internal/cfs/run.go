package cfs

import (
	"cmp"
	"maps"
	"slices"

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
	start := p.now()
	st.ingestPaths(in.Paths)
	p.m.phaseIngest.Observe(p.now().Sub(start))
	for _, s := range in.Sessions {
		st.processSession(s)
	}
	st.captureProvBase()

	// Retain the converged state, engine and corpus for ApplyDelta.
	// The corpus copy grows with every targeted follow-up path, so a
	// re-ingestion epoch can replay exactly what this run consumed.
	p.st, p.eng, p.epoch, p.plan = st, eng, 0, nil
	p.obsIn = Observations{
		Paths:    append([]trace.Path(nil), in.Paths...),
		Sessions: append([]SessionObservation(nil), in.Sessions...),
	}

	history := p.converge(st, eng, p.cfg.UseTargeted)
	return p.finish(st, history, nil)
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

		stats := st.stats(iter, st.tally(st.pool))
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

// finish builds the immutable snapshot for the current epoch: the
// converged records plus the two second-class post-passes (§4.3
// far-end, §4.4 proximity), both pure functions of converged state.
//
// ts is nil for the initial run and a re-ingestion epoch, which
// assemble every record. A surgical epoch passes the addresses and
// adjacencies it touched, and its Result starts from the previous one
// instead (carryForward): only the touched records, last epoch's
// post-pass placements and the re-classified links are rebuilt, and
// everything else is shared. That equals a full assemble because no
// record outside the touched set can differ: the drain narrows and
// re-flags only the interfaces it reset and the ends of the
// adjacencies it re-ran, owners do not change without an alias round,
// and a facility edit to an AS touches every pool interface the AS
// owns (each is an end of an adjacency the worklist files under that
// owner). TestDeltaCarriedMatchesAssembled holds this to a full
// assemble at every surgical epoch.
func (p *Pipeline) finish(st *state, history []IterationStats, ts *touchSet) *Result {
	var res *Result
	if ts == nil {
		res = st.assemble(history)
		c := res.computeCensus()
		res.census = &c
		p.missing = make(map[netaddr.IP]bool)
		for _, ip := range st.pool {
			if p.lacksFacilityData(res.Interfaces[ip]) {
				p.missing[ip] = true
			}
		}
		p.tally = st.tally(st.pool)
	} else {
		res = p.carryForward(st, history, ts)
	}
	placed := make(map[netaddr.IP]placement, len(p.placed))
	p.applyFarEnd(st, res, placed)
	if p.cfg.UseProximity {
		p.applyProximity(st, res, placed)
	}
	if ts != nil {
		// Changed: the touched records, and every placement made, dropped
		// or redone since the last epoch.
		ips := append([]netaddr.IP(nil), ts.ips...)
		for _, m := range [2]map[netaddr.IP]placement{p.placed, placed} {
			for ip := range m {
				if res.Interfaces[ip] != p.last.Interfaces[ip] {
					ips = append(ips, ip)
				}
			}
		}
		slices.Sort(ips)
		res.changed = &changeSet{interfaces: slices.Compact(ips), links: ts.links, touched: ts.ips}
	}
	p.last, p.placed = res, placed
	res.Epoch = p.epoch
	p.m.snapshotVer.Set(int64(p.epoch))
	return res
}

// carryForward builds a surgical epoch's Result from the previous one:
// the record map and the link list are cloned, the records last
// epoch's post-passes placed go back to their converged form, and only
// the touched records and the re-classified links are rebuilt from
// state. Under provenance only the touched interfaces' notes are
// copied. Alias sets and link endpoints do not change without a
// re-ingestion, so the alias-set map and the router census carry over.
func (p *Pipeline) carryForward(st *state, history []IterationStats, ts *touchSet) *Result {
	prev := p.last
	res := &Result{
		Interfaces: maps.Clone(prev.Interfaces),
		Links:      slices.Clone(prev.Links),
		History:    history,
		aliasSetOf: prev.aliasSetOf,
		census:     prev.census,
	}
	for ip, pl := range p.placed {
		res.Interfaces[ip] = pl.base
	}
	for _, ip := range ts.ips {
		ir := st.interfaceResult(ip)
		res.Interfaces[ip] = ir
		if p.lacksFacilityData(ir) {
			p.missing[ip] = true
		} else {
			delete(p.missing, ip)
		}
	}
	res.MissingFacilityData = len(p.missing)
	for _, idx := range ts.links {
		cp := *st.adjOrder[idx]
		res.Links[idx] = &cp
	}
	if st.prov != nil {
		res.Provenance = maps.Clone(prev.Provenance)
		for _, ip := range ts.ips {
			if notes, ok := st.prov[ip]; ok {
				res.Provenance[ip] = append([]string(nil), notes...)
			} else {
				delete(res.Provenance, ip)
			}
		}
	}
	return res
}

// lacksFacilityData reports whether a converged (pre-post-pass) record
// counts toward MissingFacilityData: unresolved, with a known owner that
// has no facility data at all.
func (p *Pipeline) lacksFacilityData(ir *InterfaceResult) bool {
	return !ir.Resolved && ir.Owner != 0 && len(p.db.FacilitiesOfAS(ir.Owner)) == 0
}

// applyFarEnd is the §4.3 cross-connect inference, run as a second-class
// pass so its errors cannot cascade through alias propagation: once the
// near router of a cross-connect is pinned to one facility, its other
// end sits in the same building, provided the far AS is known to be
// present there. Placements go through place, which records them in
// placed.
func (p *Pipeline) applyFarEnd(st *state, res *Result, placed map[netaddr.IP]placement) {
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
		p.place(res, far, f, false, placed)
		res.FarEndInferences++
	}
}

// placement is one post-pass placement: the converged record it
// replaced and the placed record.
type placement struct {
	base, rec *InterfaceResult
}

// place puts far's interface at facility f by replacing its record,
// never writing through it (records may be shared with a published
// Result), and records the placement in placed. The placed record is a
// copy of far marked ViaProximity or ViaFarEnd, or last epoch's own
// placed record when that epoch placed the same converged record at
// the same facility the same way, so a placement that did not change
// keeps its pointer.
func (p *Pipeline) place(res *Result, far *InterfaceResult, f world.FacilityID, proximity bool, placed map[netaddr.IP]placement) {
	pl := placement{base: far}
	if old, ok := p.placed[far.IP]; ok && old.base == far && old.rec.Facility == f && old.rec.ViaProximity == proximity {
		pl.rec = old.rec
	} else {
		cp := *far
		cp.Resolved = true
		cp.Facility = f
		cp.Candidates = []world.FacilityID{f}
		cp.ViaFarEnd, cp.ViaProximity = !proximity, proximity
		pl.rec = &cp
	}
	res.Interfaces[far.IP] = pl.rec
	placed[far.IP] = pl
}

// poolTally counts the pool addresses in each state an IterationStats
// row reports.
type poolTally struct{ resolved, cityOnly, remote int }

func (t poolTally) plus(u poolTally) poolTally {
	return poolTally{t.resolved + u.resolved, t.cityOnly + u.cityOnly, t.remote + u.remote}
}

func (t poolTally) minus(u poolTally) poolTally {
	return poolTally{t.resolved - u.resolved, t.cityOnly - u.cityOnly, t.remote - u.remote}
}

// tally counts ips by their current candidate sets and remote flags.
func (st *state) tally(ips []netaddr.IP) poolTally {
	var t poolTally
	for _, ip := range ips {
		c := st.cand[ip]
		switch n := c.count(); {
		case n == 1:
			t.resolved++
		case n > 1 && st.singleCluster(c):
			t.cityOnly++
		}
		if st.remoteIface[ip] {
			t.remote++
		}
	}
	return t
}

// stats is iteration iter's convergence row, with t the tally of the
// whole pool.
func (st *state) stats(iter int, t poolTally) IterationStats {
	return IterationStats{
		Iteration:  iter,
		Observed:   len(st.pool),
		Resolved:   t.resolved,
		CityOnly:   t.cityOnly,
		Conflicts:  st.conflicts,
		RemoteSeen: t.remote,
	}
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

// targetedRound implements Step 4: for unresolved interfaces, pick
// target ASes whose facility sets can shrink the candidates, and
// traceroute toward them from vantage points that saw the interface.
// Targets are picked lazily, interface by interface in pool order, and
// the round stops at the follow-up budget. Issue order is semantics:
// the simulated engine derives measurement randomness from its global
// probe counter, and follow-up paths feed back into the pool that
// later target-address picks consult.
func (st *state) targetedRound(iter int) (followUps, newAdjs int) {
	cfg := st.p.cfg
	budget := cfg.FollowUpBudget
	allowed := make(map[platform.Kind]bool, len(cfg.Platforms))
	for _, k := range cfg.Platforms {
		allowed[k] = true
	}
	for _, ip := range st.unresolved() {
		if budget <= 0 {
			break
		}
		ownerAS, ok := st.ownerOf(ip)
		if !ok {
			continue
		}
		fa := st.p.db.FacilitiesOfAS(ownerAS)
		if len(fa) == 0 {
			continue // missing facility data: no constraint can help
		}
		cand := st.cand[ip]
		if cand == nil {
			cand = st.p.fs.ofAS(st.p.db, ownerAS)
		}
		for _, tgt := range st.pickTargets(ip, ownerAS, fa, cand) {
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
	st.origins, st.targets = nil, nil // built per round: see roundOrigins, targetAddress
	return followUps, newAdjs
}

// originAS is one origin AS with its interned facility footprint.
type originAS struct {
	asn  world.ASN
	foot facset
	size int // foot.count()
}

// roundOrigins returns the origin ASes that have a facility footprint,
// in allASNs order, building the list on the round's first call.
func (st *state) roundOrigins() []originAS {
	if st.origins == nil {
		st.origins = make([]originAS, 0, len(st.allASNs))
		for _, asn := range st.allASNs {
			foot := st.p.fs.ofAS(st.p.db, asn)
			if n := foot.count(); n > 0 {
				st.origins = append(st.origins, originAS{asn, foot, n})
			}
		}
	}
	return st.origins
}

// scoredTarget is one follow-up target candidate of pickTargets.
type scoredTarget struct {
	asn     world.ASN
	overlap int
	subset  bool // facility footprint fully inside F_A
	atQuery bool // colocated at an already-queried IXP
}

// pickTargets selects follow-up target ASes for an unresolved interface
// owned by A: networks whose facility footprint is a subset of A's
// (paper: {F_target} ⊂ {F_A}) and overlaps — but does not cover — the
// current candidate set, smallest overlap first, preferring targets not
// colocated at IXPs already used to constrain this interface. The
// filters are conjunctive and the order is total, so the cheap bitset
// overlap test runs before the map lookups without changing the picks.
func (st *state) pickTargets(ip netaddr.IP, a world.ASN, fa []world.FacilityID, cand facset) []world.ASN {
	faSet := st.p.fs.ofAS(st.p.db, a)
	candN := cand.count()
	queried := st.queriedIXPs[ip]
	used := st.usedTargets[ip]

	cands := st.picks[:0]
	for _, o := range st.roundOrigins() {
		if o.asn == a {
			continue
		}
		overlap := overlapCount(o.foot, cand)
		if overlap == 0 || overlap == candN || used[o.asn] {
			continue
		}
		subset := o.size < len(fa) && subsetOf(o.foot, faSet)
		atQuery := false
		for _, ix := range st.p.db.IXPsOfAS(o.asn) {
			if queried[ix] {
				atQuery = true
				break
			}
		}
		cands = append(cands, scoredTarget{o.asn, overlap, subset, atQuery})
	}
	st.picks = cands
	slices.SortFunc(cands, func(x, y scoredTarget) int {
		// Paper preference first: targets whose footprint is a strict
		// subset of F_A guarantee any resulting constraint shrinks the
		// set; non-subset overlappers are a fallback tier.
		if x.subset != y.subset {
			if x.subset {
				return -1
			}
			return 1
		}
		if x.atQuery != y.atQuery {
			if !x.atQuery {
				return -1 // unqueried-IXP targets first
			}
			return 1
		}
		if x.overlap != y.overlap {
			return cmp.Compare(x.overlap, y.overlap)
		}
		return cmp.Compare(x.asn, y.asn)
	})
	n := min(st.p.cfg.TargetsPerInterface, len(cands))
	out := make([]world.ASN, 0, n)
	for _, c := range cands[:n] {
		out = append(out, c.asn)
	}
	return out
}

// targetAddress picks "one active IP per prefix" for a target AS: a
// previously-observed interface when available, otherwise the first
// host of its announced prefix. The observed interface is the first
// non-IXP pool address the AS owns, read from the round's targetIndex.
func (st *state) targetAddress(asn world.ASN) (netaddr.IP, bool) {
	if st.targets == nil {
		st.targets = &targetIndex{first: make(map[world.ASN]netaddr.IP)}
	}
	if ip, ok := st.targets.lookup(st, asn); ok {
		return ip, true
	}
	prefixes := st.p.ipasn.PrefixesOf(asn)
	if len(prefixes) == 0 {
		return 0, false
	}
	return prefixes[0].Addr + 1, true
}

// targetIndex maps each AS to the first pool address, in pool order,
// that it owns and that is not on an IXP LAN: the address a scan of
// the pool would find. It lives for one targeted round. Within a round
// no owner changes (alias rounds run before the constraint pass, and
// pins come only from ingestion) and the pool only appends, so an entry
// never goes stale; follow-up paths appended mid-round are folded in at
// the next lookup.
type targetIndex struct {
	first   map[world.ASN]netaddr.IP
	scanned int // st.pool entries folded into first
}

// lookup extends the index over the pool entries appended since the
// previous call, then answers for asn.
func (x *targetIndex) lookup(st *state, asn world.ASN) (netaddr.IP, bool) {
	for ; x.scanned < len(st.pool); x.scanned++ {
		ip := st.pool[x.scanned]
		o, ok := st.ownerOf(ip)
		if !ok {
			continue
		}
		if _, seen := x.first[o]; seen {
			continue
		}
		if _, isIXP := st.p.db.IXPByIP(ip); !isIXP {
			x.first[o] = ip
		}
	}
	ip, ok := x.first[asn]
	return ip, ok
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

// interfaceResult builds ip's record from converged state, before the
// post-passes.
func (st *state) interfaceResult(ip netaddr.IP) *InterfaceResult {
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
	return ir
}

// assemble builds the Result of converged state from scratch, before
// the post-passes: every pool interface's record, and a deep copy of
// the links and the provenance.
func (st *state) assemble(history []IterationStats) *Result {
	res := &Result{
		Interfaces: make(map[netaddr.IP]*InterfaceResult, len(st.pool)),
		History:    history,
	}
	for _, ip := range st.pool {
		ir := st.interfaceResult(ip)
		if st.p.lacksFacilityData(ir) {
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
