package cfs

// Delta-driven re-convergence. ApplyDelta folds a batch of registry or
// observation deltas into the pipeline's retained view and re-converges
// to the new fixed point, publishing an immutable epoch-numbered
// snapshot. The locked guarantee — enforced by the differential test —
// is that the returned Result is bit-for-bit identical to a fresh run
// on the mutated inputs.
//
// Two strategies, picked per batch by the heaviest kind present:
//
//   - Surgical (facility-list deltas only). Facility lists feed the
//     constraint side of the search but never alias resolution or
//     adjacency discovery, so the converged state can be repaired in
//     place: every adjacency whose proposal reads a delta'd list is
//     re-seeded, the derived state of its endpoints (plus their full
//     alias sets) is reset to the post-ingestion baseline, and the
//     worklist drains to quiescence. Owners are never re-resolved, so
//     bit-for-bit equality with a fresh run holds when the fresh run's
//     alias stream would resolve identical owners — i.e. under a
//     single-resolve schedule (AliasRounds = {1}); see DESIGN.md.
//
//   - Re-ingestion (membership, session or cross-connect deltas). These
//     change which adjacencies exist, so the pipeline rebuilds state
//     from the retained corpus — the original observations plus every
//     targeted follow-up path the initial run issued — after applying
//     the observation deltas to it. The alias prober's RNG stream is
//     reset so the replay resolves exactly the owner sequence a fresh
//     run over the same corpus would.

import (
	"errors"
	"fmt"
	"slices"

	"facilitymap/internal/delta"
	"facilitymap/internal/netaddr"
	"facilitymap/internal/obs"
	"facilitymap/internal/trace"
)

// ApplyObservationDeltas folds the observation-layer kinds of log into
// o in place: sessions come and go from looking-glass listings, and
// cross-connect deltas materialise as the minimal two-hop path a
// targeted traceroute over the new link would record. Registry-layer
// kinds are ignored here (delta.ApplyToDatabase owns them), so one log
// can be replayed against both layers.
func ApplyObservationDeltas(o *Observations, log []delta.Delta) {
	for _, d := range log {
		switch d.Kind {
		case delta.SessionUp:
			o.Sessions = append(o.Sessions, SessionObservation{
				LGAS:    d.LGAS,
				LocalIP: d.LocalIP,
				PeerIP:  d.PeerIP,
				PeerAS:  d.PeerAS,
			})
		case delta.SessionDown:
			kept := o.Sessions[:0]
			for _, s := range o.Sessions {
				if s.PeerIP == d.PeerIP && (d.PeerAS == 0 || s.PeerAS == d.PeerAS) {
					continue
				}
				kept = append(kept, s)
			}
			o.Sessions = kept
		case delta.CrossConnectAdd:
			o.Paths = append(o.Paths, syntheticXConnect(d))
		case delta.CrossConnectRemove:
			kept := o.Paths[:0]
			for _, pth := range o.Paths {
				if isSyntheticXConnect(pth, d.NearIP, d.FarIP) {
					continue
				}
				kept = append(kept, pth)
			}
			o.Paths = kept
		}
	}
}

// syntheticXConnect is the canonical two-hop observation of a private
// interconnect: near interface then far interface, both responding.
// classifyPath sees two hops with distinct owners and records exactly
// one private adjacency.
func syntheticXConnect(d delta.Delta) trace.Path {
	return trace.Path{
		SrcRouter: d.Router,
		Dst:       d.FarIP,
		Reached:   true,
		Hops: []trace.Hop{
			{IP: d.NearIP, Responded: true},
			{IP: d.FarIP, Responded: true},
		},
	}
}

func isSyntheticXConnect(p trace.Path, near, far netaddr.IP) bool {
	return len(p.Hops) == 2 && p.Reached &&
		p.Hops[0].IP == near && p.Hops[1].IP == far && p.Dst == far
}

// Corpus returns a copy of the retained observation corpus: the inputs
// of the initial run, plus every targeted follow-up path that run
// issued, as mutated by the observation deltas applied since. This is
// exactly what a re-ingestion epoch replays.
func (p *Pipeline) Corpus() Observations {
	return Observations{
		Paths:    append([]trace.Path(nil), p.obsIn.Paths...),
		Sessions: append([]SessionObservation(nil), p.obsIn.Sessions...),
	}
}

// ApplyDelta mutates the pipeline's ingested view with log and
// re-converges incrementally, returning the next epoch's snapshot. The
// database handed to New is modified in place (the remote-peering
// detector shares the pointer and follows automatically). Requires a
// completed Run. A batch with an unknown kind, or a facility-list delta
// naming a facility outside the registry (delta.ErrUnknownFacility), is
// rejected before anything is mutated: the epoch and the retained state
// stay as they were.
func (p *Pipeline) ApplyDelta(log []delta.Delta) (*Result, error) {
	if p.st == nil {
		return nil, errors.New("cfs: ApplyDelta before Run — no converged state to repair")
	}
	for i, d := range log {
		if !d.Kind.Valid() {
			return nil, fmt.Errorf("cfs: unknown delta kind %q", d.Kind)
		}
		if d.Kind.WorldExpressible() && !p.fs.fx.has(d.Facility) {
			return nil, fmt.Errorf("cfs: record %d (%v): %w", i, d, delta.ErrUnknownFacility)
		}
	}
	// Membership, session and cross-connect deltas change which
	// adjacencies exist; such a batch re-ingests as a whole.
	reingest := !delta.Surgical(log)

	delta.ApplyToDatabase(p.db, log)
	p.reintern(log)
	ApplyObservationDeltas(&p.obsIn, log)

	p.epoch++
	p.m.deltasApplied.Add(int64(len(log)))
	p.emit("delta_batch",
		obs.F("epoch", p.epoch),
		obs.F("deltas", len(log)),
		obs.F("reingest", reingest),
	)

	if reingest {
		return p.finish(p.st, p.reingestEpoch(), nil), nil
	}
	history, ts := p.surgicalEpoch(log)
	return p.finish(p.st, history, ts), nil
}

// reintern refreshes the interned facility sets the constraint passes
// read. The slot universe (one bit per facility record) is fixed at
// construction; only list membership changes.
func (p *Pipeline) reintern(log []delta.Delta) {
	for _, d := range log {
		switch d.Kind {
		case delta.ASFacilityAdd, delta.ASFacilityRemove:
			p.fs.as[d.AS] = p.fs.fx.setOf(p.db.FacilitiesOfAS(d.AS))
		case delta.IXPFacilityAdd, delta.IXPFacilityRemove:
			p.fs.ixp[d.IXP] = p.fs.fx.setOf(p.db.FacilitiesOfIXP(d.IXP))
		}
	}
}

// touchSet is what a surgical epoch re-ran: the closure it reset plus
// both ends of every adjacency it re-dirtied (ips), and those
// adjacencies (links), both ascending. The drain can narrow or flag no
// other interface, so no other record of the snapshot can change.
type touchSet struct {
	ips   []netaddr.IP
	links []int
}

// surgicalEpoch repairs the converged state in place after facility-list
// deltas and drains the worklist to the new fixed point, returning the
// convergence curve and what it touched.
func (p *Pipeline) surgicalEpoch(log []delta.Delta) ([]IterationStats, *touchSet) {
	st, wl := p.st, p.st.wl

	// Seed: every adjacency whose constraint proposal reads a delta'd
	// facility list. asAdjs/ixpAdjs are registration-time supersets of
	// the live dependency relation, so nothing escapes. IXP deltas also
	// void the remote-peering verdicts for that exchange — IsRemote
	// qualifies vantage points against the IXP's facility list.
	affected := make(map[int]bool)
	for _, d := range log {
		switch d.Kind {
		case delta.ASFacilityAdd, delta.ASFacilityRemove:
			for _, idx := range wl.asAdjs[d.AS] {
				affected[idx] = true
			}
		case delta.IXPFacilityAdd, delta.IXPFacilityRemove:
			for _, idx := range wl.ixpAdjs[d.IXP] {
				affected[idx] = true
			}
			for key := range st.remoteCache {
				if key.ix == d.IXP {
					delete(st.remoteCache, key)
				}
			}
		}
	}

	// Closure: the endpoints of affected adjacencies, widened to full
	// alias sets — an alias intersection propagates a narrowed set to
	// every member, so resetting one member without its peers would
	// leave stale narrowings behind.
	closure := make(map[netaddr.IP]bool)
	addIP := func(ip netaddr.IP) {
		if ip != 0 {
			closure[ip] = true
		}
	}
	for idx := range affected {
		addIP(st.adjOrder[idx].Near)
		addIP(st.adjOrder[idx].farEnd())
	}
	if st.sets != nil {
		seeds := make([]netaddr.IP, 0, len(closure))
		//cfslint:ordered snapshots the key set before expanding it; the seeds only union alias members into the closure set, so order cannot reach membership
		for ip := range closure {
			seeds = append(seeds, ip)
		}
		for _, ip := range seeds {
			for _, al := range st.sets.Aliases(ip) {
				closure[al] = true
			}
		}
	}

	// Every adjacency incident to the closure is re-run, and the touched
	// set is the closure plus both ends of each. Their tallies leave the
	// pool's before the reset and are counted afresh after every drain
	// iteration, so no iteration rescans the pool.
	redirty := make(map[int]bool)
	var ips []netaddr.IP
	for ip := range closure {
		for _, idx := range wl.ifaceAdjs[ip] {
			redirty[idx] = true
		}
		ips = append(ips, ip)
	}
	links := make([]int, 0, len(redirty))
	for idx := range redirty {
		links = append(links, idx)
	}
	slices.Sort(links)
	for _, idx := range links {
		a := st.adjOrder[idx]
		ips = append(ips, a.Near, a.farEnd())
	}
	slices.Sort(ips)
	ips = slices.Compact(ips)
	if len(ips) > 0 && ips[0] == 0 {
		ips = ips[1:]
	}
	ts := &touchSet{ips: ips, links: links}
	rest := p.tally.minus(st.tally(ts.ips))

	// Reset the closure's derived state to its post-ingestion baseline
	// and re-dirty everything incident to it. Every constraint a closure
	// IP ever absorbed came from an incident adjacency or from its own
	// alias set, so re-running exactly those reproduces a fresh run's
	// candidate sets and provenance.
	for ip := range closure {
		delete(st.cand, ip)
		delete(st.remoteIface, ip)
		if st.prov != nil {
			if base := st.provBase[ip]; base > 0 {
				st.prov[ip] = st.prov[ip][:base]
			} else {
				// A fresh run only creates prov entries on append; an
				// empty slice here would diverge from its missing key.
				delete(st.prov, ip)
			}
		}
	}
	for _, idx := range ts.links {
		// Restore the registration-time value: a stale classification
		// (say PublicRemote under the old lists) must not survive when
		// neither classify branch fires under the new ones.
		*st.adjOrder[idx] = wl.pristine[idx]
		delete(st.adjConflicts, adjConflictKey{idx, 'n'})
		delete(st.adjConflicts, adjConflictKey{idx, 'f'})
		delete(st.adjConflicts, adjConflictKey{idx, 'r'})
		wl.dirtyAdj[idx] = true
	}
	for ip := range closure {
		if sid, ok := wl.setOf[ip]; ok {
			wl.dirtySets[sid] = true
		}
	}
	p.m.deltaRedirty.Add(int64(len(ts.links)))

	// Drain. No alias re-resolution (owners are untouched by facility
	// deltas) and no targeted follow-ups (the corpus is frozen): just
	// constraint and alias passes until nothing narrows.
	var history []IterationStats
	for iter := 1; iter <= p.cfg.MaxIterations; iter++ {
		start := p.now()
		st.changed = false
		dirty, constraintRecomputed := p.eng.constraintPass()
		aliasRecomputed := p.eng.aliasPass()
		end := p.now()

		p.tally = rest.plus(st.tally(ts.ips))
		stats := st.stats(iter, p.tally)
		stats.DirtyAdjs = dirty
		stats.Recomputed = constraintRecomputed + aliasRecomputed
		stats.WallTime = end.Sub(start)
		history = append(history, stats)

		p.m.iterations.Inc()
		p.m.dirtyAdjs.Add(int64(dirty))
		p.m.recomputed.Add(int64(stats.Recomputed))
		p.emit("delta_iteration",
			obs.F("epoch", p.epoch),
			obs.F("iter", iter),
			obs.F("dirty", dirty),
			obs.F("recomputed", stats.Recomputed),
		)
		if !st.changed {
			break
		}
	}
	return history, ts
}

// reingestEpoch rebuilds state from the retained (and now mutated)
// corpus and re-converges. Targeted follow-ups stay off: the corpus
// already contains every follow-up path the original run issued, and
// re-measuring would fork the probe stream from the fresh-run
// equivalent the differential compares against.
func (p *Pipeline) reingestEpoch() []IterationStats {
	if p.prober != nil {
		p.prober.ResetStream()
	}
	st := p.newState()
	eng := p.newEngine(st)
	st.ingestPaths(p.obsIn.Paths)
	for _, s := range p.obsIn.Sessions {
		st.processSession(s)
	}
	st.captureProvBase()
	p.st, p.eng = st, eng
	return p.converge(st, eng, false)
}
