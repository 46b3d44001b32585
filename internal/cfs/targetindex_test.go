package cfs

import (
	"fmt"
	"testing"

	"facilitymap/internal/netaddr"
	"facilitymap/internal/world"
)

// scanTargetAddress is the pool scan the per-round targetIndex
// replaced: the first pool address, in pool order, that asn owns and
// that is not on an IXP LAN, else the first host of asn's prefix. It
// has no runtime use; TestTargetIndexMatchesScan checks the index
// against it.
func (st *state) scanTargetAddress(asn world.ASN) (netaddr.IP, bool) {
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

// indexCheckEngine wraps the worklist and compares targetAddress with
// the scan for every origin AS at each targeted round's edges.
//
//   - first: after the alias pass, where the round's first call builds
//     the index from the whole pool;
//   - grown: at the next iteration's first engine call, with the index
//     the round itself built and extended while its follow-up paths
//     appended to the pool, before any alias round moves an owner;
//   - repaired: a first-call check in a round that follows an alias
//     round which changed at least one pool address's owner.
type indexCheckEngine struct {
	engine
	t  *testing.T
	st *state

	round      *targetIndex // the index the last round used, nil once checked
	roundPool  int          // len(st.pool) when that round started
	repairedAt bool         // this iteration's alias round changed an owner

	first, grown, repaired int // checks made where the case applied
}

func (e *indexCheckEngine) resolveAliases() {
	e.checkRound()
	before := make([]world.ASN, len(e.st.pool))
	for i, ip := range e.st.pool {
		before[i], _ = e.st.ownerOf(ip)
	}
	e.engine.resolveAliases()
	for i, ip := range e.st.pool {
		if o, _ := e.st.ownerOf(ip); o != before[i] {
			e.repairedAt = true
			break
		}
	}
}

func (e *indexCheckEngine) constraintPass() (dirty, recomputed int) {
	e.checkRound()
	return e.engine.constraintPass()
}

func (e *indexCheckEngine) aliasPass() int {
	n := e.engine.aliasPass()
	if e.st.targets != nil {
		e.t.Fatal("a targeted round left its index behind")
	}
	// The targeted round starts next. Check a fresh index the way the
	// round's first call would build it, then hand the round an empty
	// index of its own to build and extend.
	e.requireMatch(&targetIndex{first: make(map[world.ASN]netaddr.IP)}, "first call")
	e.first++
	if e.repairedAt {
		e.repaired++
		e.repairedAt = false
	}
	e.round = &targetIndex{first: make(map[world.ASN]netaddr.IP)}
	e.roundPool = len(e.st.pool)
	e.st.targets = e.round
	return n
}

// checkRound checks the index the last targeted round built, as that
// round left it.
func (e *indexCheckEngine) checkRound() {
	if e.round == nil {
		return
	}
	if e.round.scanned > 0 && len(e.st.pool) > e.roundPool {
		e.grown++
	}
	e.requireMatch(e.round, "after the round's follow-ups")
	e.round = nil
}

// requireMatch answers every origin AS through idx and through the
// scan, and fails on the first disagreement.
func (e *indexCheckEngine) requireMatch(idx *targetIndex, when string) {
	e.t.Helper()
	saved := e.st.targets
	e.st.targets = idx
	defer func() { e.st.targets = saved }()
	for _, asn := range e.st.allASNs {
		got, gotOK := e.st.targetAddress(asn)
		want, wantOK := e.st.scanTargetAddress(asn)
		if got != want || gotOK != wantOK {
			e.t.Fatalf("%s: targetAddress(%v) = %v,%v; the pool scan gives %v,%v",
				when, asn, got, gotOK, want, wantOK)
		}
	}
}

// requireIndexFollowsPool re-ingests the run's retained corpus into a
// fresh state with one index open throughout, and compares it with
// the scan at checkpoints 1, 2, 4, ... paths in. In the runs above no
// follow-up path brings a new AS into the pool mid-round (every AS
// already has an address there), so only this check sees lookup fold
// in appended entries that change an answer.
func (e *indexCheckEngine) requireIndexFollowsPool() {
	e.t.Helper()
	p := e.st.p
	st := p.newState()
	check := &indexCheckEngine{t: e.t, st: st}
	idx := &targetIndex{first: make(map[world.ASN]netaddr.IP)}
	added, next := 0, 1
	for i, path := range p.obsIn.Paths {
		st.processPath(path)
		if i+1 != next && i+1 != len(p.obsIn.Paths) {
			continue
		}
		next *= 2
		before := len(idx.first)
		check.requireMatch(idx, fmt.Sprintf("%d paths in", i+1))
		if before > 0 {
			added += len(idx.first) - before
		}
	}
	if added == 0 {
		e.t.Fatal("no AS entered the open index after its first build")
	}
}

// TestTargetIndexMatchesScan: the per-round index must answer exactly
// what the pool scan it replaced answers, at a round's first call,
// after the round's follow-up paths grew the pool, and in a round that
// follows an alias round which repaired owners. The checks call
// ownerOf on addresses the run would not have reached, so the checked
// run must also equal an unchecked one. A last check replays the
// corpus into an open index (see requireIndexFollowsPool).
func TestTargetIndexMatchesScan(t *testing.T) {
	worlds := []struct {
		name string
		cfg  world.Config
	}{{"small", world.Small()}, {"medium", world.Medium()}}
	for _, wc := range worlds {
		for _, seed := range []int64{23, 101, 7777} {
			t.Run(fmt.Sprintf("%s/seed=%d", wc.name, seed), func(t *testing.T) {
				if wc.name == "medium" && testing.Short() {
					t.Skip("medium-world runs are slow")
				}
				var checks []*indexCheckEngine
				checked := freshRunWith(t, wc.cfg, seed, DefaultConfig(), func(p *Pipeline) {
					inner := p.newEngine
					p.newEngine = func(st *state) engine {
						e := &indexCheckEngine{engine: inner(st), t: t, st: st}
						checks = append(checks, e)
						return e
					}
				})
				if len(checks) != 1 {
					t.Fatalf("the run built %d engines, want 1", len(checks))
				}
				e := checks[0]
				if e.first == 0 || e.grown == 0 || e.repaired == 0 {
					t.Fatalf("a case went unchecked: %d first calls, %d rounds that grew the pool, %d rounds after an owner repair",
						e.first, e.grown, e.repaired)
				}
				requireEqualResults(t, "checked vs unchecked run", checked, freshRun(t, wc.cfg, seed, DefaultConfig()))
				e.requireIndexFollowsPool()
			})
		}
	}
}
