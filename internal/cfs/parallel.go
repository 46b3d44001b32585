package cfs

import (
	"runtime"
	"sync"

	"facilitymap/internal/netaddr"
	"facilitymap/internal/trace"
	"facilitymap/internal/world"
)

// The CFS loop is embarrassingly parallel *within* an iteration: each
// interface's candidate-set intersection, each adjacency's constraint
// computation and each unresolved interface's target selection is
// independent of the others until the merge/alias step. The files in
// this package split every such phase into a pure compute half and a
// mutating apply half. The Config.Workers pool is the search's one
// parallel layer: compute halves run in contiguous chunks across it,
// and apply halves run on the coordinator goroutine in discovery
// order, so parallel runs are bit-for-bit identical to Workers=1 —
// deterministic merge order comes from index-addressed chunk outputs,
// never from map-iteration or goroutine-completion order.
//
// Measurements are never issued from workers. The simulated trace
// engine derives per-measurement randomness from a global probe
// counter, so the coordinator issues every traceroute, fabric ping and
// alias probe in exactly the serial order; only the surrounding pure
// computation fans out.
//
// The worklist (worklist.go) fans out only its dirty subsets; the
// rescan oracle in the tests fans out the full adjacency and alias-set
// lists. Both reuse the same compute halves and the same apply order
// (ascending index), so every worker count gives the same result under
// either core.

// Spawn thresholds: below these input sizes a phase runs serially even
// when Workers > 1, because goroutine startup costs more than the work.
// Thresholds only gate the fan-out decision — both paths compute the
// same result.
const (
	minParallelPaths = 16
	minParallelAdjs  = 64
	minParallelSets  = 64
	minParallelPlans = 8
)

// workerCount resolves Config.Workers: 0 (or negative) means one
// worker per available CPU, anything else is taken literally.
func (c Config) workerCount() int {
	if c.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return c.Workers
}

// parallelRanges splits [0, n) into at most `workers` contiguous
// chunks and runs fn on each from its own goroutine, waiting for all.
// fn receives its shard index (dense, 0-based) and half-open range.
// With one chunk it runs inline — no goroutines at all.
func parallelRanges(n, workers int, fn func(shard, lo, hi int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		if n > 0 {
			fn(0, 0, n)
		}
		return
	}
	var wg sync.WaitGroup
	shard := 0
	for s := 0; s < workers; s++ {
		lo, hi := s*n/workers, (s+1)*n/workers
		if lo == hi {
			continue
		}
		wg.Add(1)
		go func(shard, lo, hi int) {
			defer wg.Done()
			fn(shard, lo, hi)
		}(shard, lo, hi)
		shard++
	}
	wg.Wait()
}

// ownerFn resolves an address's AS. state.ownerOf is the serial,
// memoising implementation; worker goroutines use ownerLookup's
// read-only variant instead so shared state is never written off the
// coordinator.
type ownerFn func(netaddr.IP) (world.ASN, bool)

// ownerLookup mirrors state.ownerOf with the same precedence (pinned,
// repaired, shared memo, netixlan port records, longest-prefix match)
// but memoises into a private per-worker map. The underlying lookups
// are pure, so a cached answer always equals a fresh one and the
// private memo can never diverge from the coordinator's.
type ownerLookup struct {
	st   *state
	memo map[netaddr.IP]world.ASN
}

func (st *state) readOnlyOwner() *ownerLookup {
	return &ownerLookup{st: st, memo: make(map[netaddr.IP]world.ASN)}
}

func (o *ownerLookup) ownerOf(ip netaddr.IP) (world.ASN, bool) {
	st := o.st
	if asn, ok := st.pinned[ip]; ok {
		return asn, true
	}
	if asn, ok := st.repaired[ip]; ok {
		return asn, true
	}
	if asn, ok := st.owner[ip]; ok {
		return asn, true
	}
	if asn, ok := o.memo[ip]; ok {
		return asn, true
	}
	if asn, ok := st.p.db.PortOwner(ip); ok {
		o.memo[ip] = asn
		return asn, true
	}
	asn, ok := st.p.ipasn.Lookup(ip)
	if ok {
		o.memo[ip] = asn
	}
	return asn, ok
}

// ingestPaths runs Step 1 over a traceroute corpus. With multiple
// workers the pure classification half (per-hop IXP and ownership
// lookups) fans out over contiguous path shards; the classified events
// then replay on the coordinator in corpus order, reproducing the
// serial pool, adjacency and observation ordering exactly.
func (st *state) ingestPaths(paths []trace.Path) {
	w := st.p.cfg.workerCount()
	if w <= 1 || len(paths) < minParallelPaths {
		for _, path := range paths {
			st.processPath(path)
		}
		return
	}
	events := make([][]adjEvent, len(paths))
	parallelRanges(len(paths), w, func(_, lo, hi int) {
		owner := st.readOnlyOwner()
		for i := lo; i < hi; i++ {
			events[i] = st.classifyPath(paths[i], owner.ownerOf, nil)
		}
	})
	for i, path := range paths {
		st.applyPathEvents(path, events[i])
	}
}
