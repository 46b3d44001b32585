package cfs

// The rescan oracle: the paper-literal fixed-point loop (§4), which
// reprocesses every adjacency and every alias set each iteration. It
// has no runtime use — the worklist is the only iteration core — and
// lives here as the reference the worklist differential compares
// against (worklist_test.go). A test installs it through the
// Pipeline's engine constructor with useRescan.

import (
	"testing"
	"time"

	"facilitymap/internal/world"
)

// rescanEngine is the paper-literal fixed-point loop: every iteration
// reprocesses every adjacency and every alias set. Correct because all
// constraints are monotone; wasteful because after the first pass only
// state touched by new observations can still change.
type rescanEngine struct{ st *state }

func (e *rescanEngine) resolveAliases() { e.st.resolveAliases() }

func (e *rescanEngine) constraintPass() (dirty, recomputed int) {
	e.st.applyConstraints()
	return len(e.st.adjOrder), len(e.st.adjOrder)
}

func (e *rescanEngine) aliasPass() (recomputed int) { return e.st.aliasStep() }

// applyConstraints runs Step 2 over every adjacency, in adjOrder.
// Constraints are monotone, so reprocessing is safe and picks up owner
// repairs and new remote-detection verdicts.
func (st *state) applyConstraints() {
	for i, a := range st.adjOrder {
		st.applyProposal(i, a, st.computeProposal(a))
	}
}

// aliasStep propagates constraints across alias sets (Step 3): all
// interfaces of one router share a facility, so their candidate sets
// intersect. The rescan engine revisits every set each iteration; the
// worklist engine calls aliasStepSets with only the dirty ones.
func (st *state) aliasStep() (recomputed int) {
	if st.sets == nil {
		return 0
	}
	sets := st.sets.All()
	idxs := make([]int, 0, len(sets))
	for i, set := range sets {
		if len(set) >= 2 {
			idxs = append(idxs, i)
		}
	}
	return st.aliasStepSets(idxs)
}

// useRescan installs the rescan oracle as p's iteration core. It sets
// a field of p alone, so one process can run both cores side by side.
func useRescan(p *Pipeline) {
	p.newEngine = func(st *state) engine { return &rescanEngine{st: st} }
}

// rescanRun is freshRun under the rescan oracle.
func rescanRun(t testing.TB, wcfg world.Config, seed int64, cfg Config) *Result {
	t.Helper()
	return freshRunWith(t, wcfg, seed, cfg, useRescan)
}

// BenchmarkCFSWorklistSpeedup times a rescan-oracle run and a worklist
// run back to back on the trimmed default world, and reports the wall-clock ratio plus both
// cores' recomputed-proposal totals. TestWorklistMatchesRescan
// guarantees the two runs return identical results, so this ratio is
// what the worklist's bookkeeping buys.
func BenchmarkCFSWorklistSpeedup(b *testing.B) {
	s := buildStack(b, world.Default())
	cfg := defaultWorldConfig()
	b.ResetTimer()
	run := func(setup func(*Pipeline)) (*Result, time.Duration) {
		p := mustNew(b, cfg, s.db, s.ipasn, s.svc, s.det, s.prober)
		if setup != nil {
			setup(p)
		}
		t0 := time.Now()
		res := p.Run(s.initialCorpus())
		return res, time.Since(t0)
	}
	var rescanWall, worklistWall time.Duration
	var rescanRes, worklistRes *Result
	for i := 0; i < b.N; i++ {
		var d time.Duration
		rescanRes, d = run(useRescan)
		rescanWall += d
		worklistRes, d = run(nil)
		worklistWall += d
	}
	if worklistWall > 0 {
		b.ReportMetric(float64(rescanWall)/float64(worklistWall), "speedup_x")
	}
	b.ReportMetric(float64(totalRecomputed(rescanRes)), "rescan_recomputed")
	b.ReportMetric(float64(totalRecomputed(worklistRes)), "worklist_recomputed")
}
