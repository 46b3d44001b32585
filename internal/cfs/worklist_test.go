package cfs

import (
	"fmt"
	"testing"

	"facilitymap/internal/world"
)

func workersConfig(workers int) Config {
	cfg := DefaultConfig()
	cfg.Workers = workers
	return cfg
}

func totalRecomputed(r *Result) int {
	n := 0
	for _, h := range r.History {
		n += h.Recomputed
	}
	return n
}

// TestWorklistMatchesRescan is the engine differential harness: the
// same (world, seed, workers) run under the rescan oracle and the
// worklist must produce bit-for-bit identical results — same
// inferences, links, convergence curve, conflict counts and provenance
// — because dirty-set scheduling may skip work but never reorder the
// serially-issued measurements. On the default world the worklist must
// also do strictly less work.
func TestWorklistMatchesRescan(t *testing.T) {
	for _, seed := range []int64{23, 101, 7777} {
		for _, workers := range []int{1, 8} {
			t.Run(fmt.Sprintf("small/seed=%d/workers=%d", seed, workers), func(t *testing.T) {
				t.Parallel()
				a := rescanRun(t, world.Small(), seed, workersConfig(workers))
				b := freshRun(t, world.Small(), seed, workersConfig(workers))
				requireCrossEngineResults(t, "small world", a, b)
			})
		}
	}
	for _, seed := range []int64{23, 101, 7777} {
		for _, workers := range []int{1, 8} {
			t.Run(fmt.Sprintf("default/seed=%d/workers=%d", seed, workers), func(t *testing.T) {
				if testing.Short() {
					t.Skip("default-world differential runs are slow")
				}
				t.Parallel()
				a := rescanRun(t, world.Default(), seed, defaultWorldConfig(workers))
				b := freshRun(t, world.Default(), seed, defaultWorldConfig(workers))
				requireCrossEngineResults(t, "default world", a, b)
				if ra, rb := totalRecomputed(a), totalRecomputed(b); rb >= ra {
					t.Errorf("worklist recomputed %d proposals, rescan %d: want strictly fewer", rb, ra)
				}
			})
		}
	}
}

// TestWorklistProvenanceMatchesRescan pins the most ordering-sensitive
// output: the per-interface constraint trace must be identical because
// provenance records only set-changing applications, and those happen
// in the same order under both cores.
func TestWorklistProvenanceMatchesRescan(t *testing.T) {
	cfg := workersConfig(1)
	cfg.TraceProvenance = true
	a := rescanRun(t, world.Small(), 23, cfg)
	b := freshRun(t, world.Small(), 23, cfg)
	requireCrossEngineResults(t, "provenance", a, b)
}

// TestWorklistDoesLessWork: after the first iteration the worklist's
// dirty set must be a strict subset of the adjacency list the rescan
// oracle rescans (new observations only), on the small world too.
func TestWorklistDoesLessWork(t *testing.T) {
	a := rescanRun(t, world.Small(), 23, workersConfig(1))
	b := freshRun(t, world.Small(), 23, workersConfig(1))
	if len(b.History) < 2 {
		t.Fatalf("run converged in %d iterations; need 2+ to compare engines", len(b.History))
	}
	for i := 1; i < len(b.History); i++ {
		if b.History[i].DirtyAdjs >= a.History[i].DirtyAdjs {
			t.Errorf("iteration %d: worklist visited %d adjacencies, rescan %d",
				i+1, b.History[i].DirtyAdjs, a.History[i].DirtyAdjs)
		}
	}
	if ra, rb := totalRecomputed(a), totalRecomputed(b); rb >= ra {
		t.Errorf("worklist recomputed %d, rescan %d: want strictly fewer", rb, ra)
	}
}

// TestWorklistInvalidation exercises the registry-facing half of the
// dependency index: invalidating an AS or IXP facility list re-enqueues
// exactly its dependent adjacencies, and re-proposing them against an
// unchanged registry is a no-op.
func TestWorklistInvalidation(t *testing.T) {
	s := buildStack(t, world.Small())
	cfg := DefaultConfig()
	cfg.Workers = 1
	p := mustNew(t, cfg, s.db, s.ipasn, s.svc, s.det, s.prober)
	st := p.newState()
	w := newWorklist(st)
	st.ingestPaths(s.initialCorpus())
	w.resolveAliases()

	dirty, _ := w.constraintPass()
	if dirty == 0 {
		t.Fatal("ingestion seeded no dirty adjacencies")
	}
	w.aliasPass()
	if d, _ := w.constraintPass(); d != 0 {
		t.Fatalf("dirty set not drained: %d adjacencies still enqueued", d)
	}

	var pub *Adjacency
	pubIdx := -1
	for i, a := range st.adjOrder {
		if a.Public && a.NearAS != 0 {
			pub, pubIdx = a, i
			break
		}
	}
	if pub == nil {
		t.Fatal("no public adjacency with a resolved owner in the corpus")
	}

	w.invalidateAS(pub.NearAS)
	if !w.dirtyAdj[pubIdx] {
		t.Fatalf("invalidateAS(%v) did not re-enqueue adjacency %d", pub.NearAS, pubIdx)
	}
	st.changed = false
	if d, _ := w.constraintPass(); d == 0 {
		t.Fatal("invalidated adjacencies were not reprocessed")
	}
	if st.changed {
		t.Error("re-proposing against an unchanged registry narrowed a candidate set")
	}

	w.invalidateIXP(pub.IXP)
	if !w.dirtyAdj[pubIdx] {
		t.Fatalf("invalidateIXP(%d) did not re-enqueue adjacency %d", pub.IXP, pubIdx)
	}
}
