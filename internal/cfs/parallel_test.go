package cfs

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"facilitymap/internal/alias"
	"facilitymap/internal/bgp"
	"facilitymap/internal/ip2asn"
	"facilitymap/internal/platform"
	"facilitymap/internal/registry"
	"facilitymap/internal/remote"
	"facilitymap/internal/trace"
	"facilitymap/internal/world"
)

// freshRun builds a brand-new stack for (world config, seed) and runs
// the pipeline once over the standard corpus plus looking-glass session
// listings. Equivalence tests must not share a stack between runs: the
// trace engine derives jitter from a global probe counter, so a second
// run on the same engine sees different RTT draws than the first.
func freshRun(t testing.TB, wcfg world.Config, seed int64, cfg Config) *Result {
	t.Helper()
	return freshRunWith(t, wcfg, seed, cfg, nil)
}

// freshRunWith is freshRun with a hook that adjusts the pipeline before
// it runs; useRescan installs the rescan oracle through it.
func freshRunWith(t testing.TB, wcfg world.Config, seed int64, cfg Config, setup func(*Pipeline)) *Result {
	t.Helper()
	w := world.Generate(wcfg)
	rt := bgp.Compute(w)
	engine := trace.New(w, rt, seed)
	fleet := platform.Deploy(w, platform.DefaultDeploy())
	svc := platform.NewService(w, fleet, engine, rt)
	db := registry.Collect(w, registry.DefaultConfig())
	s := &stack{
		w: w, rt: rt, engine: engine, fleet: fleet, svc: svc, db: db,
		ipasn:  ip2asn.New(w),
		det:    remote.NewDetector(svc, db),
		prober: alias.NewProber(w, seed+7),
	}
	var sessions []SessionObservation
	for _, vp := range fleet.ByKind(platform.LookingGlass) {
		for _, sess := range svc.LookingGlassSessions(vp) {
			sessions = append(sessions, SessionObservation{
				LGAS: vp.AS, PeerIP: sess.PeerIP, PeerAS: sess.PeerAS,
			})
		}
	}
	if cfg.Obs != nil {
		// Instrument the whole stack, not just the pipeline, so obs-on
		// differential runs exercise every emission site.
		engine.Instrument(cfg.Obs)
		svc.Instrument(cfg.Obs)
	}
	p := mustNew(t, cfg, s.db, s.ipasn, s.svc, s.det, s.prober)
	if setup != nil {
		setup(p)
	}
	return p.RunObservations(Observations{Paths: s.initialCorpus(), Sessions: sessions})
}

// scrubHistory copies an iteration history with the observational
// fields equivalence cannot cover zeroed out: WallTime always (wall
// clocks are not deterministic), and the engine work counters when the
// two runs used different engines (DirtyAdjs/Recomputed measure how
// much work an engine did, which is exactly what the engines differ
// in; everything else must still match bit for bit).
func scrubHistory(h []IterationStats, dropEngineCounters bool) []IterationStats {
	out := make([]IterationStats, len(h))
	copy(out, h)
	for i := range out {
		out[i].WallTime = 0
		if dropEngineCounters {
			out[i].DirtyAdjs = 0
			out[i].Recomputed = 0
		}
	}
	return out
}

// requireEqualResults fails the test with a field-level diagnosis if two
// results differ anywhere an exported field can differ. Result holds an
// unexported func (aliasSetOf), so reflect.DeepEqual on the whole
// struct is unusable; every other field is compared exhaustively.
func requireEqualResults(t *testing.T, label string, a, b *Result) {
	t.Helper()
	requireResultsMatch(t, label, a, b, false)
}

// requireCrossEngineResults is requireEqualResults for runs made with
// different engines: identical inferences, provenance and convergence
// curve, with only the per-engine work counters exempt.
func requireCrossEngineResults(t *testing.T, label string, a, b *Result) {
	t.Helper()
	requireResultsMatch(t, label, a, b, true)
}

func requireResultsMatch(t *testing.T, label string, a, b *Result, crossEngine bool) {
	t.Helper()
	if len(a.Interfaces) != len(b.Interfaces) {
		t.Fatalf("%s: interface count %d vs %d", label, len(a.Interfaces), len(b.Interfaces))
	}
	for ip, ia := range a.Interfaces {
		ib, ok := b.Interfaces[ip]
		if !ok {
			t.Fatalf("%s: interface %v missing from second result", label, ip)
		}
		if !reflect.DeepEqual(ia, ib) {
			t.Fatalf("%s: interface %v differs:\n  a: %+v\n  b: %+v", label, ip, ia, ib)
		}
	}
	if len(a.Links) != len(b.Links) {
		t.Fatalf("%s: link count %d vs %d", label, len(a.Links), len(b.Links))
	}
	for i := range a.Links {
		if *a.Links[i] != *b.Links[i] {
			t.Fatalf("%s: link %d differs:\n  a: %+v\n  b: %+v", label, i, *a.Links[i], *b.Links[i])
		}
	}
	ah, bh := scrubHistory(a.History, crossEngine), scrubHistory(b.History, crossEngine)
	if !reflect.DeepEqual(ah, bh) {
		t.Fatalf("%s: iteration histories differ:\n  a: %+v\n  b: %+v", label, ah, bh)
	}
	if a.MissingFacilityData != b.MissingFacilityData ||
		a.ProximityInferences != b.ProximityInferences ||
		a.FarEndInferences != b.FarEndInferences ||
		a.MergeConflicts != b.MergeConflicts {
		t.Fatalf("%s: counters differ: a={missing:%d prox:%d farend:%d merge:%d} b={missing:%d prox:%d farend:%d merge:%d}",
			label,
			a.MissingFacilityData, a.ProximityInferences, a.FarEndInferences, a.MergeConflicts,
			b.MissingFacilityData, b.ProximityInferences, b.FarEndInferences, b.MergeConflicts)
	}
	if !reflect.DeepEqual(a.Provenance, b.Provenance) {
		t.Fatalf("%s: provenance differs", label)
	}
}

// defaultWorldConfig is a trimmed all-features-on configuration that
// keeps a default-world run affordable in a test (a full DefaultConfig
// run takes ~10s; the differential test needs several runs). Every
// subsystem the parallel mode touches stays enabled.
func defaultWorldConfig(workers int) Config {
	cfg := DefaultConfig()
	cfg.MaxIterations = 10
	cfg.FollowUpBudget = 200
	cfg.AliasRounds = []int{1, 5}
	cfg.Workers = workers
	return cfg
}

// TestParallelMatchesSerial is the serial-equivalence harness: the same
// (world, seed) run with Workers=1 (the exact serial code path, no
// goroutines) and Workers=8 must produce bit-for-bit identical results.
func TestParallelMatchesSerial(t *testing.T) {
	for _, seed := range []int64{23, 101, 7777} {
		seed := seed
		t.Run(fmt.Sprintf("small/seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			serial := DefaultConfig()
			serial.Workers = 1
			par := DefaultConfig()
			par.Workers = 8
			a := freshRun(t, world.Small(), seed, serial)
			b := freshRun(t, world.Small(), seed, par)
			requireEqualResults(t, "small world", a, b)
		})
	}
	t.Run("default", func(t *testing.T) {
		if testing.Short() {
			t.Skip("default-world differential run is slow")
		}
		t.Parallel()
		a := freshRun(t, world.Default(), 23, defaultWorldConfig(1))
		b := freshRun(t, world.Default(), 23, defaultWorldConfig(8))
		requireEqualResults(t, "default world", a, b)
	})
}

// TestParallelProvenanceMatchesSerial covers the provenance trace,
// which records constraint applications in order and so is the most
// ordering-sensitive output the pipeline produces.
func TestParallelProvenanceMatchesSerial(t *testing.T) {
	serial := DefaultConfig()
	serial.Workers = 1
	serial.TraceProvenance = true
	par := serial
	par.Workers = 8
	a := freshRun(t, world.Small(), 23, serial)
	b := freshRun(t, world.Small(), 23, par)
	requireEqualResults(t, "provenance", a, b)
}

// TestParallelDeterministic runs the parallel mode twice per
// GOMAXPROCS setting (1, 2, 8) with one seed and demands every run be
// identical — scheduling must never leak into results.
func TestParallelDeterministic(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	cfg := DefaultConfig()
	cfg.Workers = 8
	var ref *Result
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for run := 0; run < 2; run++ {
			res := freshRun(t, world.Small(), 23, cfg)
			if ref == nil {
				ref = res
				continue
			}
			requireEqualResults(t, fmt.Sprintf("GOMAXPROCS=%d run=%d", procs, run), ref, res)
		}
	}
}

// TestMergeWorkersMatchesSerial checks the parallel incremental-merge
// path against the serial one over results from different seeds.
func TestMergeWorkersMatchesSerial(t *testing.T) {
	cfg := DefaultConfig()
	a := freshRun(t, world.Small(), 23, cfg)
	b := freshRun(t, world.Small(), 101, cfg)
	c := freshRun(t, world.Small(), 7777, cfg)
	serial := MergeWorkers(1, a, b, c)
	parallel := MergeWorkers(8, a, b, c)
	requireEqualResults(t, "merge", serial, parallel)
}

func TestWorkerCount(t *testing.T) {
	if got := (Config{Workers: 0}).workerCount(); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers=0: got %d, want GOMAXPROCS=%d", got, runtime.GOMAXPROCS(0))
	}
	if got := (Config{Workers: -3}).workerCount(); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers=-3: got %d, want GOMAXPROCS=%d", got, runtime.GOMAXPROCS(0))
	}
	for _, n := range []int{1, 2, 7} {
		if got := (Config{Workers: n}).workerCount(); got != n {
			t.Errorf("Workers=%d: got %d", n, got)
		}
	}
}

// TestParallelRanges checks the sharding helper: every index covered
// exactly once, shard indices dense, and degenerate inputs handled.
func TestParallelRanges(t *testing.T) {
	for _, tc := range []struct{ n, workers int }{
		{0, 4}, {1, 4}, {4, 4}, {5, 4}, {100, 7}, {3, 1}, {10, 100},
	} {
		covered := make([]int, tc.n)
		var mu sync.Mutex
		parallelRanges(tc.n, tc.workers, func(shard, lo, hi int) {
			mu.Lock()
			defer mu.Unlock()
			for i := lo; i < hi; i++ {
				covered[i]++
			}
		})
		for i, c := range covered {
			if c != 1 {
				t.Errorf("n=%d workers=%d: index %d covered %d times", tc.n, tc.workers, i, c)
			}
		}
	}
}
