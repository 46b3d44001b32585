package cfs

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"facilitymap/internal/alias"
	"facilitymap/internal/bgp"
	"facilitymap/internal/delta"
	"facilitymap/internal/ip2asn"
	"facilitymap/internal/platform"
	"facilitymap/internal/registry"
	"facilitymap/internal/remote"
	"facilitymap/internal/trace"
	"facilitymap/internal/world"
)

// deltaEnv is one simulated environment shared by the two legs of a
// delta differential: the incremental leg mutates env.db in place via
// ApplyDelta, the fresh leg runs on a pre-mutation clone with the same
// log replayed onto it. The measurement service is shared — remote
// verdicts are stream-stable (min-of-5 pings against a 2ms threshold),
// so both legs classify members identically even though their RTT
// draws differ.
type deltaEnv struct {
	w      *world.World
	svc    *platform.Service
	db     *registry.Database
	ipasn  *ip2asn.Service
	det    *remote.Detector
	prober *alias.Prober
	corpus Observations
	seed   int64
}

func buildDeltaEnv(t testing.TB, wcfg world.Config, seed int64) *deltaEnv {
	t.Helper()
	w := world.Generate(wcfg)
	rt := bgp.Compute(w)
	engine := trace.New(w, rt, seed)
	fleet := platform.Deploy(w, platform.DefaultDeploy())
	svc := platform.NewService(w, fleet, engine, rt)
	db := registry.Collect(w, registry.DefaultConfig())
	s := &stack{
		w: w, rt: rt, engine: engine, fleet: fleet, svc: svc, db: db,
		ipasn: ip2asn.New(w),
	}
	var sessions []SessionObservation
	for _, vp := range fleet.ByKind(platform.LookingGlass) {
		for _, sess := range svc.LookingGlassSessions(vp) {
			sessions = append(sessions, SessionObservation{
				LGAS: vp.AS, PeerIP: sess.PeerIP, PeerAS: sess.PeerAS,
			})
		}
	}
	return &deltaEnv{
		w: w, svc: svc, db: db, ipasn: s.ipasn,
		det:    remote.NewDetector(svc, db),
		prober: alias.NewProber(w, seed+7),
		corpus: Observations{Paths: s.initialCorpus(), Sessions: sessions},
		seed:   seed,
	}
}

func copyObs(o Observations) Observations {
	return Observations{
		Paths:    append([]trace.Path(nil), o.Paths...),
		Sessions: append([]SessionObservation(nil), o.Sessions...),
	}
}

// freshOn runs a brand-new pipeline over the given database and corpus
// in env's environment — the reference leg of a delta differential.
// The prober is rebuilt from the environment seed, so its probe stream
// matches both the initial incremental run and a post-ResetStream
// replay.
func freshOn(t testing.TB, env *deltaEnv, db *registry.Database, cfg Config, corpus Observations) *Result {
	t.Helper()
	det := remote.NewDetector(env.svc, db)
	prober := alias.NewProber(env.w, env.seed+7)
	p := mustNew(t, cfg, db, env.ipasn, env.svc, det, prober)
	return p.RunObservations(corpus)
}

// requireSameFixedPoint is the delta differential's equality check:
// interfaces, links, provenance and the post-pass counters must match
// bit for bit. History and Epoch are deliberately excluded — an
// incremental epoch's convergence curve measures the repair, not the
// fixed point.
func requireSameFixedPoint(t *testing.T, label string, inc, fresh *Result) {
	t.Helper()
	if len(inc.Interfaces) != len(fresh.Interfaces) {
		t.Fatalf("%s: interface count %d vs fresh %d", label, len(inc.Interfaces), len(fresh.Interfaces))
	}
	for ip, ia := range inc.Interfaces {
		ib, ok := fresh.Interfaces[ip]
		if !ok {
			t.Fatalf("%s: interface %v missing from fresh result", label, ip)
		}
		if !reflect.DeepEqual(ia, ib) {
			t.Fatalf("%s: interface %v differs:\n  inc:   %+v\n  fresh: %+v", label, ip, ia, ib)
		}
	}
	if len(inc.Links) != len(fresh.Links) {
		t.Fatalf("%s: link count %d vs fresh %d", label, len(inc.Links), len(fresh.Links))
	}
	for i := range inc.Links {
		if *inc.Links[i] != *fresh.Links[i] {
			t.Fatalf("%s: link %d differs:\n  inc:   %+v\n  fresh: %+v", label, i, *inc.Links[i], *fresh.Links[i])
		}
	}
	if len(inc.Provenance) != len(fresh.Provenance) {
		t.Fatalf("%s: provenance entries %d vs fresh %d", label, len(inc.Provenance), len(fresh.Provenance))
	}
	for ip, notes := range inc.Provenance {
		if !reflect.DeepEqual(notes, fresh.Provenance[ip]) {
			t.Fatalf("%s: provenance for %v differs:\n  inc:   %v\n  fresh: %v", label, ip, notes, fresh.Provenance[ip])
		}
	}
	if inc.MissingFacilityData != fresh.MissingFacilityData ||
		inc.FarEndInferences != fresh.FarEndInferences ||
		inc.ProximityInferences != fresh.ProximityInferences ||
		inc.MergeConflicts != fresh.MergeConflicts {
		t.Fatalf("%s: counters differ: inc={missing:%d farend:%d prox:%d merge:%d} fresh={missing:%d farend:%d prox:%d merge:%d}",
			label,
			inc.MissingFacilityData, inc.FarEndInferences, inc.ProximityInferences, inc.MergeConflicts,
			fresh.MissingFacilityData, fresh.FarEndInferences, fresh.ProximityInferences, fresh.MergeConflicts)
	}
}

// churnSplit generates a reproducible churn log over env's world and
// partitions it into registry-only (surgical) and full batches.
func churnSplit(t testing.TB, w *world.World, n int, seed int64) (surgical, mixed []delta.Delta) {
	t.Helper()
	log, _ := delta.Churn(w, n, seed)
	for _, d := range log {
		if d.Kind.WorldExpressible() {
			surgical = append(surgical, d)
		}
	}
	if len(surgical) == 0 {
		t.Fatalf("churn(%d, seed=%d) produced no facility deltas", n, seed)
	}
	return surgical, log
}

// TestDeltaSurgicalMatchesFresh is the locked guarantee for
// facility-list deltas: two ApplyDelta batches repaired in place must
// land on the bit-for-bit fixed point of a fresh run over the doubly
// mutated registry — across worlds and seeds, at GOMAXPROCS 1 and 8
// (the w= in the subtest names; see atProcs).
//
// AliasRounds is pinned to a single resolve before iteration 1: with
// one resolve, interface owners are fixed for the entire run, which is
// the regime where in-place repair is provably exact (see DESIGN.md,
// "Delta ingestion and snapshots"). Re-ingestion epochs have no such
// restriction and are covered below with the default multi-round
// schedule.
func TestDeltaSurgicalMatchesFresh(t *testing.T) {
	for _, seed := range []int64{23, 101, 7777} {
		for _, procs := range []int{1, 8} {
			t.Run(fmt.Sprintf("small/seed=%d/w=%d", seed, procs), func(t *testing.T) {
				atProcs(t, procs)
				runSurgicalDifferential(t, world.Small(), seed, 120)
			})
		}
	}
	t.Run("medium/seed=42/w=8", func(t *testing.T) {
		if testing.Short() {
			t.Skip("medium-world differential run is slow")
		}
		atProcs(t, 8)
		runSurgicalDifferential(t, world.Medium(), 42, 200)
	})
}

func runSurgicalDifferential(t *testing.T, wcfg world.Config, seed int64, churnN int) {
	t.Helper()
	env := buildDeltaEnv(t, wcfg, seed)
	cfg := DefaultConfig()
	cfg.MaxIterations = 10
	cfg.UseTargeted = false
	cfg.TraceProvenance = true
	cfg.AliasRounds = []int{1}

	p := mustNew(t, cfg, env.db, env.ipasn, env.svc, env.det, env.prober)
	res0 := p.RunObservations(copyObs(env.corpus))
	if res0.Epoch != 0 {
		t.Fatalf("initial run returned epoch %d, want 0", res0.Epoch)
	}

	batch1, _ := churnSplit(t, env.w, churnN, seed*3+1)
	batch2, _ := churnSplit(t, env.w, churnN, seed*5+2)

	// Clone before ApplyDelta: the incremental leg mutates env.db in
	// place, and the fresh leg needs the pre-delta registry.
	db2 := env.db.Clone()

	res1, err := p.ApplyDelta(batch1)
	if err != nil {
		t.Fatalf("ApplyDelta batch 1: %v", err)
	}
	if res1.Epoch != 1 {
		t.Fatalf("first delta epoch numbered %d, want 1", res1.Epoch)
	}
	res2, err := p.ApplyDelta(batch2)
	if err != nil {
		t.Fatalf("ApplyDelta batch 2: %v", err)
	}
	if res2.Epoch != 2 {
		t.Fatalf("second delta epoch numbered %d, want 2", res2.Epoch)
	}

	// Epoch snapshots are immutable: the earlier epoch must not have
	// been disturbed by the later one.
	if res1.Epoch != 1 || len(res1.Links) == 0 {
		t.Fatal("epoch-1 snapshot mutated by epoch 2")
	}

	delta.ApplyToDatabase(db2, batch1)
	delta.ApplyToDatabase(db2, batch2)
	fresh := freshOn(t, env, db2, cfg, copyObs(env.corpus))
	requireSameFixedPoint(t, "surgical", res2, fresh)
}

// TestDeltaReingestMatchesFresh covers the other strategy: a batch
// containing membership, session or cross-connect deltas triggers a
// corpus re-ingestion, which must equal a fresh run over the mutated
// registry and the delta-adjusted corpus — including under the default
// multi-round alias schedule, which the surgical path cannot support.
// Like the surgical test, it runs at GOMAXPROCS 1 and 8.
func TestDeltaReingestMatchesFresh(t *testing.T) {
	for _, seed := range []int64{23, 101, 7777} {
		for _, procs := range []int{1, 8} {
			t.Run(fmt.Sprintf("small/seed=%d/w=%d", seed, procs), func(t *testing.T) {
				atProcs(t, procs)
				runReingestDifferential(t, world.Small(), seed)
			})
		}
	}
	t.Run("medium/seed=42/w=8", func(t *testing.T) {
		if testing.Short() {
			t.Skip("medium-world differential run is slow")
		}
		atProcs(t, 8)
		runReingestDifferential(t, world.Medium(), 42)
	})
}

func runReingestDifferential(t *testing.T, wcfg world.Config, seed int64) {
	t.Helper()
	env := buildDeltaEnv(t, wcfg, seed)
	cfg := DefaultConfig()
	cfg.MaxIterations = 10
	cfg.UseTargeted = false
	cfg.TraceProvenance = true
	cfg.AliasRounds = []int{1, 5}

	p := mustNew(t, cfg, env.db, env.ipasn, env.svc, env.det, env.prober)
	_ = p.RunObservations(copyObs(env.corpus))

	_, mixed := churnSplit(t, env.w, 80, seed*7+3)
	hasObs := false
	for _, d := range mixed {
		if !d.Kind.WorldExpressible() {
			hasObs = true
			break
		}
	}
	if !hasObs {
		t.Fatal("churn log has no observation/membership deltas; reingest path untested")
	}

	db2 := env.db.Clone()
	res1, err := p.ApplyDelta(mixed)
	if err != nil {
		t.Fatalf("ApplyDelta: %v", err)
	}
	if res1.Epoch != 1 {
		t.Fatalf("delta epoch numbered %d, want 1", res1.Epoch)
	}

	delta.ApplyToDatabase(db2, mixed)
	corpus2 := copyObs(env.corpus)
	ApplyObservationDeltas(&corpus2, mixed)
	fresh := freshOn(t, env, db2, cfg, corpus2)
	requireSameFixedPoint(t, "reingest", res1, fresh)
}

// TestDeltaAfterTargetedRun exercises corpus retention: an initial run
// with targeted follow-ups enabled accumulates its follow-up paths into
// the retained corpus, and a re-ingestion epoch replays them — so the
// fixed point equals a targeted-off fresh run over exactly that
// enlarged corpus.
func TestDeltaAfterTargetedRun(t *testing.T) {
	env := buildDeltaEnv(t, world.Small(), 23)
	cfg := DefaultConfig()
	cfg.MaxIterations = 10
	cfg.FollowUpBudget = 200
	cfg.UseTargeted = true
	cfg.TraceProvenance = true
	cfg.AliasRounds = []int{1, 5}

	p := mustNew(t, cfg, env.db, env.ipasn, env.svc, env.det, env.prober)
	_ = p.RunObservations(copyObs(env.corpus))

	retained := p.Corpus()
	if len(retained.Paths) <= len(env.corpus.Paths) {
		t.Fatalf("targeted run retained %d paths, want more than the %d ingested",
			len(retained.Paths), len(env.corpus.Paths))
	}

	// Only non-surgical kinds: force the re-ingestion strategy.
	_, mixed := churnSplit(t, env.w, 80, 77)
	var obsOnly []delta.Delta
	for _, d := range mixed {
		if !d.Kind.WorldExpressible() {
			obsOnly = append(obsOnly, d)
		}
	}
	if len(obsOnly) == 0 {
		t.Fatal("churn produced no observation deltas")
	}

	db2 := env.db.Clone()
	res1, err := p.ApplyDelta(obsOnly)
	if err != nil {
		t.Fatalf("ApplyDelta: %v", err)
	}

	delta.ApplyToDatabase(db2, obsOnly)
	corpus2 := retained
	ApplyObservationDeltas(&corpus2, obsOnly)
	cfg2 := cfg
	cfg2.UseTargeted = false
	fresh := freshOn(t, env, db2, cfg2, corpus2)
	requireSameFixedPoint(t, "targeted-retention", res1, fresh)
}

// TestApplyDeltaRejections pins the API contract: no deltas before an
// initial run, no unknown kinds.
func TestApplyDeltaRejections(t *testing.T) {
	env := buildDeltaEnv(t, world.Small(), 23)
	cfg := DefaultConfig()
	cfg.MaxIterations = 5
	cfg.UseTargeted = false

	p := mustNew(t, cfg, env.db, env.ipasn, env.svc, env.det, env.prober)
	if _, err := p.ApplyDelta(nil); err == nil {
		t.Fatal("ApplyDelta before Run accepted")
	}
	_ = p.RunObservations(copyObs(env.corpus))
	if _, err := p.ApplyDelta([]delta.Delta{{Kind: "frobnicate"}}); err == nil {
		t.Fatal("unknown delta kind accepted")
	}
}

// TestDeltaRejectsUnknownFacility plants a facility-list delta naming a
// facility outside the registry in the middle of an otherwise valid
// batch. The whole batch must be rejected with delta.ErrUnknownFacility
// before anything is applied: the registry digest and the epoch counter
// stay where they were, and the next valid batch still lands on a fresh
// run's fixed point.
func TestDeltaRejectsUnknownFacility(t *testing.T) {
	env := buildDeltaEnv(t, world.Small(), 23)
	cfg := DefaultConfig()
	cfg.MaxIterations = 10
	cfg.UseTargeted = false
	cfg.TraceProvenance = true
	cfg.AliasRounds = []int{1}

	p := mustNew(t, cfg, env.db, env.ipasn, env.svc, env.det, env.prober)
	res0 := p.RunObservations(copyObs(env.corpus))
	db2 := env.db.Clone()
	before := registryDigest(env.db)

	valid, _ := churnSplit(t, env.w, 40, 5)
	unknown := world.FacilityID(len(env.w.Facilities) + 1000)
	for _, bad := range []delta.Delta{
		{Kind: delta.ASFacilityAdd, AS: res0.Links[0].NearAS, Facility: unknown},
		{Kind: delta.IXPFacilityRemove, IXP: env.w.IXPs[0].ID, Facility: -1},
	} {
		half := len(valid) / 2
		planted := append(append(append([]delta.Delta(nil), valid[:half]...), bad), valid[half:]...)
		if _, err := p.ApplyDelta(planted); !errors.Is(err, delta.ErrUnknownFacility) {
			t.Fatalf("planted %v: got error %v, want ErrUnknownFacility", bad, err)
		}
		if registryDigest(env.db) != before {
			t.Fatalf("rejected batch with %v mutated the registry", bad)
		}
	}

	res1, err := p.ApplyDelta(valid)
	if err != nil {
		t.Fatalf("valid batch after rejections: %v", err)
	}
	if res1.Epoch != 1 {
		t.Fatalf("valid batch published epoch %d, want 1: a rejected batch consumed an epoch", res1.Epoch)
	}
	delta.ApplyToDatabase(db2, valid)
	requireSameFixedPoint(t, "after-rejection", res1, freshOn(t, env, db2, cfg, copyObs(env.corpus)))
}

// registryDigest renders every AS and IXP facility list — the registry
// state facility-list deltas mutate.
func registryDigest(db *registry.Database) string {
	var b strings.Builder
	for _, asn := range db.AllASNs() {
		fmt.Fprintf(&b, "as%d:%v\n", asn, db.FacilitiesOfAS(asn))
	}
	ixps := make([]world.IXPID, 0, len(db.IXPs))
	for ix := range db.IXPs {
		ixps = append(ixps, ix)
	}
	sort.Slice(ixps, func(i, j int) bool { return ixps[i] < ixps[j] })
	for _, ix := range ixps {
		fmt.Fprintf(&b, "ixp%d:%v\n", ix, db.FacilitiesOfIXP(ix))
	}
	return b.String()
}

// TestDeltaCensusMatchesReference pins the dense router census to the
// map-based reference (referenceCensus) on every epoch of a churn
// stream that mixes surgical, re-ingestion and empty heartbeat batches,
// with and without alias resolution.
func TestDeltaCensusMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		name  string
		wcfg  world.Config
		seed  int64
		alias bool
		n     int
	}{
		{"small", world.Small(), 23, true, 24},
		{"small/noalias", world.Small(), 101, false, 12},
		{"medium", world.Medium(), 42, true, 12},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.name == "medium" && testing.Short() {
				t.Skip("medium-world census stream is slow")
			}
			env := buildDeltaEnv(t, tc.wcfg, tc.seed)
			cfg := DefaultConfig()
			cfg.MaxIterations = 10
			cfg.UseTargeted = false
			cfg.UseAliasResolution = tc.alias
			p := mustNew(t, cfg, env.db, env.ipasn, env.svc, env.det, env.prober)
			res := p.RunObservations(copyObs(env.corpus))
			check := func(res *Result) {
				t.Helper()
				if got, want := res.Census(), referenceCensus(res); got != want {
					t.Fatalf("epoch %d: census %+v, reference %+v", res.Epoch, got, want)
				}
			}
			check(res)
			if res.Census().PublicRouters == 0 {
				t.Fatal("census saw no public routers")
			}

			log, _ := delta.Churn(env.w, tc.n, tc.seed)
			kinds := map[string]int{}
			for i, d := range log {
				batch := []delta.Delta{d}
				if i%4 == 3 {
					batch = nil
				}
				switch {
				case len(batch) == 0:
					kinds["heartbeat"]++
				case delta.Surgical(batch):
					kinds["surgical"]++
				default:
					kinds["reingest"]++
				}
				r, err := p.ApplyDelta(batch)
				if err != nil {
					t.Fatalf("batch %d: %v", i, err)
				}
				check(r)
			}
			if len(kinds) != 3 {
				t.Fatalf("stream lacks a batch class: %v", kinds)
			}
		})
	}
}
