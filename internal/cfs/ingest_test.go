package cfs

import (
	"fmt"
	"maps"
	"slices"
	"testing"

	"facilitymap/internal/alias"
	"facilitymap/internal/delta"
	"facilitymap/internal/netaddr"
	"facilitymap/internal/obs"
	"facilitymap/internal/remote"
	"facilitymap/internal/trace"
	"facilitymap/internal/world"
)

// requireFoldMatches folds p's ingest plan, brought up to the retained
// corpus as the next re-ingestion would bring it, into a fresh state,
// and requires it to equal a fresh state fed ingestPaths over the same
// corpus.
func requireFoldMatches(t testing.TB, label string, p *Pipeline) {
	t.Helper()
	want := p.newState()
	want.ingestPaths(p.obsIn.Paths)
	got := p.newState()
	got.ingestPlanned(p.ingestPlan(got))
	requireSameIngestion(t, label, got, want)
}

// requireSameIngestion requires two states' Step 1 outputs to be
// equal: the pool in order and as a set, adjOrder field by field, the
// adjacency index, every address's observers in order, and portOf.
func requireSameIngestion(t testing.TB, label string, got, want *state) {
	t.Helper()
	if i := firstDiff(got.pool, want.pool); i >= 0 {
		t.Fatalf("%s: pool differs at %d (lengths %d and %d)", label, i, len(got.pool), len(want.pool))
	}
	if !maps.Equal(got.inPool, want.inPool) {
		t.Fatalf("%s: pool sets differ", label)
	}
	if len(got.adjOrder) != len(want.adjOrder) {
		t.Fatalf("%s: %d adjacencies, ingestPaths made %d", label, len(got.adjOrder), len(want.adjOrder))
	}
	for i, a := range want.adjOrder {
		if *got.adjOrder[i] != *a {
			t.Fatalf("%s: adjacency %d is %+v, ingestPaths made %+v", label, i, *got.adjOrder[i], *a)
		}
	}
	if len(got.adjs) != len(want.adjs) {
		t.Fatalf("%s: adjacency index holds %d keys, ingestPaths made %d", label, len(got.adjs), len(want.adjs))
	}
	for k, a := range want.adjs {
		if g := got.adjs[k]; g == nil || *g != *a {
			t.Fatalf("%s: adjacency index differs at %v", label, k)
		}
	}
	if len(got.observedBy) != len(want.observedBy) {
		t.Fatalf("%s: %d observed addresses, ingestPaths recorded %d", label, len(got.observedBy), len(want.observedBy))
	}
	for ip, vps := range want.observedBy {
		if i := firstDiff(got.observedBy[ip], vps); i >= 0 {
			t.Fatalf("%s: observers of %v differ at %d", label, ip, i)
		}
	}
	if len(got.portOf) != len(want.portOf) {
		t.Fatalf("%s: portOf holds %d ports, ingestPaths wrote %d", label, len(got.portOf), len(want.portOf))
	}
	for k, ip := range want.portOf {
		if got.portOf[k] != ip {
			t.Fatalf("%s: portOf%v is %v, ingestPaths wrote %v", label, k, got.portOf[k], ip)
		}
	}
}

// firstDiff returns the first index where a and b differ, or -1.
func firstDiff[T comparable](a, b []T) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

// reingestBatches turns n churn records into one-record re-ingestion
// batches, dropping the surgical records, and inserts two batches
// after the first cross-connect add the removal of that very link, so
// that one removal takes a path out of the corpus.
func reingestBatches(t *testing.T, w *world.World, n int, seed int64) [][]delta.Delta {
	t.Helper()
	log, _ := delta.Churn(w, n, seed)
	var out [][]delta.Delta
	undo := -1
	var removal delta.Delta
	for _, d := range log {
		if delta.Surgical([]delta.Delta{d}) {
			continue
		}
		out = append(out, []delta.Delta{d})
		if d.Kind == delta.CrossConnectAdd && undo < 0 {
			undo = len(out) + 2
			removal = d
			removal.Kind = delta.CrossConnectRemove
		}
		if len(out) == undo {
			out = append(out, []delta.Delta{removal})
		}
	}
	kinds := map[delta.Kind]bool{}
	for _, b := range out {
		kinds[b[0].Kind] = true
	}
	for _, k := range [][]delta.Kind{
		{delta.CrossConnectAdd}, {delta.CrossConnectRemove},
		{delta.MemberAdd, delta.MemberRemove}, {delta.SessionUp, delta.SessionDown},
	} {
		if !kinds[k[0]] && (len(k) == 1 || !kinds[k[1]]) {
			t.Fatalf("churn(%d, seed=%d) has no %v record", n, seed, k)
		}
	}
	return out
}

// TestDeltaIngestPlanMatchesIngestPaths: the fold of the compiled
// corpus leaves the state ingestPaths leaves, after the boot (targeted
// follow-ups on, so the boot appended to the corpus) and after every
// re-ingestion batch of a churn stream holding cross-connect adds and
// removals, membership and session records. Memberships move port
// owners between epochs, so a pair must be classified afresh each
// epoch; a removal takes a compiled path out, so the plan must be
// compiled again.
func TestDeltaIngestPlanMatchesIngestPaths(t *testing.T) {
	for _, tc := range []struct {
		name string
		wcfg world.Config
		n    int
	}{{"small", world.Small(), 120}, {"medium", world.Medium(), 100}} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.name == "medium" && testing.Short() {
				t.Skip("medium-world churn stream is slow")
			}
			env := buildDeltaEnv(t, tc.wcfg, 42)
			p := mustNew(t, DefaultConfig(), env.db, env.ipasn, env.svc, env.det, env.prober)
			p.RunObservations(copyObs(env.corpus))
			if len(p.obsIn.Paths) <= len(env.corpus.Paths) {
				t.Fatal("the boot appended no follow-up path")
			}
			requireFoldMatches(t, "boot", p)
			removed := 0
			for i, batch := range reingestBatches(t, env.w, tc.n, 11) {
				before := len(p.obsIn.Paths)
				if _, err := p.ApplyDelta(batch); err != nil {
					t.Fatalf("batch %d: %v", i, err)
				}
				if len(p.obsIn.Paths) < before {
					removed++
				}
				requireFoldMatches(t, fmt.Sprintf("batch %d (%v)", i, batch[0].Kind), p)
			}
			if removed == 0 {
				t.Fatal("no batch took a path out of the corpus")
			}
		})
	}
}

// FuzzIngestPlan builds a corpus from hop addresses of the small world
// step by step, appending paths (as a targeted round does) and
// synthetic cross-connect paths, and removing synthetic paths, through
// the pipeline's own corpus edit. After every step the fold of the
// pipeline's plan must equal ingestPaths over the corpus.
//
// The input is a byte program. Each step takes an opcode byte:
//   - 0, 1: append a path: a source byte, a hop-count byte (mod 9),
//     then one byte per hop: 0 is a silent hop (its address from the
//     next byte), 1 a responsive hop with a zero address, anything
//     else a responsive hop at that address;
//   - 2: a cross-connect add: near, far and router bytes;
//   - 3: remove the link of an earlier add, picked by the next byte.
//
// A byte past the end of the input reads as zero.
func FuzzIngestPlan(f *testing.F) {
	s := buildStack(f, world.Small())
	p := mustNew(f, DefaultConfig(), s.db, s.ipasn, s.svc, s.det, s.prober)

	// Addresses: IXP ports and router interfaces, both spread over the
	// world, so pairs classify every way Step 1 can. The IXP ports start
	// with members' second ports at one exchange: two pairs ending at
	// ports of one member write one portOf key, the last one wins.
	var shared, ixp, other []netaddr.IP
	first := make(map[portKey]netaddr.IP)
	for _, ifc := range s.w.Interfaces {
		ix, ok := s.db.IXPByIP(ifc.IP)
		if !ok {
			other = append(other, ifc.IP)
			continue
		}
		ixp = append(ixp, ifc.IP)
		if as, ok := s.db.PortOwner(ifc.IP); ok {
			if ip, dup := first[portKey{as, ix}]; !dup {
				first[portKey{as, ix}] = ifc.IP
			} else if len(shared) < 32 {
				shared = append(shared, ip, ifc.IP)
			}
		}
	}
	addrs := append(append(shared, spread(ixp, 64-len(shared))...), spread(other, 192)...)
	// Sources: routers hosting a vantage point, one hosting none, and
	// the offline marker.
	var routers []world.RouterID
	hosts := make(map[world.RouterID]bool)
	for _, vp := range s.fleet.VPs {
		hosts[vp.Router] = true
		if len(routers) < 6 && !slices.Contains(routers, vp.Router) {
			routers = append(routers, vp.Router)
		}
	}
	for _, r := range s.w.Routers {
		if !hosts[r.ID] {
			routers = append(routers, r.ID)
			break
		}
	}
	routers = append(routers, world.RouterID(world.None))

	for _, seed := range [][]byte{
		{0, 0, 3, 2, 3, 4, 0, 1, 3, 2, 3, 5},
		{0, 0, 4, 70, 7, 0, 9, 8, 1, 1, 3, 70, 1, 7, 2},
		{2, 10, 11, 0, 2, 10, 11, 1, 3, 0, 0, 2, 2, 10, 11},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		p.obsIn, p.plan = Observations{}, nil
		next := func() int {
			if len(prog) == 0 {
				return 0
			}
			b := prog[0]
			prog = prog[1:]
			return int(b)
		}
		var adds []delta.Delta
		for step := 0; len(prog) > 0 && step < 32; step++ {
			switch op := next() % 4; op {
			case 0, 1:
				path := trace.Path{SrcRouter: routers[next()%len(routers)]}
				for range next() % 9 {
					switch b := next(); b {
					case 0:
						path.Hops = append(path.Hops, trace.Hop{IP: addrs[next()%len(addrs)]})
					case 1:
						path.Hops = append(path.Hops, trace.Hop{Responded: true})
					default:
						path.Hops = append(path.Hops, trace.Hop{IP: addrs[b%len(addrs)], Responded: true})
					}
				}
				p.obsIn.Paths = append(p.obsIn.Paths, path)
			case 2:
				d := delta.Delta{
					Kind:   delta.CrossConnectAdd,
					NearIP: addrs[next()%len(addrs)],
					FarIP:  addrs[next()%len(addrs)],
					Router: routers[next()%len(routers)],
				}
				adds = append(adds, d)
				p.editCorpus([]delta.Delta{d})
			case 3:
				if len(adds) == 0 {
					continue
				}
				d := adds[next()%len(adds)]
				d.Kind = delta.CrossConnectRemove
				p.editCorpus([]delta.Delta{d})
			}
			requireFoldMatches(t, fmt.Sprintf("step %d", step), p)
		}
	})
}

// spread returns up to n entries of ips, evenly spaced.
func spread(ips []netaddr.IP, n int) []netaddr.IP {
	if len(ips) <= n {
		return ips
	}
	out := make([]netaddr.IP, n)
	for i := range out {
		out[i] = ips[i*len(ips)/n]
	}
	return out
}

// TestDeltaAliasReplayMatchesFresh: re-ingestions whose pool equals the
// last one resolved from a reset stream replay the prober's memo, and
// each still equals a fresh run over the same inputs, down to the
// prober: the same clock, and the same number of probes booked. With
// alias rounds {1, 2} and no follow-ups, the second round probes after
// a replay, so a replay that left the stream anywhere else would show.
// Both the replay counter and the ingest histogram reach the metrics.
func TestDeltaAliasReplayMatchesFresh(t *testing.T) {
	env := buildDeltaEnv(t, world.Small(), 23)
	cfg := DefaultConfig()
	cfg.MaxIterations = 10
	cfg.UseTargeted = false
	cfg.TraceProvenance = true
	cfg.AliasRounds = []int{1, 2}
	observed := cfg
	o := obs.New(0)
	observed.Obs = o
	p := mustNew(t, observed, env.db, env.ipasn, env.svc, env.det, env.prober)
	p.RunObservations(copyObs(env.corpus))

	replayed := 0
	batches := reingestBatches(t, env.w, 60, 11)
	for i, batch := range batches {
		replays, probes := env.prober.Replays, env.prober.Probes
		res, err := p.ApplyDelta(batch)
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		label := fmt.Sprintf("batch %d (%v)", i, batch[0].Kind)
		prober := alias.NewProber(env.w, env.seed+7)
		db := env.db.Clone()
		fresh := mustNew(t, cfg, db, env.ipasn, env.svc, remote.NewDetector(env.svc, db), prober).RunObservations(p.Corpus())
		requireSameFixedPoint(t, label, res, fresh)
		if got, want := env.prober.Clock(), prober.Clock(); got != want {
			t.Fatalf("%s: prober clock %v, fresh run's %v", label, got, want)
		}
		if got, want := env.prober.Probes-probes, prober.Probes; got != want {
			t.Fatalf("%s: the epoch booked %d alias probes, the fresh run %d", label, got, want)
		}
		if prober.Replays != 0 {
			t.Fatalf("%s: a fresh prober replayed", label)
		}
		replayed += env.prober.Replays - replays
	}
	if replayed < 2 {
		t.Fatalf("%d of %d re-ingestions replayed the memo, want at least 2", replayed, len(batches))
	}
	snap := o.Metrics.Snapshot()
	if got := snap.Counters["cfs.alias_rounds_replayed"]; got != int64(replayed) {
		t.Errorf("cfs.alias_rounds_replayed = %d, the prober replayed %d times", got, replayed)
	}
	if got, want := snap.Histograms["cfs.phase.ingest"].Count, int64(1+len(batches)); got != want {
		t.Errorf("cfs.phase.ingest observed %d ingestions, want %d (the boot and every re-ingestion)", got, want)
	}
}
