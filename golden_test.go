package facilitymap

import (
	"fmt"
	"hash/fnv"
	"testing"

	"facilitymap/internal/cfs"
	"facilitymap/internal/experiments"
	"facilitymap/internal/obs"
	"facilitymap/internal/world"
)

// The boot's fixed point, pinned exactly. The worklist-vs-rescan
// differential shares every hot path (target picking, alias
// resolution, constrain, path ingestion) with its oracle, so a change
// there moves both sides and passes. These constants do not move with
// the code: a change that is meant to leave every inference alone must
// keep them, and one that moves the fixed point on purpose updates
// them and reports the old and new values.

// recordDigest hashes every pre-rendered interface record in listing
// order with FNV-64a, one newline after each: the record half of the
// end-to-end benchmark's snapshot digest.
func recordDigest(m *Mapping) uint64 {
	h := fnv.New64a()
	m.EachInterfaceJSON(func(rec []byte) bool {
		h.Write(rec)
		h.Write([]byte{'\n'})
		return true
	})
	return h.Sum64()
}

// TestBootFixedPointGolden boots at seed 42 with the facade defaults
// and pins the summary and the record digest: the small world with
// Explain off and on (on, every record carries its provenance text),
// and the medium world the daemon benchmark boots.
func TestBootFixedPointGolden(t *testing.T) {
	for _, tc := range []struct {
		profile string
		explain bool
		sum     SnapshotSummary
		digest  uint64
	}{
		{"small", false, goldenSmallSummary, 0x20d91d34b1ec726b},
		{"small", true, goldenSmallSummary, 0x645c8d42a410d5a4},
		{"medium", false, goldenMediumSummary, 0xb956dba247d61cab},
	} {
		t.Run(fmt.Sprintf("%s/explain=%v", tc.profile, tc.explain), func(t *testing.T) {
			sys, err := NewSystem(Config{Profile: tc.profile, Seed: 42, Explain: tc.explain})
			if err != nil {
				t.Fatal(err)
			}
			m := sys.MapInterconnections()
			if got := m.Summarize(); got != tc.sum {
				t.Errorf("summary:\n got  %+v\n want %+v", got, tc.sum)
			}
			if got := recordDigest(m); got != tc.digest {
				t.Errorf("record digest %#016x, want %#016x", got, tc.digest)
			}
		})
	}
}

var goldenSmallSummary = SnapshotSummary{
	Epoch:               0,
	Interfaces:          391,
	Resolved:            286,
	ResolvedFraction:    286.0 / 391.0,
	Iterations:          10,
	Routers:             231,
	MultiRoleRouters:    70,
	MultiIXPRouters:     7,
	FarEndPlacements:    43,
	ProximityPlacements: 16,
}

var goldenMediumSummary = SnapshotSummary{
	Epoch:               0,
	Interfaces:          1465,
	Resolved:            1028,
	ResolvedFraction:    1028.0 / 1465.0,
	Iterations:          48,
	Routers:             849,
	MultiRoleRouters:    218,
	MultiIXPRouters:     25,
	FarEndPlacements:    147,
	ProximityPlacements: 42,
}

// TestEngineCountersGolden pins the engine's work on the benchmark's
// small configuration (world.Small, seed 42, cfs.DefaultConfig): probes
// issued, proposals recomputed, candidate-set narrowings and resolved
// interfaces. Each is a pure function of the inputs, so any core count
// must give the same numbers.
func TestEngineCountersGolden(t *testing.T) {
	env := experiments.NewEnv(world.Small(), 42)
	o := obs.New(1 << 12)
	env.Instrument(o)
	res := env.RunCFS(cfs.DefaultConfig())
	recomputed := 0
	for _, h := range res.History {
		recomputed += h.Recomputed
	}
	got := [4]int64{
		int64(env.Engine.Probes()),
		int64(recomputed),
		o.Metrics.Snapshot().Counters["cfs.narrowings"],
		int64(res.Resolved()),
	}
	want := [4]int64{9461, 955, 354, 251}
	if got != want {
		t.Errorf("probes, recomputed, narrowings, resolved = %v, want %v", got, want)
	}
}
