package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"runtime"
	"time"

	"facilitymap"
	"facilitymap/internal/bgp"
	"facilitymap/internal/cfs"
	"facilitymap/internal/experiments"
	"facilitymap/internal/obs"
	"facilitymap/internal/registry"
	"facilitymap/internal/world"
)

// The system under test is cfsd's default daemon on the medium world:
// its world seed is fixed, so runs with different benchmark seeds
// measure the same system and differ only in the traffic the seed
// draws (read keys, churn records).
const (
	profile   = "medium"
	worldSeed = 42 // cfsd's -seed default
)

// systemConfig is cfsd's default facade configuration: worklist engine,
// one worker per CPU, no shards, 100 iterations.
func systemConfig() facilitymap.Config {
	return facilitymap.Config{Profile: profile, Seed: worldSeed, MaxIterations: 100}
}

// bootStats is one fresh boot, timed per facade call.
type bootStats struct {
	newSystem, mapping, materialize, total time.Duration
	// Filled only for instrumented boots (envObs != nil).
	allocs, allocBytes uint64
	gcPause            time.Duration
	obs                obs.Snapshot
}

// boot runs NewSystem → MapInterconnections → Materialize, the work
// every cfsmap run and cfsd restart waits for. With a non-nil envObs the
// Env is instrumented before mapping (cfs.* and trace.* metrics) and
// allocations are counted; sp records one span per facade call.
func boot(sp *spanLog, envObs *obs.Obs) (*facilitymap.System, *facilitymap.Mapping, bootStats, error) {
	var st bootStats
	var ms0 runtime.MemStats
	if envObs != nil {
		runtime.ReadMemStats(&ms0)
	}
	var sys *facilitymap.System
	var m *facilitymap.Mapping
	var err error
	st.total = sp.timed(0, "boot", func(root int64) {
		st.newSystem = sp.timed(root, "facilitymap.NewSystem", func(int64) {
			sys, err = facilitymap.NewSystem(systemConfig())
		})
		if err != nil {
			return
		}
		if envObs != nil {
			sys.Env.Instrument(envObs)
		}
		st.mapping = sp.timed(root, "facilitymap.MapInterconnections", func(int64) {
			m = sys.MapInterconnections()
		})
		st.materialize = sp.timed(root, "facilitymap.Materialize", func(int64) {
			m.Materialize(0)
		})
	})
	if err != nil {
		return nil, nil, st, fmt.Errorf("boot: %w", err)
	}
	if envObs != nil {
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		st.allocs = ms1.Mallocs - ms0.Mallocs
		st.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
		st.gcPause = time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)
		st.obs = envObs.Metrics.Snapshot()
	}
	return sys, m, st, nil
}

// layerStats is one boot taken apart into direct calls on the packages
// under the facade.
type layerStats struct {
	generate, routing, collect, newEnv, corpus, cfsRun time.Duration
}

// layeredBoot replays the facade's boot as direct package calls, so
// each layer gets its own span: the world, its routing and registry
// views (built standalone, then again inside NewEnv), the initial
// corpus, and the CFS run.
func layeredBoot(sp *spanLog) layerStats {
	var st layerStats
	wcfg := world.Medium()
	wcfg.Seed = worldSeed
	sp.timed(0, "boot.layered", func(root int64) {
		var w *world.World
		st.generate = sp.timed(root, "world.Generate", func(int64) { w = world.Generate(wcfg) })
		st.routing = sp.timed(root, "bgp.Compute", func(int64) { bgp.Compute(w) })
		st.collect = sp.timed(root, "registry.Collect", func(int64) { registry.Collect(w, registry.DefaultConfig()) })
		var env *experiments.Env
		st.newEnv = sp.timed(root, "experiments.NewEnv", func(int64) { env = experiments.NewEnv(wcfg, worldSeed) })
		var in cfs.Observations
		st.corpus = sp.timed(root, "experiments.InitialCorpus+Sessions", func(int64) {
			in = cfs.Observations{Paths: env.InitialCorpus(), Sessions: env.Sessions()}
		})
		cfg := cfs.DefaultConfig()
		p, err := cfs.New(cfg, env.DB, env.IPASN, env.Svc, env.Det, env.Prober)
		if err != nil {
			panic(err) // the default config is valid by construction
		}
		st.cfsRun = sp.timed(root, "cfs.RunObservations", func(int64) { p.RunObservations(in) })
	})
	return st
}

// digest identifies a snapshot's served content: its summary plus a
// hash of every pre-rendered interface record in listing order.
func digest(m *facilitymap.Mapping) string {
	sum, err := json.Marshal(m.Summarize())
	if err != nil {
		panic(err) // a plain struct of numbers always marshals
	}
	h := fnv.New64a()
	m.EachInterfaceJSON(func(rec []byte) bool {
		h.Write(rec)
		h.Write([]byte{'\n'})
		return true
	})
	return fmt.Sprintf("%s#%016x", sum, h.Sum64())
}

// accuracyPct is the §6 validation's overall share of correct
// inferences, in percent.
func accuracyPct(m *facilitymap.Mapping) float64 {
	return 100 * m.Validate().Overall.Frac()
}
