// Command cfsbench benchmarks the CFS iteration core and writes a
// machine-readable report (BENCH_cfs.json by default): wall time per
// run, probes issued, proposals recomputed, candidate-set narrowings,
// and the process's peak RSS. Each run rebuilds a fresh environment, so
// every run sees bit-for-bit identical inputs. The report's engines
// array holds one entry, "worklist" — the only core.
//
// -profile large benchmarks the internet-scale world under a tight
// iteration budget; its report belongs in BENCH_cfs_large.json,
// separate from the small-world artifact CI gates on.
//
// The core is timed in both modes — observability off and on — and
// the ratio is reported as obs_overhead_x. Each mode gets one untimed
// warmup run, and the timed runs interleave the two modes so slow
// drift (thermal throttling, background GC debt) lands on both equally
// rather than on whichever mode runs last. -max-overhead N turns the
// ratio into a gate: exit nonzero when the enabled/disabled ratio
// exceeds N (0, the default, disables the gate). CI uses a generous
// bound purely as a smoke check that the disabled path stays free.
//
// -baseline FILE compares the fresh numbers against a previous report
// (typically the committed BENCH_cfs.json, read before it is
// overwritten): with -max-regress R, the run fails when the worklist
// engine's ns_per_op exceeds the baseline by more than the fraction R.
//
// Usage:
//
//	cfsbench [-profile small|medium|default|paper|large] [-seed N] [-runs N]
//	         [-out FILE] [-max-overhead X] [-baseline FILE] [-max-regress R]
//	         [-incremental N]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"facilitymap/internal/cfs"
	"facilitymap/internal/delta"
	"facilitymap/internal/experiments"
	"facilitymap/internal/obs"
	"facilitymap/internal/world"
)

// engineReport is the iteration core's measurements. ns_per_op is the
// mean wall time of a full CFS run (campaigns included, world
// generation excluded) with observability disabled; ns_per_op_observed
// is the same with metrics and tracing attached. allocs_per_op and
// bytes_per_op are the mean heap allocation count and volume of one
// unobserved run (runtime.MemStats deltas around the timed region).
type engineReport struct {
	Engine              string  `json:"engine"`
	NsPerOp             int64   `json:"ns_per_op"`
	NsPerOpObserved     int64   `json:"ns_per_op_observed"`
	ObsOverheadX        float64 `json:"obs_overhead_x"`
	AllocsPerOp         int64   `json:"allocs_per_op"`
	BytesPerOp          int64   `json:"bytes_per_op"`
	ProbesIssued        int64   `json:"probes_issued"`
	ProposalsRecomputed int64   `json:"proposals_recomputed"`
	Narrowings          int64   `json:"narrowings"`
	Iterations          int     `json:"iterations"`
	Interfaces          int     `json:"interfaces"`
	Resolved            int     `json:"resolved"`
}

type report struct {
	Profile      string `json:"profile"`
	Seed         int64  `json:"seed"`
	Runs         int    `json:"runs"`
	GoMaxProcs   int    `json:"go_max_procs"`
	PeakRSSBytes int64  `json:"peak_rss_bytes"`
	// Engines holds the one "worklist" entry; it stays an array so
	// earlier reports, which listed several cores, still load as a
	// -baseline.
	Engines []engineReport `json:"engines"`

	// The -incremental scenario: mean re-convergence time of one
	// single-AS facility delta applied to a converged pipeline
	// (ApplyDelta, surgical repair) against a fresh full run over the
	// same mutated registry. Kept as top-level fields — the engines list
	// describes full runs only.
	IncrementalDeltas     int     `json:"incremental_deltas,omitempty"`
	IncrementalNsPerOp    int64   `json:"incremental_ns_per_op,omitempty"`
	FreshNsPerOp          int64   `json:"fresh_ns_per_op,omitempty"`
	IncrementalSpeedupX   float64 `json:"incremental_speedup_x,omitempty"`
	IncrementalRecomputed int64   `json:"incremental_recomputed_per_op,omitempty"`
	FreshRecomputed       int64   `json:"fresh_recomputed,omitempty"`
}

// worklistLabel names the report's engines entry, here and in the
// -baseline report.
const worklistLabel = "worklist"

// benchConfig is the CFS configuration a profile is benchmarked under:
// the paper's operating point, or a budgeted one for the
// internet-scale profile.
func benchConfig(profile string) cfs.Config {
	cfg := cfs.DefaultConfig()
	if profile == "large" {
		// Every subsystem on, iteration/follow-up/alias budgets tight
		// enough that a run finishes in minutes.
		cfg.MaxIterations = 3
		cfg.FollowUpBudget = 50
		cfg.TargetsPerInterface = 2
		cfg.VPsPerTarget = 1
		cfg.AliasRounds = []int{1}
	}
	return cfg
}

func main() {
	var (
		profile     = flag.String("profile", "small", "world profile: small, medium, default, paper or large")
		seed        = flag.Int64("seed", 42, "simulation seed")
		runs        = flag.Int("runs", 3, "timed runs per mode (fresh environment each)")
		out         = flag.String("out", "BENCH_cfs.json", "output file")
		maxOverhead = flag.Float64("max-overhead", 0, "fail when obs-on/obs-off wall-time ratio exceeds this (0 = no gate)")
		baseline    = flag.String("baseline", "", "previous report to compare against (read before -out is overwritten)")
		maxRegress  = flag.Float64("max-regress", 0, "fail when worklist ns_per_op regresses by more than this fraction vs -baseline (0 = no gate)")
		cpuprofile  = flag.String("cpuprofile", "", "write a CPU profile of the timed runs to this file")
		incremental = flag.Int("incremental", 0, "also benchmark delta re-convergence: apply this many single-AS facility deltas to a converged pipeline (0 = skip)")
		minIncSpeed = flag.Float64("min-incremental-speedup", 0, "fail when fresh/incremental wall-time ratio falls below this (0 = no gate)")
	)
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cfsbench: %v\n", err)
			os.Exit(2)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cfsbench: %v\n", err)
			os.Exit(2)
		}
		defer pprof.StopCPUProfile()
	}

	var wcfg world.Config
	switch *profile {
	case "small":
		wcfg = world.Small()
	case "medium":
		wcfg = world.Medium()
	case "default":
		wcfg = world.Default()
	case "paper":
		wcfg = world.PaperScale()
	case "large":
		wcfg = world.Large()
	default:
		fmt.Fprintf(os.Stderr, "cfsbench: unknown profile %q\n", *profile)
		os.Exit(2)
	}
	if *runs < 1 {
		*runs = 1
	}

	// Read the baseline before any chance of -out clobbering it (the
	// common CI invocation points both at the committed BENCH_cfs.json).
	var base *report
	if *baseline != "" {
		b, err := loadReport(*baseline)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cfsbench: baseline: %v\n", err)
			os.Exit(2)
		}
		base = b
	}

	rep := report{
		Profile:    *profile,
		Seed:       *seed,
		Runs:       *runs,
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}
	er, err := measure(wcfg, *seed, benchConfig(*profile), *runs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cfsbench: %v\n", err)
		os.Exit(1)
	}
	rep.Engines = []engineReport{er}
	fmt.Printf("%-9s %12d ns/op  %12d ns/op(observed)  %9d allocs/op  %10d B/op  %8d probes  %8d recomputed  %6d narrowings\n",
		er.Engine, er.NsPerOp, er.NsPerOpObserved, er.AllocsPerOp, er.BytesPerOp,
		er.ProbesIssued, er.ProposalsRecomputed, er.Narrowings)
	if *incremental > 0 {
		if err := measureIncremental(&rep, wcfg, *seed, *incremental, *runs); err != nil {
			fmt.Fprintf(os.Stderr, "cfsbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("incremental %10d ns/op  %12d ns/op(fresh)  %.1fx speedup  %6d recomputed/op  %8d recomputed(fresh)\n",
			rep.IncrementalNsPerOp, rep.FreshNsPerOp, rep.IncrementalSpeedupX,
			rep.IncrementalRecomputed, rep.FreshRecomputed)
	}
	rep.PeakRSSBytes = peakRSS()

	f, err := os.Create(*out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cfsbench: %v\n", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&rep); err != nil {
		fmt.Fprintf(os.Stderr, "cfsbench: %v\n", err)
		os.Exit(1)
	}
	if err := f.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "cfsbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s (peak RSS %.1f MiB)\n", *out, float64(rep.PeakRSSBytes)/(1<<20))

	if *maxOverhead > 0 && er.ObsOverheadX > *maxOverhead {
		fmt.Fprintf(os.Stderr, "cfsbench: obs overhead %.2fx exceeds gate %.2fx\n",
			er.ObsOverheadX, *maxOverhead)
		os.Exit(1)
	}
	if *minIncSpeed > 0 {
		if rep.IncrementalSpeedupX < *minIncSpeed {
			fmt.Fprintf(os.Stderr, "cfsbench: incremental speedup %.2fx below gate %.2fx\n",
				rep.IncrementalSpeedupX, *minIncSpeed)
			os.Exit(1)
		}
	}
	if *maxRegress > 0 && base != nil {
		if err := checkRegression(base, &rep, *maxRegress); err != nil {
			fmt.Fprintf(os.Stderr, "cfsbench: %v\n", err)
			os.Exit(1)
		}
	}
}

// measureIncremental benchmarks the delta path: converge once, then
// apply k single-AS facility deltas one batch at a time and time each
// ApplyDelta; the reference is a fresh full run over the same mutated
// registry. Both numbers average over the -runs fresh environments.
func measureIncremental(rep *report, wcfg world.Config, seed int64, k, runs int) error {
	cfg := cfs.DefaultConfig()
	var incTotal, freshTotal time.Duration
	var incRecomp, freshRecomp, batches int64
	for r := 0; r < runs; r++ {
		env := experiments.NewEnv(wcfg, seed)
		p, res0 := env.RunCFSPipeline(cfg)
		if len(res0.Interfaces) == 0 {
			return fmt.Errorf("incremental: initial run observed no interfaces")
		}
		log := singleASDeltas(env, k)
		if len(log) < k {
			return fmt.Errorf("incremental: only %d of %d eligible single-AS deltas", len(log), k)
		}
		for _, d := range log {
			t0 := time.Now()
			res, err := p.ApplyDelta([]delta.Delta{d})
			if err != nil {
				return fmt.Errorf("incremental: %w", err)
			}
			incTotal += time.Since(t0)
			for _, h := range res.History {
				incRecomp += int64(h.Recomputed)
			}
			batches++
		}
		// The fresh reference sees the same end state: a new environment
		// whose registry has all k deltas applied up front.
		env2 := experiments.NewEnv(wcfg, seed)
		delta.ApplyToDatabase(env2.DB, log)
		t0 := time.Now()
		resF := env2.RunCFS(cfg)
		freshTotal += time.Since(t0)
		for _, h := range resF.History {
			freshRecomp += int64(h.Recomputed)
		}
	}
	rep.IncrementalDeltas = k
	rep.IncrementalNsPerOp = incTotal.Nanoseconds() / batches
	rep.FreshNsPerOp = freshTotal.Nanoseconds() / int64(runs)
	rep.IncrementalRecomputed = incRecomp / batches
	rep.FreshRecomputed = freshRecomp / int64(runs)
	if rep.IncrementalNsPerOp > 0 {
		rep.IncrementalSpeedupX = float64(rep.FreshNsPerOp) / float64(rep.IncrementalNsPerOp)
	}
	return nil
}

// singleASDeltas picks up to k deterministic one-AS facility removals:
// the first facility of each AS holding at least two, in AS order.
func singleASDeltas(env *experiments.Env, k int) []delta.Delta {
	var out []delta.Delta
	for _, as := range env.W.ASes {
		if len(out) >= k {
			break
		}
		facs := env.DB.FacilitiesOfAS(as.ASN)
		if len(facs) < 2 {
			continue
		}
		out = append(out, delta.Delta{
			Kind: delta.ASFacilityRemove, AS: as.ASN, Facility: facs[0],
		})
	}
	return out
}

// loadReport reads a previously written report.
func loadReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// checkRegression gates the worklist engine's ns_per_op against the
// baseline report: new > old*(1+frac) fails. It runs after the fresh
// report is written, so the artifact always reflects the measured run
// even when the gate trips.
func checkRegression(base, fresh *report, frac float64) error {
	find := func(rep *report) *engineReport {
		for i := range rep.Engines {
			if rep.Engines[i].Engine == worklistLabel {
				return &rep.Engines[i]
			}
		}
		return nil
	}
	b, f := find(base), find(fresh)
	if b == nil || b.NsPerOp <= 0 {
		return fmt.Errorf("baseline report has no usable worklist entry")
	}
	if f == nil {
		return fmt.Errorf("fresh report has no worklist entry")
	}
	ratio := float64(f.NsPerOp) / float64(b.NsPerOp)
	fmt.Printf("worklist ns/op vs baseline: %d -> %d (%.2fx)\n", b.NsPerOp, f.NsPerOp, ratio)
	if ratio > 1+frac {
		return fmt.Errorf("worklist ns_per_op regressed %.0f%% (gate %.0f%%): %d -> %d",
			(ratio-1)*100, frac*100, b.NsPerOp, f.NsPerOp)
	}
	return nil
}

// measure times full CFS runs in both modes and folds the work
// counters of the final observed run into the report.
//
// Scheduling matters for obs_overhead_x: timing all obs-off runs then
// all obs-on runs lets any monotone drift (first-touch page faults,
// thermal throttling, accumulated GC debt) land entirely on one mode,
// which is how an earlier report measured the *observed* engine as
// faster than the unobserved one (overhead 0.94x — pure noise). One
// untimed warmup per mode followed by strict off/on interleaving makes
// the two series sample the same machine conditions.
func measure(wcfg world.Config, seed int64, cfg cfs.Config, runs int) (engineReport, error) {
	er := engineReport{Engine: worklistLabel}

	for _, observe := range []bool{false, true} {
		if _, err := oneRun(wcfg, seed, cfg, observe, &er); err != nil {
			return er, err
		}
	}

	var plain, observed time.Duration
	var allocs, bytes int64
	var snap obs.Snapshot
	for i := 0; i < runs; i++ {
		p, err := oneRun(wcfg, seed, cfg, false, &er)
		if err != nil {
			return er, err
		}
		plain += p.wall
		allocs += p.allocs
		bytes += p.bytes
		o, err := oneRun(wcfg, seed, cfg, true, &er)
		if err != nil {
			return er, err
		}
		observed += o.wall
		snap = o.snap
	}
	er.NsPerOp = plain.Nanoseconds() / int64(runs)
	er.NsPerOpObserved = observed.Nanoseconds() / int64(runs)
	if er.NsPerOp > 0 {
		er.ObsOverheadX = float64(er.NsPerOpObserved) / float64(er.NsPerOp)
	}
	er.AllocsPerOp = allocs / int64(runs)
	er.BytesPerOp = bytes / int64(runs)
	er.Narrowings = snap.Counters["cfs.narrowings"]
	return er, nil
}

// runSample is the measurement of one fresh-environment CFS run.
type runSample struct {
	wall   time.Duration
	allocs int64 // heap allocations inside the timed region
	bytes  int64 // heap bytes allocated inside the timed region
	snap   obs.Snapshot
}

// oneRun executes one fresh-environment CFS run, timing only the
// pipeline (campaigns through convergence), and records the run's probe
// ledger and work counters in er. Environment construction happens
// before the MemStats baseline, so allocs/bytes cover the measured
// region alone.
func oneRun(wcfg world.Config, seed int64, cfg cfs.Config, observe bool, er *engineReport) (runSample, error) {
	var s runSample
	env := experiments.NewEnv(wcfg, seed)
	var o *obs.Obs
	if observe {
		o = obs.New(1 << 12)
		env.Instrument(o)
	}
	runtime.GC() // drain garbage from env construction off the timed region
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	res := env.RunCFS(cfg)
	s.wall = time.Since(t0)
	runtime.ReadMemStats(&after)
	s.allocs = int64(after.Mallocs - before.Mallocs)
	s.bytes = int64(after.TotalAlloc - before.TotalAlloc)
	if len(res.Interfaces) == 0 {
		return s, fmt.Errorf("run observed no interfaces")
	}
	er.ProbesIssued = int64(env.Engine.Probes())
	er.Iterations = len(res.History)
	er.Interfaces = len(res.Interfaces)
	er.Resolved = res.Resolved()
	recomputed := 0
	for _, h := range res.History {
		recomputed += h.Recomputed
	}
	er.ProposalsRecomputed = int64(recomputed)
	if o != nil {
		s.snap = o.Metrics.Snapshot()
		if got := s.snap.Counters["trace.probes.traceroute"] +
			s.snap.Counters["trace.probes.ping"] +
			s.snap.Counters["trace.probes.fabric_ping"]; got != er.ProbesIssued {
			return s, fmt.Errorf("obs counters book %d probes, engine ledger %d",
				got, er.ProbesIssued)
		}
	}
	return s, nil
}

// peakRSS reports the process's peak resident set in bytes (Linux
// getrusage reports KiB).
func peakRSS() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Maxrss * 1024
}
