// Command e2ebench is the repository's end-to-end benchmark. It runs
// one named workload on the medium world against cfsd's code path —
// serve.New over a facilitymap.System, mounted on a real loopback
// http.Server with srv.Run as the writer loop — checks the outputs, and
// prints the result as one JSON line:
//
//	e2ebench -workload boot|read|churn -seed N -seconds S -trace 0|1
//
// Workloads:
//
//	boot   repeated fresh boots (NewSystem → MapInterconnections →
//	       Materialize); nothing is served while they are timed
//	read   two closed-loop connections reading the mix, with no writes
//	       while reads are timed
//	churn  one closed-loop reader plus one writer POSTing a
//	       single-record delta batch every 200 ms
//
// With -trace 0 the result carries the end-to-end metrics, and every
// workload reports all of them. Metrics a workload's own phase lacks
// come from short probes on the same daemon: boot serves its set-up
// boot and reads it (readProbe) for the read metrics; boot and read
// post a fixed list of batches on the write schedule (writeProbe) for
// the freshness metrics; read and churn take boot_s from their set-up
// boots plus one boot per round. A run alternates its own phase with
// the probes in rounds, so each metric samples the whole run. With
// -trace 1 the run is a separate traced run: it records spans around
// every call into a layer, reads the obs metrics the program already
// exports, writes the spans under -out/spans, and reports the
// per-layer metrics instead; the last round is the traced one.
//
// Set-up time is the median of three cold set-ups: two in child
// processes of this binary (-setup-child) and the run's own.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
	"syscall"
	"time"

	"facilitymap"
	"facilitymap/internal/delta"
	"facilitymap/internal/obs"
	"facilitymap/internal/stats"
)

const (
	// loadConns is the number of load connections every workload opens;
	// the generator refuses to run on fewer CPUs.
	loadConns = 2
	// childSetups is how many cold set-ups run in child processes; with
	// the run's own, setup_s is the median of childSetups+1.
	childSetups = 2
	// rounds is how many times a run alternates between its workload's
	// own phase and the probes, so every metric's samples spread over
	// the whole run instead of one window of it: a slow spell of the
	// shared machine then shifts every metric a little rather than one
	// metric a lot.
	rounds = 3
	// warmup fills the epoch cache before the first read phase; rewarm
	// refills it after a write phase has dropped it.
	warmup = time.Second
	rewarm = 500 * time.Millisecond
	// readProbe is the read-only time, over all rounds, that supplies
	// the boot workload's read metrics.
	readProbe = 4 * time.Second
	// writeProbe is the paced-write time, over all rounds, that
	// supplies the freshness metrics of the boot and read workloads.
	writeProbe = 12 * time.Second
)

func main() {
	var (
		workload = flag.String("workload", "", "boot, read or churn")
		seed     = flag.Int64("seed", 1, "seed for the generated traffic: read keys and order, churn records")
		seconds  = flag.Int("seconds", 15, "length of the measured phase, in seconds")
		trace    = flag.Int("trace", 0, "1 makes this the traced run: per-layer metrics and span files")
		out      = flag.String("out", ".bench_build", "directory for span files")
		child    = flag.Bool("setup-child", false, "run one cold set-up of -workload and report it (used by the benchmark itself)")
	)
	flag.Parse()
	switch *workload {
	case "boot", "read", "churn":
	default:
		fatal(fmt.Errorf("unknown -workload %q (want boot, read or churn)", *workload))
	}
	if *child {
		if err := setupChild(*workload); err != nil {
			fatal(err)
		}
		return
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 {
		fatal(fmt.Errorf("need -seconds >= 1 and -trace 0 or 1"))
	}
	if n := runtime.NumCPU(); n < loadConns {
		fatal(fmt.Errorf("the workloads open %d load connections but only %d CPUs are available", loadConns, n))
	}
	r := &runner{
		workload: *workload,
		seed:     *seed,
		dur:      time.Duration(*seconds) * time.Second,
		traced:   *trace == 1,
		out:      *out,
		e2e:      make(map[string]metric),
	}
	if r.traced {
		r.sp = newSpanLog()
		r.layer = make(map[string]metric)
	}
	res, err := r.run()
	if err != nil {
		fatal(err)
	}
	for _, name := range sortedKeys(res.Metrics) {
		fmt.Fprintf(os.Stderr, "%-34s %14.4f %s\n", name, res.Metrics[name].Value, res.Metrics[name].Unit)
	}
	envLine, err := json.Marshal(map[string]any{"env": r.env})
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(envLine))
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "e2ebench:", err)
	os.Exit(2)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// setupReport is one cold set-up, as a child process reports it.
type setupReport struct {
	SetupS float64 `json:"setup_s"`
	BootS  float64 `json:"boot_s"`
	Digest string  `json:"digest"`
}

// setupChild runs one cold set-up of workload in this fresh process:
// a boot, and for read and churn the daemon until it answers.
func setupChild(workload string) error {
	start := time.Now()
	sys, m, st, err := boot(nil, nil)
	if err != nil {
		return err
	}
	if workload != "boot" {
		d, err := serveSystem(sys, nil)
		if err != nil {
			return err
		}
		defer d.stop()
	}
	rep := setupReport{SetupS: time.Since(start).Seconds(), BootS: st.total.Seconds(), Digest: digest(m)}
	return json.NewEncoder(os.Stdout).Encode(rep)
}

// runner carries one run's settings, checks and findings.
type runner struct {
	workload string
	seed     int64
	dur      time.Duration
	traced   bool
	out      string
	sp       *spanLog // traced runs only

	chk       *checker
	dials     atomic.Int64
	attempted int64

	e2e   map[string]metric
	layer map[string]metric
	env   map[string]any

	ref    string    // digest of the run's epoch-0 snapshot
	setups []float64 // set-up seconds
	boots  []float64 // untraced boot seconds
	peakMB float64

	// The read windows whose samples give the read metrics, and the
	// write list with its next unsent batch and the phases that sent.
	reads   [][]*readStats
	batches [][]delta.Delta
	bodies  [][]byte
	next    int
	writes  []*churnPhase

	// Traced runs: facade boots with their obs snapshots, layered
	// boots, and what tracedReads saw around the traced read phase.
	tracedBoots   []bootStats
	layered       []layerStats
	readSpansFrom int
	readCounters  map[string]int64
	readAllocs    float64
	readGCPause   time.Duration
}

// childSetups runs n cold set-ups, each in a child process of this
// binary, and checks each one's snapshot digest against ref.
func (r *runner) childSetups(n int) ([]setupReport, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var reps []setupReport
	for i := 0; i < n; i++ {
		cmd := exec.Command(exe, "-setup-child", "-workload", r.workload)
		cmd.Stderr = os.Stderr
		raw, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("set-up child: %w", err)
		}
		var rep setupReport
		if err := json.Unmarshal(raw, &rep); err != nil {
			return nil, fmt.Errorf("set-up child report %q: %w", raw, err)
		}
		reps = append(reps, rep)
	}
	return reps, nil
}

// recordSetups folds the children's set-ups and the run's own into the
// set-up and boot samples and checks every set-up booted the run's
// snapshot.
func (r *runner) recordSetups(kids []setupReport, own time.Duration, ownBoot time.Duration) {
	r.setups = append(r.setups, own.Seconds())
	r.boots = append(r.boots, ownBoot.Seconds())
	for i, k := range kids {
		r.setups = append(r.setups, k.SetupS)
		r.boots = append(r.boots, k.BootS)
		r.attempted++
		if k.Digest != r.ref {
			r.chk.fail("set-up child %d booted digest %s, this process %s", i, k.Digest, r.ref)
		}
	}
}

// peakRSS records the process's peak resident set so far.
func (r *runner) peakRSS() {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		r.peakMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
}

func (r *runner) trace(on bool) {
	if r.sp != nil {
		r.sp.on.Store(on)
	}
}

// run executes the workload and assembles the result.
func (r *runner) run() (*result, error) {
	r.env = map[string]any{
		"num_cpu": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go_version": runtime.Version(),
		"profile": profile, "world_seed": worldSeed, "seed": r.seed, "workload": r.workload, "seconds": r.dur.Seconds(),
		"trace": r.traced, "read_mix": mixShares(), "write_interval_ms": ms(writeInterval),
		"load_connections": loadConns,
	}
	var err error
	switch r.workload {
	case "boot":
		err = r.runBoot()
	case "read":
		err = r.runRead()
	case "churn":
		err = r.runChurn()
	}
	if err != nil {
		return nil, err
	}
	r.e2e["setup_s"] = metric{median(r.setups), "s"}
	r.e2e["boot_s"] = metric{median(r.boots), "s"}
	r.e2e["peak_rss_mb"] = metric{r.peakMB, "MiB"}
	if d := r.dials.Load(); d > loadConns {
		fmt.Fprintf(os.Stderr, "e2ebench: warning: %d load dials for %d load connections (reconnects)\n", d, loadConns)
	}
	r.env["load_dials"] = r.dials.Load()
	r.env["setup_samples_s"] = r.setups
	r.env["boot_samples_s"] = r.boots
	r.env["deep_checks"], r.env["deep_checks_skipped"] = r.chk.deep, r.chk.skipped
	for _, f := range r.chk.failures {
		fmt.Fprintln(os.Stderr, "e2ebench: CHECK FAILED:", f)
	}
	for _, e := range r.chk.errs {
		fmt.Fprintln(os.Stderr, "e2ebench: operation failed:", e)
	}
	res := &result{
		Correct:   r.chk.nFail == 0,
		Attempted: r.attempted,
		Failed:    r.chk.nErr + r.chk.nFail,
		Metrics:   r.e2e,
	}
	if r.traced {
		res.Metrics = r.layer
		dir := filepath.Join(r.out, "spans")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.ndjson.gz", r.workload, r.seed))
		if err := writeSpans(path, r.sp.snapshot()); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		r.env["spans_file"] = path
	}
	return res, nil
}

// startDaemon is the run's own cold set-up for read and churn: boot,
// then serve until the daemon answers. Traced runs instrument the Env
// and record the boot's spans.
func (r *runner) startDaemon() (*daemon, time.Duration, bootStats, error) {
	var envObs *obs.Obs
	if r.traced {
		envObs = obs.New(0)
	}
	r.trace(true)
	start := time.Now()
	sys, _, st, err := boot(r.sp, envObs)
	if err != nil {
		return nil, 0, st, err
	}
	d, err := serveSystem(sys, r.sp)
	setup := time.Since(start)
	r.trace(false)
	if err != nil {
		return nil, 0, st, err
	}
	if r.traced {
		r.tracedBoots = append(r.tracedBoots, st)
	}
	return d, setup, st, nil
}

// quality records the boot snapshot's deterministic outputs, off the
// clock.
func (r *runner) quality(m *facilitymap.Mapping) {
	r.e2e["resolved_frac"] = metric{m.Result().ResolvedFraction(), "ratio"}
	r.e2e["accuracy_pct"] = metric{accuracyPct(m), "%"}
}

// loadReaders returns the run's closed-loop readers over seq, each on
// its own load connection and starting at its own offset.
func (r *runner) loadReaders(d *daemon, seq []request, n int) []*reader {
	out := make([]*reader, n)
	for i := range out {
		out[i] = &reader{client: loadClient(&r.dials), base: d.base, seq: seq,
			next: i * len(seq) / n, chk: r.chk, sp: r.sp}
	}
	return out
}

// mix builds the read mix over the daemon's boot snapshot.
func (r *runner) mix(m *facilitymap.Mapping) ([]request, error) {
	ks, err := buildKeys(m, r.seed)
	if err != nil {
		return nil, err
	}
	r.env["working_set_keys"] = len(ks.known) + len(ks.absent) + len(ks.pairs) + len(ks.bodies) + 1
	return buildSequence(ks, r.seed, seqLen), nil
}

func (r *runner) runBoot() error {
	kids, err := r.childSetups(childSetups)
	if err != nil {
		return err
	}
	r.chk = &checker{}
	// The run's own cold boot doubles as the warm-up, and stays up as
	// the daemon the probes read and write.
	sys, m, st, err := boot(nil, nil)
	if err != nil {
		return err
	}
	r.ref = digest(m)
	r.recordSetups(kids, st.total, st.total)
	r.boots = r.boots[:0] // boot_s is the measured boots here
	r.quality(m)
	r.chk.sys = sys
	d, err := serveSystem(sys, r.sp)
	if err != nil {
		return err
	}
	rds, err := r.prepare(d, m, worldSeed, writeProbe)
	if err != nil {
		return err
	}

	var tracedS []float64
	for round := 0; round < rounds; round++ {
		deadline := time.Now().Add(r.dur / rounds)
		for i := 0; i < 1 || time.Now().Before(deadline); i++ {
			runtime.GC()
			_, m, st, err := boot(nil, nil)
			if err != nil {
				d.stop()
				return err
			}
			r.boots = append(r.boots, st.total.Seconds())
			r.checkBoot(m)
			if !r.traced {
				continue
			}
			runtime.GC()
			r.trace(true)
			_, m, st, err = boot(r.sp, obs.New(0))
			r.trace(false)
			if err != nil {
				d.stop()
				return err
			}
			tracedS = append(tracedS, st.total.Seconds())
			r.tracedBoots = append(r.tracedBoots, st)
			r.checkBoot(m)
			runtime.GC()
			r.trace(true)
			r.layered = append(r.layered, layeredBoot(r.sp))
			r.trace(false)
		}
		r.readRound(d, rds, readProbe/rounds, r.traced && round == rounds-1)
		if err := r.writeRound(d, rds, writeProbe/rounds, false, false); err != nil {
			return err
		}
	}
	if r.traced {
		r.bootLayers()
		r.layer["trace_overhead_x"] = metric{median(tracedS) / median(r.boots), "x"}
	}
	return r.finish(d)
}

// checkBoot compares one boot's digest with the run's first.
func (r *runner) checkBoot(m *facilitymap.Mapping) {
	r.attempted++
	if got := digest(m); got != r.ref {
		r.chk.fail("boot digest %s differs from the first boot's %s", got, r.ref)
	}
}

// roundBoot is the one boot each round of the read and churn workloads
// adds to their set-up boots for boot_s; the daemon is idle meanwhile.
func (r *runner) roundBoot() error {
	runtime.GC()
	_, m, st, err := boot(nil, nil)
	if err != nil {
		return err
	}
	r.boots = append(r.boots, st.total.Seconds())
	r.checkBoot(m)
	return nil
}

// prepare draws the read mix over the boot snapshot m and the write
// list for dur of paced writes, opens the load connections and fills
// the cache.
func (r *runner) prepare(d *daemon, m *facilitymap.Mapping, writeSeed int64, dur time.Duration) ([]*reader, error) {
	seq, err := r.mix(m)
	if err == nil {
		r.batches, r.bodies, err = churnBatches(d.sys, int(dur/writeInterval)+rounds+1, writeSeed)
	}
	if err != nil {
		d.stop()
		return nil, err
	}
	rds := r.loadReaders(d, seq, loadConns)
	r.tally(readFor(rds, warmup))
	return rds, nil
}

// readRound refills the cache, then reads on every connection for dur.
// An untraced window counts toward the read metrics; the traced one
// gives the read layers instead, and is returned.
func (r *runner) readRound(d *daemon, rds []*reader, dur time.Duration, traced bool) []*readStats {
	r.tally(readFor(rds, rewarm))
	runtime.GC()
	if !traced {
		r.reads = append(r.reads, r.tally(readFor(rds, dur)))
		return nil
	}
	sts := r.tally(r.tracedReads(d, func() []*readStats { return readFor(rds, dur) }))
	r.readLayers(d, rds[0].seq, sts)
	return sts
}

// writeRound posts the next batches on the write schedule for dur, one
// connection reading throughout. For churn its reads count toward the
// read metrics; traced, it gives the read layers instead.
func (r *runner) writeRound(d *daemon, rds []*reader, dur time.Duration, countReads, traced bool) error {
	runtime.GC()
	var ph *churnPhase
	var err error
	run := func() []*readStats {
		ph, err = runChurn(d, rds[0], rds[1].client, r.batches, r.bodies, r.next, dur, r.chk)
		if err != nil {
			return nil
		}
		return []*readStats{ph.reads}
	}
	if traced {
		sts := r.tracedReads(d, run)
		if err == nil {
			r.readLayers(d, rds[0].seq, sts)
		}
	} else {
		run()
	}
	if err != nil {
		d.stop()
		return err
	}
	r.tally([]*readStats{ph.reads})
	r.attempted += int64(len(ph.writes))
	r.next += len(ph.writes)
	r.writes = append(r.writes, ph)
	if countReads && !traced {
		r.reads = append(r.reads, []*readStats{ph.reads})
	}
	return nil
}

func (r *runner) runRead() error {
	d, m, err := r.daemonSetup()
	if err != nil {
		return err
	}
	rds, err := r.prepare(d, m, worldSeed, writeProbe)
	if err != nil {
		return err
	}
	for round := 0; round < rounds; round++ {
		if sts := r.readRound(d, rds, r.dur/rounds, r.traced && round == rounds-1); sts != nil {
			r.layer["trace_overhead_x"] = metric{median(merged(sts).lat) / median(pooled(r.reads).lat), "x"}
		}
		if err := r.writeRound(d, rds, writeProbe/rounds, false, false); err != nil {
			return err
		}
		if err := r.roundBoot(); err != nil {
			d.stop()
			return err
		}
	}
	return r.finish(d)
}

func (r *runner) runChurn() error {
	d, m, err := r.daemonSetup()
	if err != nil {
		return err
	}
	rds, err := r.prepare(d, m, r.seed, r.dur)
	if err != nil {
		return err
	}
	for round := 0; round < rounds; round++ {
		traced := r.traced && round == rounds-1
		if err := r.writeRound(d, rds, r.dur/rounds, true, traced); err != nil {
			return err
		}
		if traced {
			last := r.writes[len(r.writes)-1].writes
			var before []write
			for _, ph := range r.writes[:len(r.writes)-1] {
				before = append(before, ph.writes...)
			}
			r.layer["trace_overhead_x"] = metric{
				median(freshness(last, true)) / median(freshness(before, true)), "x"}
		}
		if err := r.roundBoot(); err != nil {
			d.stop()
			return err
		}
	}
	return r.finish(d)
}

// daemonSetup is the read and churn set-up: two cold set-ups in child
// processes, then the run's own daemon and the snapshot checks. It
// returns the daemon with its boot snapshot.
func (r *runner) daemonSetup() (*daemon, *facilitymap.Mapping, error) {
	kids, err := r.childSetups(childSetups)
	if err != nil {
		return nil, nil, err
	}
	d, setup, st, err := r.startDaemon()
	if err != nil {
		return nil, nil, err
	}
	m := d.sys.Current()
	r.chk = &checker{sys: d.sys}
	r.ref = digest(m)
	r.recordSetups(kids, setup, st.total)
	r.quality(m)
	if r.traced {
		runtime.GC()
		r.trace(true)
		r.layered = append(r.layered, layeredBoot(r.sp))
		r.trace(false)
		r.bootLayers()
	}
	return d, m, nil
}

// finish ends every workload: the peak resident set of the measured
// part, the write-path checks and metrics, and the read metrics.
func (r *runner) finish(d *daemon) error {
	r.peakRSS()
	if err := r.finishChurn(d); err != nil {
		return err
	}
	if !r.traced {
		r.readE2E()
	}
	return nil
}

// tracedReads runs phase with span recording on, reading serve's cache
// counters and the process's allocations around it.
func (r *runner) tracedReads(d *daemon, phase func() []*readStats) []*readStats {
	names := []string{"serve.cache.hits", "serve.cache.misses", "serve.cache.full_drops",
		"serve.cache.flight_dedup", "serve.http.rejected"}
	before := make(map[string]int64)
	for _, n := range names {
		before[n] = d.counter(n)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	r.sp.mu.Lock()
	r.readSpansFrom = len(r.sp.spans)
	r.sp.mu.Unlock()
	r.trace(true)
	sts := phase()
	r.trace(false)
	runtime.ReadMemStats(&m1)
	r.readCounters = make(map[string]int64)
	for _, n := range names {
		r.readCounters[n] = d.counter(n) - before[n]
	}
	var reqs int64
	for _, st := range sts {
		reqs += st.attempted()
	}
	r.readAllocs = float64(m1.Mallocs-m0.Mallocs) / float64(max(reqs, 1))
	r.readGCPause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
	return sts
}

// tally counts a read phase's operations toward the result; the
// checker counts the ones that failed.
func (r *runner) tally(sts []*readStats) []*readStats {
	for _, st := range sts {
		r.attempted += st.attempted()
	}
	return sts
}

// readE2E records the read metrics of the run's read windows.
func (r *runner) readE2E() {
	all := pooled(r.reads)
	r.e2e["read_qps"] = metric{qps(r.reads), "req/s"}
	r.e2e["read_p50_us"] = metric{median(all.lat), "us"}
	// The tail is recorded here but gated only as a traced-run layer:
	// under churn it falls on the boundary between reads that overlap a
	// re-ingest and reads that do not, and flips between them run to run.
	p99, used, _ := percentile(all.lat, 0.99)
	r.env["read_p99_us"], r.env["read_p99_percentile_used"] = p99, used
	r.env["read_samples"] = len(all.lat)
}

// freshness returns due→visible times, in ms, of the writes of one
// kind that became visible, leaving out writes sent behind schedule.
func freshness(ws []write, surgicalKind bool) []float64 {
	var out []float64
	for _, w := range ws {
		if w.surgical == surgicalKind && !w.visible.IsZero() && !w.behind() {
			out = append(out, ms(w.visible.Sub(w.due)))
		}
	}
	return out
}

// finishChurn stops the daemon, replays the batches it applied into a
// fresh System and checks both end on the same snapshot, then records
// the freshness metrics (untraced) or the write-path layers (traced).
func (r *runner) finishChurn(d *daemon) error {
	var ws []write
	var gaps []float64
	behind := 0
	for _, ph := range r.writes {
		ws = append(ws, ph.writes...)
		gaps = append(gaps, ph.reads.gaps()...)
	}
	for _, w := range ws {
		if w.behind() {
			behind++
		}
	}
	final := digest(d.sys.Current())
	if err := d.stop(); err != nil {
		return fmt.Errorf("stopping the daemon: %w", err)
	}
	d.sys = nil
	r.chk.sys = nil
	runtime.GC()

	var envObs *obs.Obs
	if r.traced {
		envObs = obs.New(0)
		r.trace(true)
	}
	got, reps, err := replay(r.batches[:len(ws)], r.sp, envObs)
	r.trace(false)
	if err != nil {
		return err
	}
	r.attempted++
	if got != final {
		r.chk.fail("daemon's final snapshot %s differs from the direct replay's %s", final, got)
	}

	late := make([]float64, len(ws))
	for i, w := range ws {
		late[i] = us(w.sent.Sub(w.due))
	}
	surg, rein := freshness(ws, true), freshness(ws, false)
	r.env["write_late_p99_us"] = tailOr(late, 0.99)
	r.env["read_gap_p99_us"] = tailOr(gaps, 0.99)
	r.env["fresh_surgical_n"], r.env["fresh_reingest_n"] = len(surg), len(rein)
	r.env["fresh_surgical_samples_ms"], r.env["fresh_reingest_samples_ms"] = surg, rein
	r.env["writes_behind_schedule"] = behind
	if behind > 0 {
		fmt.Fprintf(os.Stderr, "e2ebench: warning: %d writes went out more than an interval late; their freshness is left out\n", behind)
	}
	if len(surg) == 0 || len(rein) == 0 {
		return fmt.Errorf("churn: %d surgical and %d re-ingest batches became visible; need both", len(surg), len(rein))
	}
	if !r.traced {
		r.e2e["fresh_surgical_ms"] = metric{median(surg), "ms"}
		r.e2e["fresh_reingest_ms"] = metric{median(rein), "ms"}
		return nil
	}

	var applyS, applyR, mat, over, before, redirty, recomputed []float64
	var ackS, ackR []float64
	for i, w := range ws {
		rp := reps[i]
		ack := w.ack.Sub(w.sent)
		if w.surgical {
			applyS = append(applyS, ms(rp.apply))
			ackS = append(ackS, ms(ack))
			redirty = append(redirty, float64(rp.redirtied))
			recomputed = append(recomputed, float64(rp.recomputed))
		} else {
			applyR = append(applyR, ms(rp.apply))
			ackR = append(ackR, ms(ack))
		}
		mat = append(mat, ms(rp.materialize))
		over = append(over, ms(ack-rp.apply-rp.materialize))
		if !w.visible.IsZero() {
			before = append(before, ms(w.ack.Sub(w.visible)))
		}
	}
	set := func(name string, v float64, unit string) { r.layer[name] = metric{v, unit} }
	set("cfs.apply_surgical_ms", median(applyS), "ms")
	set("cfs.apply_reingest_ms", median(applyR), "ms")
	set("facilitymap.materialize_epoch_ms", median(mat), "ms")
	set("serve.deltas.ack_surgical_ms", median(ackS), "ms")
	set("serve.deltas.ack_reingest_ms", median(ackR), "ms")
	set("serve.writer.overhead_ms", median(over), "ms")
	set("serve.visible_before_ack_ms", median(before), "ms")
	set("cfs.delta.redirtied", stats.Mean(redirty), "count")
	set("cfs.delta.recomputed", stats.Mean(recomputed), "count")
	set("fresh_surgical_p90_ms", tailOr(surg, 0.9), "ms")
	set("fresh_reingest_p90_ms", tailOr(rein, 0.9), "ms")
	set("fresh_surgical_n", float64(len(surg)), "count")
	set("fresh_reingest_n", float64(len(rein)), "count")
	set("loadgen.write_late_p99_us", tailOr(late, 0.99), "us")
	set("loadgen.read_gap_p99_us", tailOr(gaps, 0.99), "us")
	return nil
}
