// Command cfsmap runs the full pipeline — world generation, measurement
// campaigns, Constrained Facility Search — and prints the inferred
// interface-to-facility mapping plus a validation report.
//
// Usage:
//
//	cfsmap [-profile small|medium|default|paper|large] [-seed N]
//	       [-iterations N] [-v] [-limit N] [-unresolved]
//	       [-validate] [-resilience] [-metrics] [-trace-log FILE]
//	       [-pprof ADDR]
//
// -v prints the per-iteration convergence table: resolution progress
// plus the incremental core's work counters (dirty adjacencies,
// recomputed proposals) and wall time.
//
// Observability (strictly one-way: enabling any of these cannot change
// the mapping):
//
//   - -metrics prints the full metric snapshot after the run — probes
//     issued per kind, per-platform usage, CFS work counters and phase
//     timing histograms — on stderr.
//   - -trace-log FILE writes the structured event trace (one JSON
//     object per line: iterations, constraint passes, measurements,
//     campaigns) to FILE.
//   - -pprof ADDR serves net/http/pprof on ADDR (e.g. localhost:6060)
//     for CPU/heap profiling of long runs.
//
// Offline mode runs the same algorithm on real data instead of the
// simulator: a PeeringDB-style JSON dump, a plain-text BGP table
// ("prefix asn" per line) and traceroute transcripts:
//
//	cfsmap -peeringdb dump.json -bgp table.txt -traces campaign.txt
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof"
	"os"
	"time"

	"facilitymap"
	"facilitymap/internal/cfs"
	"facilitymap/internal/delta"
	"facilitymap/internal/ip2asn"
	"facilitymap/internal/obs"
	"facilitymap/internal/registry"
	"facilitymap/internal/resilience"
	"facilitymap/internal/trace"
)

// traceLogCapacity bounds the event ring: enough to keep a full
// default-profile run, cheap enough to sit idle when tracing is off.
const traceLogCapacity = 1 << 17

func main() {
	var (
		profile    = flag.String("profile", "default", "world profile: small, medium, default, paper or large")
		seed       = flag.Int64("seed", 42, "simulation seed")
		iterations = flag.Int("iterations", 100, "CFS iteration cap")
		verbose    = flag.Bool("v", false, "print the per-iteration convergence table (work counters, wall time)")
		limit      = flag.Int("limit", 40, "rows of the mapping to print (0 = all)")
		unresolved = flag.Bool("unresolved", false, "include unresolved interfaces in the listing")
		validate   = flag.Bool("validate", true, "score the mapping against the ground-truth sources")
		resil      = flag.Bool("resilience", false, "print the facility-criticality ranking and top outage simulation")
		why        = flag.String("why", "", "print the evidence behind the inference for one interface address")
		asJSON     = flag.Bool("json", false, "emit the mapping as JSON instead of tables")
		deltasFile = flag.String("deltas", "", "replay a JSONL delta log (see worldgen -churn) after the initial convergence")
		deltaBatch = flag.Int("delta-batch", 25, "deltas applied per epoch when replaying -deltas")

		metrics   = flag.Bool("metrics", false, "print the metric snapshot (probe counts, work counters, phase timings) on stderr after the run")
		traceLog  = flag.String("trace-log", "", "write the structured event trace (JSONL) to this file")
		pprofAddr = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")

		pdbFile    = flag.String("peeringdb", "", "offline: PeeringDB-style JSON dump")
		bgpFile    = flag.String("bgp", "", "offline: BGP table, one \"prefix asn\" per line")
		tracesFile = flag.String("traces", "", "offline: traceroute transcripts")
	)
	flag.Parse()

	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "cfsmap: pprof server: %v\n", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "pprof: serving on http://%s/debug/pprof/\n", *pprofAddr)
	}

	var o *obs.Obs
	if *metrics || *traceLog != "" {
		o = obs.New(traceLogCapacity)
	}

	if *pdbFile != "" || *tracesFile != "" {
		if err := runOffline(*pdbFile, *bgpFile, *tracesFile, *iterations, *limit, *unresolved, *verbose, o); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		flushObservability(o, *metrics, *traceLog)
		return
	}

	sys, err := facilitymap.NewSystem(facilitymap.Config{
		Profile:       *profile,
		Seed:          *seed,
		MaxIterations: *iterations,
		Explain:       *why != "",
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	fmt.Printf("world: %d facilities, %d IXPs, %d ASes — running CFS...\n",
		len(sys.Env.W.Facilities), len(sys.Env.W.IXPs), len(sys.Env.W.ASes))
	if o != nil {
		sys.Env.Instrument(o)
	}

	m := sys.MapInterconnections()
	defer flushObservability(o, *metrics, *traceLog)
	if *deltasFile != "" {
		var err error
		m, err = replayDeltas(sys, *deltasFile, *deltaBatch)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if *asJSON {
		if *verbose {
			printHistory(os.Stderr, m.Result().History) // keep stdout valid JSON
		}
		if err := m.WriteJSON(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if *verbose {
		fmt.Println()
		printHistory(os.Stdout, m.Result().History)
	}
	fmt.Println()
	fmt.Println(m.Summary())

	fmt.Printf("%-16s %-34s %-28s %s\n", "INTERFACE", "OWNER", "FACILITY", "CITY")
	printed := 0
	for _, info := range m.Interfaces() {
		if !info.Resolved && !*unresolved {
			continue
		}
		fac := info.Facility
		if !info.Resolved {
			fac = fmt.Sprintf("(%d candidates)", len(info.Candidate))
		}
		flags := ""
		if info.Remote {
			flags += " [remote]"
		}
		if info.Heuristic {
			flags += " [heuristic]"
		}
		fmt.Printf("%-16s %-34s %-28s %s%s\n", info.IP, info.Owner, fac, info.City, flags)
		printed++
		if *limit > 0 && printed >= *limit {
			fmt.Printf("... (%d more; raise -limit to see them)\n", len(m.Interfaces())-printed)
			break
		}
	}

	if *why != "" {
		info, ok := m.Lookup(*why)
		if !ok {
			fmt.Printf("\nno inference recorded for %s\n", *why)
		} else {
			fmt.Printf("\nevidence for %s (%s):\n", info.IP, info.Owner)
			if len(info.Evidence) == 0 {
				fmt.Println("  (no constraints were applied)")
			}
			for _, ev := range info.Evidence {
				fmt.Printf("  - %s\n", ev)
			}
		}
	}

	if *resil {
		an := resilience.Analyze(sys.Env.DB, m.Result())
		fmt.Println()
		fmt.Println(an.Render(10))
		if rank := an.Ranking(); len(rank) > 0 {
			out := an.SimulateOutage(rank[0].Facility)
			fmt.Printf("outage of %s: %d links lost, %d AS pairs severed, %d degraded\n",
				out.Name, out.LostLinks, len(out.SeveredPairs), out.DegradedPairs)
		}
	}

	if *validate {
		v := m.Validate()
		fmt.Printf("\nvalidation: overall %s (%.1f%%)\n", v.Overall, 100*v.Overall.Frac())
		for src, c := range v.BySource {
			if c.Total > 0 {
				fmt.Printf("  %-18s %s (%.1f%%)\n", src, c, 100*c.Frac())
			}
		}
		if v.CityLevel.Total > 0 {
			fmt.Printf("  %-18s %s (%.1f%%)\n", "city-level", v.CityLevel, 100*v.CityLevel.Frac())
		}
		if v.RemotePeering.Total > 0 {
			fmt.Printf("  %-18s %s (%.1f%%)\n", "remote flags", v.RemotePeering, 100*v.RemotePeering.Frac())
		}
	}
}

// replayDeltas streams a JSONL delta log into the live pipeline in
// fixed-size batches, printing one line per published epoch, and
// returns the final snapshot.
func replayDeltas(sys *facilitymap.System, file string, batch int) (*facilitymap.Mapping, error) {
	f, err := os.Open(file)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	log, err := delta.DecodeJSONL(f)
	if err != nil {
		return nil, err
	}
	if batch <= 0 {
		batch = len(log)
	}
	fmt.Printf("\nreplaying %d deltas in batches of %d\n", len(log), batch)
	fmt.Printf("%-6s %-7s %-9s %-9s %s\n", "EPOCH", "DELTAS", "OBSERVED", "RESOLVED", "FRACTION")
	m := sys.Current()
	for lo := 0; lo < len(log); lo += batch {
		hi := lo + batch
		if hi > len(log) {
			hi = len(log)
		}
		m, err = sys.Apply(log[lo:hi])
		if err != nil {
			return nil, err
		}
		res := m.Result()
		fmt.Printf("%-6d %-7d %-9d %-9d %.1f%%\n",
			m.Epoch(), hi-lo, len(res.Interfaces), res.Resolved(), 100*res.ResolvedFraction())
	}
	return m, nil
}

// flushObservability prints the metric snapshot (stderr, so stdout
// stays a clean mapping or JSON document) and writes the event trace.
func flushObservability(o *obs.Obs, metrics bool, traceLog string) {
	if o == nil {
		return
	}
	if metrics {
		fmt.Fprint(os.Stderr, o.Metrics.Snapshot().Render())
	}
	if traceLog != "" {
		f, err := os.Create(traceLog)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cfsmap: trace log: %v\n", err)
			return
		}
		defer f.Close()
		if err := o.Tracer.WriteJSONL(f); err != nil {
			fmt.Fprintf(os.Stderr, "cfsmap: trace log: %v\n", err)
			return
		}
		if d := o.Tracer.Dropped(); d > 0 {
			fmt.Fprintf(os.Stderr, "cfsmap: trace log: ring overflowed, oldest %d events dropped\n", d)
		}
	}
}

// printHistory renders the per-iteration convergence table: resolution
// progress plus the engine's work counters (dirty adjacencies,
// recomputed proposals), readable without a profiler.
func printHistory(w io.Writer, history []cfs.IterationStats) {
	fmt.Fprintf(w, "%-5s %-9s %-9s %-8s %-8s %-7s %-10s %s\n",
		"ITER", "OBSERVED", "RESOLVED", "FOLLOW", "NEWADJ", "DIRTY", "RECOMPUTED", "WALL")
	for _, h := range history {
		fmt.Fprintf(w, "%-5d %-9d %-9d %-8d %-8d %-7d %-10d %v\n",
			h.Iteration, h.Observed, h.Resolved, h.FollowUps, h.NewAdjs,
			h.DirtyAdjs, h.Recomputed, h.WallTime.Round(time.Microsecond))
	}
}

// runOffline executes CFS over externally-supplied data: registry dump,
// BGP table and traceroute transcripts. Alias resolution, remote-peering
// detection and targeted follow-ups need live measurement access and are
// disabled; steps 1-2 plus the §4.3/§4.4 placements still run.
func runOffline(pdbFile, bgpFile, tracesFile string, iterations, limit int, unresolved, verbose bool, o *obs.Obs) error {
	if pdbFile == "" || tracesFile == "" {
		return fmt.Errorf("offline mode needs both -peeringdb and -traces")
	}
	pdb, err := os.Open(pdbFile)
	if err != nil {
		return err
	}
	defer pdb.Close()
	db, _, err := registry.FromPeeringDB(pdb)
	if err != nil {
		return err
	}
	var svcIPASN *ip2asn.Service
	if bgpFile != "" {
		f, err := os.Open(bgpFile)
		if err != nil {
			return err
		}
		defer f.Close()
		entries, err := ip2asn.ParseTable(f)
		if err != nil {
			return err
		}
		svcIPASN = ip2asn.FromTable(entries)
	} else {
		svcIPASN = ip2asn.FromTable(nil) // netixlan port records only
	}
	tf, err := os.Open(tracesFile)
	if err != nil {
		return err
	}
	defer tf.Close()
	paths, err := trace.Parse(tf)
	if err != nil {
		return err
	}
	fmt.Printf("offline: %d facilities, %d exchanges, %d traceroutes\n",
		len(db.Facilities), len(db.IXPs), len(paths))

	cfg := cfs.DefaultConfig()
	cfg.MaxIterations = iterations
	cfg.UseTargeted = false
	cfg.UseAliasResolution = false
	cfg.UseRemoteDetection = false
	cfg.Obs = o
	p, err := cfs.New(cfg, db, svcIPASN, nil, nil, nil)
	if err != nil {
		return err
	}
	res := p.Run(paths)

	if verbose {
		printHistory(os.Stdout, res.History)
		fmt.Println()
	}
	fmt.Printf("interfaces observed: %d, resolved: %d (%.1f%%)\n\n",
		len(res.Interfaces), res.Resolved(), 100*res.ResolvedFraction())
	fmt.Printf("%-16s %-12s %-30s %s\n", "INTERFACE", "OWNER", "FACILITY", "CANDIDATES")
	printed := 0
	for ip, ir := range res.Interfaces {
		if !ir.Resolved && !unresolved {
			continue
		}
		fac := ""
		if ir.Resolved {
			if rec, ok := db.Facilities[ir.Facility]; ok {
				fac = rec.Name
			}
		}
		fmt.Printf("%-16s %-12v %-30s %d\n", ip, ir.Owner, fac, len(ir.Candidates))
		printed++
		if limit > 0 && printed >= limit {
			break
		}
	}
	return nil
}
