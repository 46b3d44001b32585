package main

import (
	"fmt"
	"os"
	"strings"
	"time"
)

// bootLayers records the boot's per-layer metrics: the layered boots'
// direct package calls, the facade boots' own spans, and the cfs.* and
// trace.* metrics of their instrumented Env.
func (r *runner) bootLayers() {
	set := func(name string, v float64, unit string) { r.layer[name] = metric{v, unit} }
	layered := func(f func(layerStats) time.Duration) float64 {
		var xs []float64
		for _, l := range r.layered {
			xs = append(xs, ms(f(l)))
		}
		return median(xs)
	}
	set("world.generate_ms", layered(func(l layerStats) time.Duration { return l.generate }), "ms")
	set("bgp.compute_ms", layered(func(l layerStats) time.Duration { return l.routing }), "ms")
	set("registry.collect_ms", layered(func(l layerStats) time.Duration { return l.collect }), "ms")
	set("experiments.new_env_ms", layered(func(l layerStats) time.Duration { return l.newEnv }), "ms")
	set("experiments.corpus_ms", layered(func(l layerStats) time.Duration { return l.corpus }), "ms")
	set("cfs.run_ms", layered(func(l layerStats) time.Duration { return l.cfsRun }), "ms")

	facade := func(f func(bootStats) float64) float64 {
		var xs []float64
		for _, b := range r.tracedBoots {
			xs = append(xs, f(b))
		}
		return median(xs)
	}
	for _, ph := range []string{"alias_resolve", "constraint", "alias", "followup"} {
		name := "cfs.phase." + ph
		set(name+"_ms", facade(func(b bootStats) float64 { return ms(b.obs.Histograms[name].Sum) }), "ms")
	}
	set("facilitymap.materialize_ms", facade(func(b bootStats) float64 { return ms(b.materialize) }), "ms")
	set("boot.allocs", facade(func(b bootStats) float64 { return float64(b.allocs) }), "count")
	set("boot.alloc_mb", facade(func(b bootStats) float64 { return float64(b.allocBytes) / (1 << 20) }), "MiB")
	set("boot.gc_pause_ms", facade(func(b bootStats) float64 { return ms(b.gcPause) }), "ms")

	// Work counts repeat exactly from boot to boot; report the last and
	// say so if any boot disagreed.
	counts := func(b bootStats) map[string]int64 {
		c := b.obs.Counters
		return map[string]int64{
			"trace.probes":        c["trace.probes.traceroute"] + c["trace.probes.ping"] + c["trace.probes.fabric_ping"],
			"cfs.iterations":      c["cfs.iterations"],
			"cfs.recomputed":      c["cfs.recomputed"],
			"cfs.narrowings":      c["cfs.narrowings"],
			"cfs.followups":       c["cfs.followups"],
			"cfs.new_adjacencies": c["cfs.new_adjacencies"],
		}
	}
	last := counts(r.tracedBoots[len(r.tracedBoots)-1])
	for _, b := range r.tracedBoots {
		for name, v := range counts(b) {
			if v != last[name] {
				fmt.Fprintf(os.Stderr, "e2ebench: warning: %s varied between boots (%d vs %d)\n", name, v, last[name])
			}
		}
	}
	for name, v := range last {
		set(name, float64(v), "count")
	}
	set("cfs.narrowing_yield", ratio(last["cfs.narrowings"], last["cfs.recomputed"]), "ratio")
	set("cfs.followup_yield", ratio(last["cfs.new_adjacencies"], last["cfs.followups"]), "ratio")
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// readLayers records the read path's per-layer metrics from a traced
// read phase: handler spans against client spans, per-route tails,
// serve's cache counters, process allocations, and in-process
// measurements of the serve layer and the facade on the same keys.
func (r *runner) readLayers(d *daemon, seq []request, sts []*readStats) {
	set := func(name string, v float64, unit string) { r.layer[name] = metric{v, unit} }
	spans := r.sp.snapshot()[r.readSpansFrom:]
	handler := make(map[int64]int64)
	var hd []float64
	for _, s := range spans {
		if s.Name == "serve.Handler" {
			handler[s.Req] = s.End - s.Start
			hd = append(hd, us(time.Duration(s.End-s.Start)))
		}
	}
	var loop []float64
	for _, s := range spans {
		if h, ok := handler[s.ID]; ok && strings.HasPrefix(s.Name, "client.") {
			loop = append(loop, us(time.Duration(s.End-s.Start-h)))
		}
	}
	set("serve.handler_p50_us", median(hd), "us")
	set("serve.handler_p99_us", tailOr(hd, 0.99), "us")
	set("http.loopback_p50_us", median(loop), "us")

	all := merged(sts)
	set("read_p99_us", tailOr(all.lat, 0.99), "us")
	var byRoute [nRoutes][]float64
	for i, rt := range all.routes {
		byRoute[rt] = append(byRoute[rt], all.lat[i])
	}
	for rt, xs := range byRoute {
		set("route."+routeNames[rt]+"_p99_us", tailOr(xs, 0.99), "us")
	}

	in := measureInproc(d.sys, seq)
	set("serve.timeout_wrap_ns", in.nsWrapped-in.nsBare, "ns")
	set("serve.timeout_wrap_allocs", in.allocsWrapped-in.allocsBare, "count")
	set("serve.allocs_per_req", in.allocsWrapped, "count")
	fs := measureFacade(d.sys.Current(), seq)
	set("facilitymap.interface_json_ns", fs.interfaceJSONNs, "ns")
	set("facilitymap.interconnections_ns", fs.interconnectionsNs, "ns")
	set("facilitymap.summarize_ns", fs.summarizeNs, "ns")

	c := r.readCounters
	set("serve.cache.hit_ratio", ratio(c["serve.cache.hits"], c["serve.cache.hits"]+c["serve.cache.misses"]), "ratio")
	set("serve.cache.full_drops", float64(c["serve.cache.full_drops"]), "count")
	set("serve.cache.flight_dedup", float64(c["serve.cache.flight_dedup"]), "count")
	set("serve.http.rejected", float64(c["serve.http.rejected"]), "count")
	set("read.allocs_per_req", r.readAllocs, "count")
	set("read.gc_pause_ms", ms(r.readGCPause), "ms")
}
