package cfs

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"facilitymap/internal/alias"
	"facilitymap/internal/delta"
	"facilitymap/internal/netaddr"
	"facilitymap/internal/world"
)

// churnCase is one world and provenance setting a churn stream runs in.
type churnCase struct {
	name    string
	wcfg    world.Config
	seed    int64
	explain bool
	slow    bool // skipped under -short
}

func churnCases() []churnCase {
	var out []churnCase
	for _, w := range []struct {
		name string
		wcfg world.Config
	}{{"small", world.Small()}, {"medium", world.Medium()}} {
		for _, explain := range []bool{false, true} {
			out = append(out, churnCase{fmt.Sprintf("%s/explain=%v", w.name, explain), w.wcfg, 42, explain, w.name == "medium"})
		}
	}
	return out
}

// runChurn boots a pipeline at cfsd's defaults (DefaultConfig: five
// alias rounds, targeted follow-ups on) and applies n churn records
// one per batch, every fourth batch an empty heartbeat instead. before
// runs ahead of each batch; after runs once its epoch is published,
// with the Result of the epoch before it.
func runChurn(t *testing.T, tc churnCase, n int,
	before func(p *Pipeline, prev *Result),
	after func(p *Pipeline, batch []delta.Delta, prev, res *Result)) {
	t.Helper()
	if tc.slow && testing.Short() {
		t.Skip("medium-world churn stream is slow")
	}
	env := buildDeltaEnv(t, tc.wcfg, tc.seed)
	cfg := DefaultConfig()
	cfg.TraceProvenance = tc.explain
	p := mustNew(t, cfg, env.db, env.ipasn, env.svc, env.det, env.prober)
	prev := p.RunObservations(copyObs(env.corpus))

	log, _ := delta.Churn(env.w, n, 11)
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
		if before != nil {
			before(p, prev)
		}
		res, err := p.ApplyDelta(batch)
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		after(p, batch, prev, res)
		prev = res
	}
	if len(kinds) != 3 {
		t.Fatalf("stream lacks a batch class: %v", kinds)
	}
}

// TestDeltaCarriedMatchesAssembled holds the carried-forward Result of
// every surgical epoch to the full build over the same state: assemble
// plus both post-passes, field for field. Records and links outside
// the reported change set must be the predecessor's own pointers, no
// owner and no link endpoint may move, and the drain's last History
// row, counted from tallies, must equal a scan of the whole pool. A
// re-ingestion epoch reports no change set.
func TestDeltaCarriedMatchesAssembled(t *testing.T) {
	for _, tc := range churnCases() {
		t.Run(tc.name, func(t *testing.T) {
			carried := 0
			runChurn(t, tc, 28, nil, func(p *Pipeline, batch []delta.Delta, prev, res *Result) {
				label := fmt.Sprintf("epoch %d", res.Epoch)
				ips, links, ok := res.Changed()
				if !delta.Surgical(batch) {
					if ok {
						t.Fatalf("%s: a re-ingestion epoch reported a change set", label)
					}
					return
				}
				if !ok {
					t.Fatalf("%s: a surgical epoch reported no change set", label)
				}
				carried++
				st := p.st
				full := st.assemble(res.History)
				placed := make(map[netaddr.IP]placement)
				p.applyFarEnd(st, full, placed)
				if p.cfg.UseProximity {
					p.applyProximity(st, full, placed)
				}
				full.Epoch = res.Epoch
				requireEqualResults(t, label, res, full)
				if got, want := res.Census(), full.computeCensus(); got != want {
					t.Fatalf("%s: carried census %+v, computed %+v", label, got, want)
				}

				inIPs := make(map[netaddr.IP]bool, len(ips))
				for _, ip := range ips {
					inIPs[ip] = true
				}
				for ip, ir := range res.Interfaces {
					old := prev.Interfaces[ip]
					if old == nil {
						t.Fatalf("%s: interface %v is new", label, ip)
					}
					if ir.Owner != old.Owner {
						t.Fatalf("%s: owner of %v moved %v -> %v", label, ip, old.Owner, ir.Owner)
					}
					if !inIPs[ip] && ir != old {
						t.Fatalf("%s: unchanged record %v is not the predecessor's", label, ip)
					}
					if !inIPs[ip] && res.Provenance != nil && !sameBacking(res.Provenance[ip], prev.Provenance[ip]) {
						t.Fatalf("%s: unchanged provenance of %v is not the predecessor's", label, ip)
					}
				}
				inLinks := make(map[int]bool, len(links))
				for _, i := range links {
					inLinks[i] = true
				}
				for i, l := range res.Links {
					old := prev.Links[i]
					if l.Near != old.Near || l.Public != old.Public || l.IXP != old.IXP || l.FarPort != old.FarPort || l.Far != old.Far {
						t.Fatalf("%s: link %d moved its endpoints: %+v -> %+v", label, i, *old, *l)
					}
					if !inLinks[i] && l != old {
						t.Fatalf("%s: unchanged link %d is not the predecessor's", label, i)
					}
				}
				if !slices.IsSorted(ips) || !slices.IsSorted(links) {
					t.Fatalf("%s: change set not in ascending order", label)
				}

				last := res.History[len(res.History)-1]
				scan := st.stats(last.Iteration, st.tally(st.pool))
				if last.Observed != scan.Observed || last.Resolved != scan.Resolved ||
					last.CityOnly != scan.CityOnly || last.RemoteSeen != scan.RemoteSeen ||
					last.Conflicts != scan.Conflicts {
					t.Fatalf("%s: last History row %+v, pool scan %+v", label, last, scan)
				}
			})
			if carried == 0 {
				t.Fatal("no surgical epoch in the stream")
			}
		})
	}
}

// sameBacking reports whether a and b are one slice value (or both
// empty).
func sameBacking(a, b []string) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// TestDeltaNarrowsOnlyTouched pins what the carry-forward rests on: a
// surgical drain changes no candidate set and no remote flag outside
// its touched set, and a facility edit to an AS touches every pool
// interface the AS owns (so MissingFacilityData can be kept per
// touched interface).
func TestDeltaNarrowsOnlyTouched(t *testing.T) {
	for _, tc := range churnCases() {
		if tc.explain {
			continue // provenance does not steer the drain
		}
		t.Run(tc.name, func(t *testing.T) {
			var cand map[netaddr.IP]facset
			var remote map[netaddr.IP]bool
			runChurn(t, tc, 40, func(p *Pipeline, _ *Result) {
				cand = make(map[netaddr.IP]facset, len(p.st.pool))
				remote = make(map[netaddr.IP]bool, len(p.st.pool))
				for _, ip := range p.st.pool {
					cand[ip] = p.st.cand[ip].clone()
					remote[ip] = p.st.remoteIface[ip]
				}
			}, func(p *Pipeline, batch []delta.Delta, prev, res *Result) {
				if !delta.Surgical(batch) {
					return
				}
				st := p.st
				touched := make(map[netaddr.IP]bool)
				for _, ip := range res.changed.touched {
					touched[ip] = true
				}
				for _, ip := range st.pool {
					if touched[ip] {
						continue
					}
					if !slices.Equal(cand[ip], st.cand[ip]) || remote[ip] != st.remoteIface[ip] {
						t.Fatalf("epoch %d: the drain changed %v, which it did not touch", res.Epoch, ip)
					}
				}
				for _, d := range batch {
					if d.Kind != delta.ASFacilityAdd && d.Kind != delta.ASFacilityRemove {
						continue
					}
					for _, ip := range st.pool {
						if o, _ := st.ownerOf(ip); o == d.AS && !touched[ip] {
							t.Fatalf("epoch %d: %v edits %v, whose interface %v was not touched", res.Epoch, d, d.AS, ip)
						}
					}
				}
			})
		})
	}
}

// TestDeltaEpochsNeverMutated: a published Result is never written
// again. Epoch n must be deep-equal before and after epoch n+1
// publishes, whatever kind of batch n+1 applies, and at the end of the
// stream every epoch must still equal the copy taken when it was
// published: a surgical epoch shares records with epochs further back
// than its predecessor. No published link or provenance list may be
// the live state's own, which later epochs rewrite in place. The
// stream's re-ingestions replay the alias prober's memo, so epochs
// share one alias Sets, which nothing may write through either.
func TestDeltaEpochsNeverMutated(t *testing.T) {
	for _, tc := range churnCases() {
		t.Run(tc.name, func(t *testing.T) {
			var published, copies []*Result
			var pipe *Pipeline
			var sets []*alias.Sets // every alias Sets an epoch used, with a copy
			var setCopies [][][]netaddr.IP
			runChurn(t, tc, 28, nil, func(p *Pipeline, _ []delta.Delta, prev, res *Result) {
				pipe = p
				if s := p.st.sets; s != nil && !slices.Contains(sets, s) {
					sets = append(sets, s)
					setCopies = append(setCopies, cloneSets(s.All()))
				}
				for i, l := range res.Links {
					if l == p.st.adjOrder[i] {
						t.Fatalf("epoch %d: link %d is the live adjacency", res.Epoch, i)
					}
				}
				for ip, notes := range res.Provenance {
					if live := p.st.prov[ip]; len(notes) > 0 && len(live) > 0 && &notes[0] == &live[0] {
						t.Fatalf("epoch %d: the provenance of %v is the live list", res.Epoch, ip)
					}
				}
				if len(copies) == 0 {
					published, copies = append(published, prev), append(copies, cloneResult(prev))
				}
				last := len(copies) - 1
				requireEqualResults(t, fmt.Sprintf("epoch %d after epoch %d", prev.Epoch, res.Epoch), copies[last], published[last])
				published, copies = append(published, res), append(copies, cloneResult(res))
			})
			for i, r := range published {
				requireEqualResults(t, fmt.Sprintf("epoch %d at the end of the stream", r.Epoch), copies[i], r)
			}
			if pipe.prober.Replays == 0 {
				t.Fatal("no re-ingestion replayed the alias memo")
			}
			for i, s := range sets {
				if !reflect.DeepEqual(s.All(), setCopies[i]) {
					t.Fatalf("alias sets %d were written after their epoch used them", i)
				}
				for id, set := range setCopies[i] {
					for _, ip := range set {
						if s.SetID(ip) != id {
							t.Fatalf("alias sets %d: %v moved from set %d to %d", i, ip, id, s.SetID(ip))
						}
					}
				}
			}
		})
	}
}

// cloneSets deep-copies alias sets.
func cloneSets(all [][]netaddr.IP) [][]netaddr.IP {
	out := make([][]netaddr.IP, len(all))
	for i, set := range all {
		out[i] = slices.Clone(set)
	}
	return out
}

// cloneResult deep-copies every exported field of r.
func cloneResult(r *Result) *Result {
	c := *r
	c.Interfaces = make(map[netaddr.IP]*InterfaceResult, len(r.Interfaces))
	for ip, ir := range r.Interfaces {
		cp := *ir
		cp.Candidates = slices.Clone(ir.Candidates)
		c.Interfaces[ip] = &cp
	}
	c.Links = make([]*Adjacency, len(r.Links))
	for i, l := range r.Links {
		cp := *l
		c.Links[i] = &cp
	}
	c.History = slices.Clone(r.History)
	if r.Provenance != nil {
		c.Provenance = make(map[netaddr.IP][]string, len(r.Provenance))
		for ip, notes := range r.Provenance {
			c.Provenance[ip] = slices.Clone(notes)
		}
	}
	return &c
}
