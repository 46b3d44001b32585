package remote

import (
	"reflect"
	"testing"

	"facilitymap/internal/bgp"
	"facilitymap/internal/delta"
	"facilitymap/internal/obs"
	"facilitymap/internal/platform"
	"facilitymap/internal/registry"
	"facilitymap/internal/trace"
	"facilitymap/internal/world"
)

func TestDetectorAccuracy(t *testing.T) {
	w := world.Generate(world.Default())
	rt := bgp.Compute(w)
	e := trace.New(w, rt, 21)
	fleet := platform.Deploy(w, platform.DefaultDeploy())
	svc := platform.NewService(w, fleet, e, rt)
	db := registry.Collect(w, registry.DefaultConfig())
	d := NewDetector(svc, db)

	var right, wrong, untestable int
	var fp, fn int
	for _, m := range w.Memberships {
		if _, confirmed := db.IXPs[m.IXP]; !confirmed {
			continue
		}
		got, ok := d.IsRemote(w.Interfaces[m.Port].IP, m.IXP)
		if !ok {
			untestable++
			continue
		}
		if got == m.Remote {
			right++
		} else {
			wrong++
			if got {
				fp++
			} else {
				fn++
			}
		}
	}
	total := right + wrong
	if total == 0 {
		t.Fatal("no memberships testable")
	}
	if right*100 < total*85 {
		t.Errorf("remote-peering accuracy %d/%d (fp=%d fn=%d); want >=85%%",
			right, total, fp, fn)
	}
	t.Logf("remote detection: %d/%d correct, %d untestable, fp=%d fn=%d, %d pings",
		right, total, untestable, fp, fn, d.Pings)
}

func TestDetectorUnknownIXP(t *testing.T) {
	w := world.Generate(world.Small())
	rt := bgp.Compute(w)
	e := trace.New(w, rt, 3)
	fleet := platform.Deploy(w, platform.DefaultDeploy())
	svc := platform.NewService(w, fleet, e, rt)
	db := registry.Collect(w, registry.DefaultConfig())
	d := NewDetector(svc, db)
	if _, ok := d.IsRemote(w.Interfaces[0].IP, world.IXPID(9999)); ok {
		t.Error("unknown IXP should be untestable")
	}
}

// TestLocalLGCacheMatchesRecompute: across IXP facility edits, a
// detector that caches each IXP's local looking glasses returns the
// verdicts, and issues the pings to the same VPs in the same order, of
// one that recomputes the list on every call. The two detectors run on
// two identical stacks, so equal probe sequences give equal RTTs.
func TestLocalLGCacheMatchesRecompute(t *testing.T) {
	type side struct {
		w  *world.World
		db *registry.Database
		d  *Detector
		o  *obs.Obs
	}
	build := func() side {
		w := world.Generate(world.Small())
		rt := bgp.Compute(w)
		e := trace.New(w, rt, 5)
		o := obs.New(1 << 16)
		e.Instrument(o)
		fleet := platform.Deploy(w, platform.DefaultDeploy())
		svc := platform.NewService(w, fleet, e, rt)
		db := registry.Collect(w, registry.DefaultConfig())
		return side{w, db, NewDetector(svc, db), o}
	}
	cached, ref := build(), build()
	probe := func() {
		t.Helper()
		for _, m := range cached.w.Memberships {
			port := cached.w.Interfaces[m.Port].IP
			got, gotOK := cached.d.IsRemote(port, m.IXP)
			ref.d.local = nil // recompute the list on every call
			want, wantOK := ref.d.IsRemote(port, m.IXP)
			if got != want || gotOK != wantOK {
				t.Fatalf("IXP %d port %v: cached detector says (%v, %v), recomputing one (%v, %v)", m.IXP, port, got, gotOK, want, wantOK)
			}
		}
		if cached.d.Pings != ref.d.Pings || cached.d.Pings == 0 {
			t.Fatalf("pings: cached %d, recomputing %d", cached.d.Pings, ref.d.Pings)
		}
		if a, b := cached.o.Tracer.Events(), ref.o.Tracer.Events(); !reflect.DeepEqual(a, b) {
			t.Fatalf("the two detectors issued different pings (%d vs %d events)", len(a), len(b))
		}
	}
	probe()

	// Drop facilities of IXPs that have local looking glasses until
	// some IXPs' lists change, so a stale cache would ping other VPs.
	// The lists are counted on the recomputing side, leaving the cached
	// detector's cache as the first probe left it.
	local := func(ix world.IXPID) int {
		ref.d.local = nil
		return len(ref.d.localLGs(ix, ref.db.IXPs[ix]))
	}
	moved := 0
	for _, m := range ref.w.Memberships {
		rec := ref.db.IXPs[m.IXP]
		if rec == nil || len(rec.Facilities) < 2 {
			continue
		}
		before := local(m.IXP)
		if before == 0 {
			continue
		}
		edit := []delta.Delta{{Kind: delta.IXPFacilityRemove, IXP: m.IXP, Facility: rec.Facilities[0]}}
		delta.ApplyToDatabase(cached.db, edit)
		delta.ApplyToDatabase(ref.db, edit)
		if local(m.IXP) != before {
			moved++
		}
		if moved >= 3 {
			break
		}
	}
	if moved == 0 {
		t.Fatal("no facility edit changed an IXP's local looking glasses")
	}
	probe()
}
