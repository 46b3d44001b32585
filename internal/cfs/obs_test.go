package cfs

import (
	"testing"
	"time"

	"facilitymap/internal/obs"
	"facilitymap/internal/world"
)

// tick is the fake clock's step: every reading advances by exactly one.
const tick = time.Millisecond

func fakeClock() func() time.Time {
	base := time.Unix(0, 0)
	n := 0
	return func() time.Time {
		n++
		return base.Add(time.Duration(n) * tick)
	}
}

// TestObsEnabledRunsBitForBitIdentical: attaching full observability —
// metrics and tracing on the trace engine, the platform scheduler and
// the CFS loop — must not change a single inference, for the worklist
// or the rescan oracle. This is the one-way-observation invariant;
// combined with TestWorklistMatchesRescan it also proves the engine
// differential holds with observability enabled.
func TestObsEnabledRunsBitForBitIdentical(t *testing.T) {
	for _, core := range []struct {
		name  string
		setup func(*Pipeline)
	}{{"worklist", nil}, {"rescan", useRescan}} {
		plain := DefaultConfig()
		observed := DefaultConfig()
		observed.Obs = obs.New(1 << 12)
		a := freshRunWith(t, world.Small(), 23, plain, core.setup)
		b := freshRunWith(t, world.Small(), 23, observed, core.setup)
		requireCrossEngineResults(t, "obs on/off, "+core.name+" engine", a, b)
	}
}

// TestObsCountersMatchEngineProbes: after a full CFS run — campaigns,
// follow-ups, MDA, alias resolution, remote detection — the obs probe
// counters must sum to exactly the trace engine's own ledger. Any drift
// means a probe was issued without being booked (or booked twice).
func TestObsCountersMatchEngineProbes(t *testing.T) {
	s := buildStack(t, world.Small())
	o := obs.New(1 << 14)
	s.engine.Instrument(o)
	s.svc.Instrument(o)

	cfg := DefaultConfig()
	cfg.MDAFlows = 3 // exercise the multipath accounting too
	cfg.FollowUpBudget *= 3
	cfg.Obs = o
	p := mustNew(t, cfg, s.db, s.ipasn, s.svc, s.det, s.prober)
	res := p.Run(s.initialCorpus())
	if len(res.Interfaces) == 0 {
		t.Fatal("run observed no interfaces")
	}

	snap := o.Metrics.Snapshot()
	sum := snap.Counters["trace.probes.traceroute"] +
		snap.Counters["trace.probes.ping"] +
		snap.Counters["trace.probes.fabric_ping"]
	if probes := int64(s.engine.Probes()); sum != probes {
		t.Errorf("obs probe counters sum to %d, engine ledger says %d\n%s",
			sum, probes, snap.Render())
	}

	// The run must also have exercised the CFS-side instrumentation.
	if snap.Counters["cfs.iterations"] == 0 {
		t.Error("cfs.iterations counter never moved")
	}
	if snap.Counters["cfs.narrowings"] == 0 {
		t.Error("cfs.narrowings counter never moved")
	}
	if got, want := snap.Counters["cfs.iterations"], int64(len(res.History)); got != want {
		t.Errorf("cfs.iterations = %d, History has %d entries", got, want)
	}
	if o.Tracer.Total() == 0 {
		t.Error("tracer saw no events")
	}
}

// TestMergeObservedMatchesMerge: the observed fold returns the same
// Result and books the fold's shape.
func TestMergeObservedMatchesMerge(t *testing.T) {
	_, r1 := runSmall(t, DefaultConfig())
	o := obs.New(16)
	plain := Merge(r1, r1)
	observed := MergeObserved(o, r1, r1)
	if len(plain.Interfaces) != len(observed.Interfaces) ||
		plain.MergeConflicts != observed.MergeConflicts ||
		len(plain.Links) != len(observed.Links) {
		t.Fatal("MergeObserved diverged from Merge")
	}
	snap := o.Metrics.Snapshot()
	if snap.Counters["cfs.merge.runs"] != 2 {
		t.Errorf("cfs.merge.runs = %d, want 2", snap.Counters["cfs.merge.runs"])
	}
	if snap.Counters["cfs.merge.interfaces"] != int64(len(observed.Interfaces)) {
		t.Errorf("cfs.merge.interfaces = %d, want %d",
			snap.Counters["cfs.merge.interfaces"], len(observed.Interfaces))
	}
}

// TestWallTimeExcludesSnapshotOverhead pins the clock boundaries: with
// a stepped fake clock, WallTime must cover exactly the engine phases
// plus the follow-up round — not the snapshot scan or metric emission
// between them.
func TestWallTimeExcludesSnapshotOverhead(t *testing.T) {
	s := buildStack(t, world.Small())
	cfg := DefaultConfig()
	cfg.MaxIterations = 1
	p := mustNew(t, cfg, s.db, s.ipasn, s.svc, s.det, s.prober)
	p.now = fakeClock()
	res := p.Run(s.initialCorpus())
	if len(res.History) == 0 {
		t.Fatal("no iterations recorded")
	}
	// The loop reads the clock 6 times per iteration: start,
	// after-resolve, after-constraint, engine-end, follow-start,
	// follow-end. With 1-tick steps the timed spans are
	// (engineEnd-start) + (followEnd-followStart) = 3 + 1 = 4 ticks;
	// a boundary regression that re-included the snapshot would read 5.
	if got := res.History[0].WallTime; got != 4*tick {
		t.Errorf("WallTime = %v, want %v (engine phases + follow-up only)", got, 4*tick)
	}
}
