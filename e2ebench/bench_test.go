package main

import (
	"reflect"
	"testing"
	"time"

	"facilitymap"
	"facilitymap/internal/obs"
)

func TestPercentileLeavesTenBeyond(t *testing.T) {
	xs := make([]float64, 2000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 1..2000, reversed
	}
	if v, used, ok := percentile(xs, 0.99); !ok || v != 1980 || used != 0.99 {
		t.Errorf("p99 of 1..2000 = %v at %v (ok=%v), want 1980 at 0.99", v, used, ok)
	}
	// 500 samples leave only 5 beyond p99: fall back to the highest
	// percentile that leaves 10.
	v, used, ok := percentile(xs[:500], 0.99)
	if !ok || used != 0.98 {
		t.Errorf("p99 of 500 samples used %v (ok=%v), want 0.98", used, ok)
	}
	if beyond := countAbove(xs[:500], v); beyond != 10 {
		t.Errorf("%d samples above the reported percentile, want 10", beyond)
	}
	if _, _, ok := percentile(xs[:10], 0.5); ok {
		t.Error("10 samples cannot leave 10 beyond any percentile")
	}
	if got := tailOr(xs[:10], 0.99); got != median(xs[:10]) {
		t.Errorf("tailOr fell back to %v, want the median %v", got, median(xs[:10]))
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func countAbove(xs []float64, v float64) int {
	n := 0
	for _, x := range xs {
		if x > v {
			n++
		}
	}
	return n
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		// Overlapping children count once; a child running past its
		// parent is clipped.
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},
		{ID: 5, Parent: 3, Name: "leaf", Start: 25, End: 35},
	}
	self := selfTimes(spans)
	want := map[int64]int64{1: 100 - 40 - 10, 2: 20, 3: 30 - 10, 4: 30, 5: 10}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times %v, want %v", self, want)
	}
}

func TestFirstSeenAttributesSkippedEpochs(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	// Reader A sees epoch 3 right after 1; reader B sees 2 later than A
	// saw 3, and nobody sees 5 during the run.
	a := []epochSeen{{0, at(0)}, {1, at(10)}, {3, at(40)}}
	b := []epochSeen{{2, at(45)}, {4, at(70)}}
	got := firstSeen([][]epochSeen{a, b}, 1, 5)
	want := []time.Time{at(10), at(40), at(40), at(70), {}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("firstSeen = %v, want %v", got, want)
	}
}

// smallSystem boots the small world, instrumented so tests can read
// the pipeline's own decisions.
func smallSystem(t *testing.T) (*facilitymap.System, *facilitymap.Mapping, *obs.Obs) {
	t.Helper()
	sys, err := facilitymap.NewSystem(facilitymap.Config{Profile: "small", Seed: 3, MaxIterations: 100})
	if err != nil {
		t.Fatal(err)
	}
	o := obs.New(1 << 16)
	sys.Env.Instrument(o)
	m := sys.MapInterconnections()
	m.Materialize(0)
	return sys, m, o
}

func TestSequenceAndBatchesAreSeedDeterministic(t *testing.T) {
	sys, m, _ := smallSystem(t)
	draw := func(seed int64) ([]request, [][]byte) {
		ks, err := buildKeys(m, seed)
		if err != nil {
			t.Fatal(err)
		}
		_, bodies, err := churnBatches(sys, 40, seed)
		if err != nil {
			t.Fatal(err)
		}
		return buildSequence(ks, seed, 4096), bodies
	}
	seqA, batchesA := draw(7)
	seqB, batchesB := draw(7)
	if !reflect.DeepEqual(seqA, seqB) || !reflect.DeepEqual(batchesA, batchesB) {
		t.Fatal("one seed drew two different inputs")
	}
	seqC, batchesC := draw(8)
	if reflect.DeepEqual(seqA, seqC) || reflect.DeepEqual(batchesA, batchesC) {
		t.Fatal("seeds 7 and 8 drew the same inputs")
	}
	var n [nRoutes]int
	for _, q := range seqA {
		n[q.route]++
	}
	if share := float64(n[rInterface]) / float64(len(seqA)); share < 0.5 || share > 0.6 {
		t.Errorf("interface share %.3f, want about %.2f", share, shareInterface)
	}
}

func TestSurgicalMatchesApplyDelta(t *testing.T) {
	sys, _, o := smallSystem(t)
	batches, _, err := churnBatches(sys, 24, 5)
	if err != nil {
		t.Fatal(err)
	}
	var kinds [2]int
	for i, b := range batches {
		if _, err := sys.Apply(b); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		reingest, ok := lastReingest(o)
		if !ok {
			t.Fatalf("batch %d: the pipeline emitted no delta_batch event", i)
		}
		if surgical(b) == reingest {
			t.Errorf("batch %d (%s): surgical=%v, but ApplyDelta chose reingest=%v", i, b[0].Kind, surgical(b), reingest)
		}
		if reingest {
			kinds[1]++
		} else {
			kinds[0]++
		}
	}
	if kinds[0] == 0 || kinds[1] == 0 {
		t.Errorf("batches covered %d surgical and %d re-ingest epochs; want both", kinds[0], kinds[1])
	}
}

// lastReingest reads the reingest flag of the pipeline's most recent
// delta_batch event.
func lastReingest(o *obs.Obs) (bool, bool) {
	evs := o.Tracer.Events()
	for i := len(evs) - 1; i >= 0; i-- {
		if evs[i].Kind != "delta_batch" {
			continue
		}
		for _, f := range evs[i].Fields {
			if f.Key == "reingest" {
				v, ok := f.Value.(bool)
				return v, ok
			}
		}
	}
	return false, false
}
