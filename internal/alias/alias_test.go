package alias

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"facilitymap/internal/netaddr"
	"facilitymap/internal/world"
)

func resolveWorld(t *testing.T, seed int64) (*world.World, *Sets) {
	t.Helper()
	w := world.Generate(world.Small())
	p := NewProber(w, seed)
	var ips []netaddr.IP
	for _, ifc := range w.Interfaces {
		ips = append(ips, ifc.IP)
	}
	return w, Resolve(p, ips)
}

// TestNoFalsePositives: no alias set may span two ground-truth routers.
// MIDAR's design goal is "very few false positives" (§4.1); in the
// simulation the probability is negligible.
func TestNoFalsePositives(t *testing.T) {
	w, sets := resolveWorld(t, 3)
	for _, set := range sets.All() {
		var owner world.RouterID = -1
		for _, ip := range set {
			r := w.RouterOfIP(ip)
			if r == nil {
				t.Fatalf("unknown ip %v in alias set", ip)
			}
			if owner == -1 {
				owner = r.ID
			} else if owner != r.ID {
				t.Fatalf("alias set %v spans routers %d and %d", set, owner, r.ID)
			}
		}
	}
}

// TestSharedCounterRoutersResolve: multi-interface routers with shared
// counters must collapse to one set.
func TestSharedCounterRoutersResolve(t *testing.T) {
	w, sets := resolveWorld(t, 3)
	resolved, total := 0, 0
	for _, r := range w.Routers {
		if r.IPID != world.IPIDSharedCounter || len(r.Interfaces) < 2 {
			continue
		}
		total++
		id := sets.SetID(w.Interfaces[r.Interfaces[0]].IP)
		same := true
		for _, i := range r.Interfaces[1:] {
			if sets.SetID(w.Interfaces[i].IP) != id {
				same = false
			}
		}
		if same {
			resolved++
		}
	}
	if total == 0 {
		t.Skip("no shared-counter multi-interface routers")
	}
	if resolved*10 < total*9 {
		t.Errorf("only %d/%d shared-counter routers fully resolved", resolved, total)
	}
}

// TestDefeatedBehaviors: random/constant/unresponsive routers must stay
// as singletons (false negatives, like Google's routers in the paper).
func TestDefeatedBehaviors(t *testing.T) {
	w, sets := resolveWorld(t, 3)
	for _, r := range w.Routers {
		if r.IPID == world.IPIDSharedCounter || len(r.Interfaces) < 2 {
			continue
		}
		for _, i := range r.Interfaces {
			ip := w.Interfaces[i].IP
			if others := sets.Aliases(ip); len(others) != 0 {
				t.Fatalf("router %d (%v) interface %v resolved aliases %v",
					r.ID, r.IPID, ip, others)
			}
		}
	}
}

func TestAllInputsCovered(t *testing.T) {
	w, sets := resolveWorld(t, 3)
	for _, ifc := range w.Interfaces {
		if sets.SetID(ifc.IP) < 0 {
			t.Fatalf("input %v missing from output partition", ifc.IP)
		}
	}
	if sets.SetID(netaddr.MustParseIP("203.0.113.1")) != -1 {
		t.Error("foreign IP should have no set")
	}
	if sets.Aliases(netaddr.MustParseIP("203.0.113.1")) != nil {
		t.Error("foreign IP should have no aliases")
	}
	if sets.NonTrivial() == 0 {
		t.Error("expected some non-trivial alias sets")
	}
}

// TestPartitionProperty: Resolve must produce a partition — every input
// in exactly one set — for arbitrary subsets of interfaces.
func TestPartitionProperty(t *testing.T) {
	w := world.Generate(world.Small())
	all := w.Interfaces
	f := func(seed int64, mask uint16) bool {
		p := NewProber(w, seed)
		var ips []netaddr.IP
		for i, ifc := range all {
			if (uint16(i)^mask)%7 == 0 {
				ips = append(ips, ifc.IP)
				ips = append(ips, ifc.IP) // duplicates must be tolerated
			}
		}
		sets := Resolve(p, ips)
		seen := make(map[netaddr.IP]int)
		for _, set := range sets.All() {
			for _, ip := range set {
				seen[ip]++
			}
		}
		for _, ip := range ips {
			if seen[ip] != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestEstimateVelocity(t *testing.T) {
	// A clean 1000/s counter.
	var s []sample
	for i := 0; i < 5; i++ {
		s = append(s, sample{t: float64(i) * 0.005, id: uint16(i * 5)})
	}
	v, ok := estimateVelocity(s)
	if !ok || v < 500 || v > 2000 {
		t.Errorf("velocity = %v,%v want ~1000", v, ok)
	}
	// Constant counter: unusable.
	for i := range s {
		s[i].id = 42
	}
	if _, ok := estimateVelocity(s); ok {
		t.Error("constant series should be unusable")
	}
	// Random-looking jump: unusable.
	s[2].id = 40000
	if _, ok := estimateVelocity(s); ok {
		t.Error("wild series should be unusable")
	}
	if _, ok := estimateVelocity(s[:1]); ok {
		t.Error("single sample should be unusable")
	}
}

func TestCounterWraparound(t *testing.T) {
	// Force a counter close to 2^16 and confirm resolution still works
	// across the wrap (deltas are mod-2^16).
	w := world.Generate(world.Small())
	var target *world.Router
	for _, r := range w.Routers {
		if r.IPID == world.IPIDSharedCounter && len(r.Interfaces) >= 2 {
			target = r
			break
		}
	}
	if target == nil {
		t.Skip("no shared-counter router")
	}
	p := NewProber(w, 9)
	p.counter(target.ID).base = 65530 // will wrap within a few probes
	var ips []netaddr.IP
	for _, i := range target.Interfaces {
		ips = append(ips, w.Interfaces[i].IP)
	}
	sets := Resolve(p, ips)
	if len(sets.All()) != 1 {
		t.Errorf("wraparound broke resolution: %d sets for one router", len(sets.All()))
	}
}

func TestProbeAccounting(t *testing.T) {
	w := world.Generate(world.Small())
	p := NewProber(w, 1)
	before := p.Probes
	p.Probe(w.Interfaces[0].IP)
	p.Probe(netaddr.MustParseIP("203.0.113.9"))
	if p.Probes != before+2 {
		t.Errorf("probe counter = %d, want %d", p.Probes, before+2)
	}
	if p.Clock() <= 0 {
		t.Error("clock did not advance")
	}
}

// TestMonotonicBoundsTestAllocFree: the pairwise test keeps its samples
// in a fixed array and probes interfaces Resolve looked up once, so
// once the router's counter is drawn a call allocates nothing. It runs
// once per velocity-compatible pair.
func TestMonotonicBoundsTestAllocFree(t *testing.T) {
	w := world.Generate(world.Small())
	p := NewProber(w, 3)
	var a, b *world.Interface
	for _, r := range w.Routers {
		if r.IPID == world.IPIDSharedCounter && len(r.Interfaces) >= 2 {
			a, b = w.Interfaces[r.Interfaces[0]], w.Interfaces[r.Interfaces[1]]
			break
		}
	}
	if a == nil {
		t.Fatal("no shared-counter router with two interfaces in the small world")
	}
	probes := p.Probes
	monotonicBoundsTest(p, a, b, 1000)
	if got := p.Probes - probes; got != mbtProbes {
		t.Fatalf("one test issued %d probes, want %d: both addresses must answer", got, mbtProbes)
	}
	if allocs := testing.AllocsPerRun(100, func() { monotonicBoundsTest(p, a, b, 1000) }); allocs != 0 {
		t.Errorf("monotonicBoundsTest allocates %v times per call, want 0", allocs)
	}
}

// TestResolveReplaysFromReset: a Resolve from a reset stream over the
// target set the prober last resolved from a reset stream is a replay.
// It returns equal sets and leaves the prober where the resolution
// left it, so the 200 probes after it answer as they do after a real
// resolution, at the same clock and with the same probes booked since
// the reset. Order and duplicates do not make a set different; another
// set, or a stream not at its reset position, misses.
func TestResolveReplaysFromReset(t *testing.T) {
	w := world.Generate(world.Small())
	var targets, further []netaddr.IP
	for i, ifc := range w.Interfaces {
		switch {
		case i%3 == 0:
			targets = append(targets, ifc.IP)
		case len(further) < 199:
			further = append(further, ifc.IP)
		}
	}
	further = append(further, netaddr.MustParseIP("203.0.113.9")) // on no interface
	type answer struct {
		id uint16
		ok bool
	}
	probeAll := func(p *Prober) []answer {
		out := make([]answer, len(further))
		for i, ip := range further {
			out[i].id, out[i].ok = p.Probe(ip)
		}
		return out
	}

	a := NewProber(w, 5)
	setsA := Resolve(a, targets)
	answersA := probeAll(a)

	b := NewProber(w, 5)
	Resolve(b, targets)
	b.ResetStream()
	booked := b.Probes
	shuffled := append([]netaddr.IP(nil), targets...)
	rand.New(rand.NewSource(1)).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	shuffled = append(shuffled, targets[:len(targets)/4]...)
	setsB := Resolve(b, shuffled)
	if b.Replays != 1 {
		t.Fatalf("Replays = %d after resolving the same set from a reset stream, want 1", b.Replays)
	}
	if !reflect.DeepEqual(setsA.All(), setsB.All()) {
		t.Fatal("the replay returned different sets")
	}
	for _, ip := range targets {
		if setsA.SetID(ip) != setsB.SetID(ip) {
			t.Fatalf("SetID(%v): %d resolved, %d replayed", ip, setsA.SetID(ip), setsB.SetID(ip))
		}
	}
	if answersB := probeAll(b); !reflect.DeepEqual(answersA, answersB) {
		t.Fatal("probes after the replay answered differently from probes after the resolution")
	}
	if a.Clock() != b.Clock() {
		t.Fatalf("clock %v after the replay, %v after the resolution", b.Clock(), a.Clock())
	}
	if got := b.Probes - booked; got != a.Probes {
		t.Fatalf("%d probes booked since the reset, the resolution booked %d", got, a.Probes)
	}

	// Not from a reset stream: the stream has moved, so no replay.
	Resolve(b, targets)
	// From a reset stream, over another set.
	b.ResetStream()
	Resolve(b, targets[1:])
	if b.Replays != 1 {
		t.Fatalf("Replays = %d after two resolutions that must miss, want 1", b.Replays)
	}
	// A replay moves the stream as far as the resolution did, so the
	// same set resolved straight after it is no replay either.
	b.ResetStream()
	Resolve(b, targets[1:])
	Resolve(b, targets[1:])
	if b.Replays != 2 {
		t.Fatalf("Replays = %d after a replay and a resolution straight after it, want 2", b.Replays)
	}
}
