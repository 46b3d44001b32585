// Package alias implements MIDAR-style IP alias resolution (paper ref
// [40], used in §4.1): routers that share a single IP-ID counter across
// interfaces reveal themselves because interleaved probes to two aliases
// produce one monotonically increasing IP-ID sequence. The package
// simulates the prober side faithfully — estimation, velocity sharding,
// pairwise monotonic bounds test (MBT), transitive grouping — against
// ground-truth counter behaviour defined per router in the world
// (shared counter, random, constant, or unresponsive).
//
// Routers with random or constant IP-IDs, or that ignore probes, defeat
// the test, producing exactly the false negatives the paper reports for
// networks like Google.
package alias

import (
	"math/rand"
	"slices"
	"sort"

	"facilitymap/internal/netaddr"
	"facilitymap/internal/world"
)

// Prober answers IP-ID probes from the ground truth. It owns a simulated
// clock that advances with every probe, so counter velocities are
// observable.
type Prober struct {
	w    *world.World
	rng  *rand.Rand
	seed int64
	// drawn counts the values the stream has drawn since the seed, and
	// skip how many of them rng has yet to produce: a replay (see
	// Resolve) moves the stream without drawing, and the next draw
	// catches rng up. The state of a math/rand source cannot be copied,
	// so a position is restored by drawing up to it.
	drawn, skip int64

	clock float64 // seconds since start
	// state is each router's counter, indexed by RouterID. A zero rate
	// marks a router whose counter has not been drawn yet: a drawn rate
	// is at least 50.
	state   []counterState
	Probes  int
	perTick float64

	// Replays counts the Resolve calls answered from the memo of the
	// last resolution made from a reset stream (see Resolve).
	Replays int
	// memo is the last resolution Resolve made from a reset stream.
	memo *resolution
}

type counterState struct {
	base uint32  // initial counter value
	rate float64 // increments per second from background traffic
	sent uint32  // replies generated so far (each bumps the counter)
}

// NewProber builds a prober over the world.
func NewProber(w *world.World, seed int64) *Prober {
	p := &Prober{
		w:       w,
		rng:     rand.New(rand.NewSource(seed)),
		seed:    seed,
		state:   make([]counterState, len(w.Routers)),
		perTick: 0.005, // 5ms between probes
	}
	return p
}

// ResetStream rewinds the prober's measurement stream to its initial
// state: the RNG back to the construction seed, the simulated clock to
// zero, and all per-router counter state forgotten. The cumulative
// Probes ledger is deliberately kept — it counts probes actually
// issued, across stream generations.
//
// The incremental pipeline calls this at the start of a re-ingestion
// epoch so that replaying a retained observation corpus sees exactly
// the probe responses a fresh prober at the same seed would produce,
// which is what the delta-vs-fresh bit-for-bit guarantee rests on.
func (p *Prober) ResetStream() {
	p.rng = rand.New(rand.NewSource(p.seed))
	p.drawn, p.skip = 0, 0
	p.clock = 0
	clear(p.state)
}

// atReset reports whether the stream is where NewProber and
// ResetStream leave it. Every probe draws from the RNG, so no draw
// since the seed means no probe either.
func (p *Prober) atReset() bool { return p.drawn == 0 }

// draw returns the stream's next value, rand.Rand.Int63, first
// drawing the values a replay moved the stream past.
func (p *Prober) draw() int64 {
	for ; p.skip > 0; p.skip-- {
		p.rng.Int63()
	}
	p.drawn++
	return p.rng.Int63()
}

// uniform is rand.Rand.Float64 over draw: a value in [0, 1), drawn
// again in the (never seen) case that rounds to 1.
func (p *Prober) uniform() float64 {
	for {
		if f := float64(p.draw()) / (1 << 63); f < 1 {
			return f
		}
	}
}

// ipid is rand.Rand.Intn(1<<16) over draw: the top bits of one value,
// masked.
func (p *Prober) ipid() uint32 { return uint32(p.draw()>>32) & (1<<16 - 1) }

// counter returns r's counter state, drawing its base and rate at the
// router's first shared-counter probe.
func (p *Prober) counter(r world.RouterID) *counterState {
	cs := &p.state[r]
	if cs.rate == 0 {
		cs.base = p.ipid()
		cs.rate = 50 + p.uniform()*4950
	}
	return cs
}

// Probe sends one IP-ID probe to ip. The returned value is the 16-bit
// IP-ID of the reply; ok is false when the router does not answer.
func (p *Prober) Probe(ip netaddr.IP) (uint16, bool) {
	return p.probe(p.w.InterfaceByIP(ip))
}

// probe is Probe for an interface already looked up; nil is an address
// on no interface, which never answers.
func (p *Prober) probe(ifc *world.Interface) (uint16, bool) {
	p.clock += p.perTick * (0.8 + 0.4*p.uniform())
	p.Probes++
	if ifc == nil {
		return 0, false
	}
	r := p.w.Routers[ifc.Router]
	switch r.IPID {
	case world.IPIDUnresponsive:
		return 0, false
	case world.IPIDConstant:
		return 0, true
	case world.IPIDRandom:
		return uint16(p.ipid()), true
	default: // shared counter
		cs := p.counter(ifc.Router)
		cs.sent++
		v := cs.base + uint32(cs.rate*p.clock) + cs.sent
		return uint16(v), true
	}
}

// Clock returns the simulated time in seconds.
func (p *Prober) Clock() float64 { return p.clock }

// sample is one timestamped IP-ID observation.
type sample struct {
	t  float64
	id uint16
}

// Sets is the outcome of alias resolution: a partition of the probed
// addresses into routers (singletons for everything untestable).
type Sets struct {
	sets [][]netaddr.IP
	byIP map[netaddr.IP]int
}

// All returns every alias set (including singletons), each sorted.
func (s *Sets) All() [][]netaddr.IP { return s.sets }

// SetID returns the alias-set index of ip, or -1.
func (s *Sets) SetID(ip netaddr.IP) int {
	id, ok := s.byIP[ip]
	if !ok {
		return -1
	}
	return id
}

// Aliases returns the other addresses in ip's alias set.
func (s *Sets) Aliases(ip netaddr.IP) []netaddr.IP {
	id, ok := s.byIP[ip]
	if !ok {
		return nil
	}
	var out []netaddr.IP
	for _, other := range s.sets[id] {
		if other != ip {
			out = append(out, other)
		}
	}
	return out
}

// NonTrivial returns the number of sets with at least two members.
func (s *Sets) NonTrivial() int {
	n := 0
	for _, set := range s.sets {
		if len(set) >= 2 {
			n++
		}
	}
	return n
}

const (
	estimationProbes = 5
	mbtProbes        = 6
	velocityTol      = 0.10 // 10% sharding tolerance
)

// resolution is one Resolve call made from a reset stream: its sorted
// distinct targets, its sets, and the prober state it left behind.
type resolution struct {
	targets []netaddr.IP
	sets    *Sets
	clock   float64
	state   []counterState
	probes  int
	draws   int64
}

// Resolve runs the full MIDAR-like pipeline over the candidate
// addresses, in ascending address order with duplicates dropped.
//
// Resolution is a pure function of the stream position it starts from
// and of that target set, so the prober keeps the last resolution it
// made from a reset stream. A Resolve from a reset stream over the same
// set is a replay: it returns the memoized Sets, books the same number
// of probes, and leaves the clock, the counter state and the RNG where
// the resolution left them, so every later probe answers as if it had
// run. Replays counts these. The memo rests on alias truth never
// changing under a live prober: a world delta edits only facility
// lists, never a router's interfaces or its IP-ID behaviour. A replay
// shares the memoized Sets with every earlier caller; Sets is never
// written once built.
func Resolve(p *Prober, ips []netaddr.IP) *Sets {
	targets := slices.Clone(ips)
	slices.Sort(targets)
	targets = slices.Compact(targets)

	fromReset := p.atReset()
	if m := p.memo; fromReset && m != nil && slices.Equal(m.targets, targets) {
		p.clock = m.clock
		copy(p.state, m.state)
		p.Probes += m.probes
		p.drawn, p.skip = m.draws, m.draws
		p.Replays++
		return m.sets
	}
	probes := p.Probes
	s := resolve(p, targets)
	if fromReset {
		p.memo = &resolution{
			targets: targets,
			sets:    s,
			clock:   p.clock,
			state:   slices.Clone(p.state),
			probes:  p.Probes - probes,
			draws:   p.drawn,
		}
	}
	return s
}

// resolve is Resolve over sorted, distinct targets.
func resolve(p *Prober, targets []netaddr.IP) *Sets {
	// Stage 1: estimation. Probe each target and keep those with a
	// usable monotonic counter, estimating its velocity. Each target's
	// interface is looked up once, here; every later probe reuses it.
	type candidate struct {
		ip  netaddr.IP
		ifc *world.Interface
		vel float64
	}
	var cands []candidate
	for _, ip := range targets {
		ifc := p.w.InterfaceByIP(ip)
		var series [estimationProbes]sample
		ok := true
		for i := range series {
			id, responded := p.probe(ifc)
			if !responded {
				ok = false
				break
			}
			series[i] = sample{p.Clock(), id}
		}
		if !ok {
			continue
		}
		vel, usable := estimateVelocity(series[:])
		if !usable {
			continue
		}
		cands = append(cands, candidate{ip, ifc, vel})
	}

	// Stage 2: velocity sharding. Only pairs with compatible velocities
	// can share a counter; sort by velocity and group neighbours.
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].vel != cands[j].vel {
			return cands[i].vel < cands[j].vel
		}
		return cands[i].ip < cands[j].ip
	})
	parent := make(map[netaddr.IP]netaddr.IP, len(cands))
	var find func(netaddr.IP) netaddr.IP
	find = func(x netaddr.IP) netaddr.IP {
		if parent[x] == x {
			return x
		}
		parent[x] = find(parent[x])
		return parent[x]
	}
	for _, c := range cands {
		parent[c.ip] = c.ip
	}
	union := func(a, b netaddr.IP) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[rb] = ra
		}
	}

	// Stage 3: pairwise MBT within each shard, skipping pairs already
	// joined transitively.
	type edge struct {
		a, b *world.Interface // never nil: both ends answered
		vel  float64
	}
	var passed []edge
	joined := make(map[[2]netaddr.IP]bool)
	for i := 0; i < len(cands); i++ {
		for j := i + 1; j < len(cands); j++ {
			if !velocityCompatible(cands[i].vel, cands[j].vel) {
				break // sorted by velocity: nothing further matches
			}
			key := [2]netaddr.IP{cands[i].ip, cands[j].ip}
			if joined[key] {
				continue
			}
			v := (cands[i].vel + cands[j].vel) / 2
			if monotonicBoundsTest(p, cands[i].ifc, cands[j].ifc, v) {
				passed = append(passed, edge{cands[i].ifc, cands[j].ifc, v})
				joined[key] = true
			}
		}
	}
	// Stage 4: corroboration (MIDAR's final round). Distinct routers
	// that slipped through stage 3 by phase coincidence drift apart as
	// their counters advance at slightly different rates, so a later
	// re-test rejects them; genuine aliases share one counter and pass
	// forever. An edge whose ends an earlier re-test already joined
	// transitively is not re-tested.
	for _, e := range passed {
		if find(e.a.IP) == find(e.b.IP) {
			continue // already corroborated transitively: skip the re-test
		}
		if monotonicBoundsTest(p, e.a, e.b, e.vel) {
			union(e.a.IP, e.b.IP)
		}
	}

	// Assemble sets; untestable targets become singletons.
	s := &Sets{byIP: make(map[netaddr.IP]int, len(targets))}
	groups := make(map[netaddr.IP][]netaddr.IP)
	for _, c := range cands {
		root := find(c.ip)
		groups[root] = append(groups[root], c.ip)
	}
	var roots []netaddr.IP
	for r := range groups {
		roots = append(roots, r)
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i] < roots[j] })
	for _, r := range roots {
		set := groups[r]
		sort.Slice(set, func(i, j int) bool { return set[i] < set[j] })
		id := len(s.sets)
		s.sets = append(s.sets, set)
		for _, ip := range set {
			s.byIP[ip] = id
		}
	}
	for _, ip := range targets {
		if _, done := s.byIP[ip]; !done {
			id := len(s.sets)
			s.sets = append(s.sets, []netaddr.IP{ip})
			s.byIP[ip] = id
		}
	}
	return s
}

func velocityCompatible(a, b float64) bool {
	if a > b {
		a, b = b, a
	}
	return b-a <= b*velocityTol
}

// estimateVelocity fits increments-per-second to a single-target series.
// Unusable series: any non-monotonic step (random IP-IDs) or zero total
// movement (constant IP-IDs).
func estimateVelocity(series []sample) (float64, bool) {
	if len(series) < 2 {
		return 0, false
	}
	total := 0.0
	for i := 1; i < len(series); i++ {
		dt := series[i].t - series[i-1].t
		delta := uint16(series[i].id - series[i-1].id) // mod 2^16
		// A genuine counter moves a small positive amount per 5ms tick
		// (max ~5000/s -> ~25 + our own probe). Random IP-IDs produce
		// large apparent deltas with probability ~1.
		maxPlausible := 5000*dt*4 + 20
		if float64(delta) > maxPlausible {
			return 0, false
		}
		total += float64(delta)
	}
	elapsed := series[len(series)-1].t - series[0].t
	if elapsed <= 0 || total == 0 {
		return 0, false
	}
	return total / elapsed, true
}

// monotonicBoundsTest interleaves probes between two interfaces and
// accepts them as aliases when every consecutive IP-ID delta is within
// the bound implied by the estimated shared velocity. The samples live
// in a fixed array: the test runs once per velocity-compatible pair, so
// any allocation here is paid at every pair.
func monotonicBoundsTest(p *Prober, a, b *world.Interface, vel float64) bool {
	var merged [mbtProbes]sample
	for i := range merged {
		ifc := a
		if i%2 == 1 {
			ifc = b
		}
		id, ok := p.probe(ifc)
		if !ok {
			return false
		}
		merged[i] = sample{p.Clock(), id}
	}
	for i := 1; i < len(merged); i++ {
		dt := merged[i].t - merged[i-1].t
		delta := float64(uint16(merged[i].id - merged[i-1].id))
		bound := vel*dt*3 + 16
		if delta > bound {
			return false
		}
	}
	return true
}
