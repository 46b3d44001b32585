package world

// Config controls world generation. Profiles: Small (unit tests),
// Default (examples, experiments), PaperScale (benchmarks approximating
// the paper's dataset sizes).
type Config struct {
	Seed int64

	// NumMetros caps how many embedded metros are instantiated (in
	// weight order). 0 means all.
	NumMetros int
	// SyntheticMetros appends generated satellite markets beyond the
	// embedded seed list: each satellite orbits an embedded hub metro
	// (same country and region, a fraction of its weight) at a distinct
	// coordinate far enough away that registry normalisation keeps it a
	// separate metro cluster. 0 — the value in every profile up to
	// Large — generates the embedded list only, byte-identically to
	// configs predating the knob.
	SyntheticMetros int
	// FacilityDensity scales facilities per metro: a metro of weight w
	// gets about w*FacilityDensity facilities (at least one).
	FacilityDensity float64
	// NumIXPs is the approximate number of active IXPs.
	NumIXPs int
	// InactiveIXPs is the number of defunct IXPs that still appear in
	// stale registry sources and must be filtered (§3.1.2).
	InactiveIXPs int

	// AS population by type.
	NumTier1, NumTransit, NumContent, NumAccess, NumEnterprise int

	// RemotePeerFrac is the probability that an IXP membership without a
	// local facility presence connects remotely through a reseller
	// instead of deploying into a partner facility (~20% at AMS-IX, §2).
	RemotePeerFrac float64
	// TetheringFrac is the probability that two members of a common IXP
	// lacking a common facility establish a private VLAN over the fabric.
	TetheringFrac float64

	// ColoMeshDegree adds a bounded-degree cross-connect mesh among the
	// ASes co-located in each facility: every resident privately
	// interconnects with up to this many of its ASN-order neighbours in
	// the same building. This is what carries the Large profile to an
	// order-of-a-million interfaces. 0 — the value in every profile up
	// to Large — disables the tier and leaves older configs
	// byte-identical.
	ColoMeshDegree int
}

// Small returns a world small enough for fast unit tests.
func Small() Config {
	return Config{
		Seed:            1,
		NumMetros:       10,
		FacilityDensity: 5,
		NumIXPs:         8,
		InactiveIXPs:    2,
		NumTier1:        3,
		NumTransit:      8,
		NumContent:      3,
		NumAccess:       20,
		NumEnterprise:   8,
		RemotePeerFrac:  0.25,
		TetheringFrac:   0.15,
	}
}

// Medium returns a world between Small and Default: big enough that
// engine hot paths dominate wall time, small enough for a CI bench run.
func Medium() Config {
	return Config{
		Seed:            7,
		NumMetros:       24,
		FacilityDensity: 8,
		NumIXPs:         24,
		InactiveIXPs:    3,
		NumTier1:        6,
		NumTransit:      24,
		NumContent:      6,
		NumAccess:       70,
		NumEnterprise:   30,
		RemotePeerFrac:  0.22,
		TetheringFrac:   0.13,
	}
}

// Default returns the standard experiment world: a few hundred facilities,
// ~60 IXPs and ~300 ASes.
func Default() Config {
	return Config{
		Seed:            42,
		NumMetros:       54, // the Figure 3 metros plus the first tail
		FacilityDensity: 12,
		NumIXPs:         55,
		InactiveIXPs:    6,
		NumTier1:        10,
		NumTransit:      50,
		NumContent:      12,
		NumAccess:       150,
		NumEnterprise:   80,
		RemotePeerFrac:  0.20,
		TetheringFrac:   0.12,
	}
}

// PaperScale returns a configuration whose facility and IXP counts
// approach the paper's dataset (1,694 facilities, 368 IXPs). Use for
// benchmarks; generation takes a few seconds.
func PaperScale() Config {
	c := Default()
	c.NumMetros = 0 // every embedded metro
	c.FacilityDensity = 40
	c.NumIXPs = 120
	c.NumAccess = 400
	c.NumTransit = 90
	c.NumEnterprise = 200
	return c
}

// Large returns an internet-scale world: tens of thousands of ASes,
// hundreds of metros and on the order of a million interfaces.
// Generation takes tens of seconds, and a convergence run needs a tight
// iteration and follow-up budget to finish in minutes.
func Large() Config {
	return Config{
		Seed:            9,
		NumMetros:       0,   // every embedded metro...
		SyntheticMetros: 172, // ...plus satellite markets (260 total)
		FacilityDensity: 16,
		NumIXPs:         160,
		InactiveIXPs:    12,
		NumTier1:        12,
		NumTransit:      800,
		NumContent:      64,
		NumAccess:       18000,
		NumEnterprise:   12000,
		RemotePeerFrac:  0.20,
		TetheringFrac:   0.08,
		ColoMeshDegree:  10,
	}
}

func (c Config) withDefaults() Config {
	if c.NumMetros <= 0 || c.NumMetros > MaxMetros {
		c.NumMetros = MaxMetros
	}
	if c.SyntheticMetros < 0 {
		c.SyntheticMetros = 0
	}
	if c.SyntheticMetros > maxSyntheticMetros {
		c.SyntheticMetros = maxSyntheticMetros
	}
	if c.ColoMeshDegree < 0 {
		c.ColoMeshDegree = 0
	}
	if c.FacilityDensity <= 0 {
		c.FacilityDensity = 12
	}
	if c.NumIXPs <= 0 {
		c.NumIXPs = 10
	}
	if c.NumTier1 <= 0 {
		c.NumTier1 = 3
	}
	return c
}
