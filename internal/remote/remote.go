// Package remote implements the RTT-based remote-peering inference of
// Castro et al. (paper ref [14], used by CFS step 2, §4.2): ping an IXP
// member's peering-LAN address from vantage points in the IXP's own
// metro, take the minimum over repeated probes at different times to
// shed transient congestion, and call the member remote when even the
// best RTT is too high for metro-local equipment.
package remote

import (
	"slices"
	"time"

	"facilitymap/internal/geo"
	"facilitymap/internal/netaddr"
	"facilitymap/internal/platform"
	"facilitymap/internal/registry"
	"facilitymap/internal/world"
)

// Detector classifies IXP members as local or remote.
type Detector struct {
	svc *platform.Service
	db  *registry.Database

	// Threshold above which the member counts as remote. Studies on the
	// real Internet use 1-2ms for same-building equipment; the synthetic
	// world's valley-free detours warrant more slack.
	Threshold time.Duration
	// ProbesPerVP is the number of repeated pings per vantage point.
	ProbesPerVP int
	// MaxVPs bounds how many in-metro vantage points are used.
	MaxVPs int

	// Pings counts issued probes for budget reporting.
	Pings int

	// local caches, per IXP, the looking glasses within localRadiusKm
	// of one of its facilities, for the facility list it was computed
	// for: a facility-list edit forces a recompute.
	local map[world.IXPID]localLGs
}

// localRadiusKm is how close a looking glass must sit to one of an
// IXP's facilities to serve as a local reference. A router housed in a
// facility sits at the facility's coordinates, so a looking glass at
// one of the IXP's own facilities is 0 km away; the radius is kept
// well under a metro's spread (facilities and unhoused routers scatter
// up to about 5 km around its centre) so that looking glasses elsewhere
// in the city, which may reach the fabric remotely, mostly do not
// qualify.
const localRadiusKm = 3

// localLGs is the cached list of one IXP's local looking glasses, in
// fleet order, with the facility list it was computed for.
type localLGs struct {
	facilities []world.FacilityID
	vps        []*platform.VantagePoint
}

// NewDetector builds a detector with the paper's methodology defaults
// (multiple measurements, minimum filtering).
func NewDetector(svc *platform.Service, db *registry.Database) *Detector {
	return &Detector{
		svc:         svc,
		db:          db,
		Threshold:   2 * time.Millisecond,
		ProbesPerVP: 5,
		MaxVPs:      8,
	}
}

// IsRemote reports whether the member that owns the given IXP port
// address peers remotely. ok is false when no in-metro vantage point can
// measure the address.
func (d *Detector) IsRemote(port netaddr.IP, ix world.IXPID) (remote, ok bool) {
	rec, known := d.db.IXPs[ix]
	if !known || len(rec.Facilities) == 0 {
		return false, false
	}
	// Measure across the switch fabric from looking glasses operated by
	// *local* members of the same exchange (Castro et al.'s vantage
	// setup): layer-2 adjacency bypasses BGP detours entirely. A VP
	// qualifies when it is physically at one of the IXP's facilities —
	// a local port — so remote member LGs never serve as references.
	best := time.Duration(-1)
	used := 0
	for _, vp := range d.localLGs(ix, rec) {
		if used >= d.MaxVPs {
			break
		}
		rtt, ok := d.svc.Engine().FabricPing(vp.Router, port, d.ProbesPerVP)
		if !ok {
			continue // not a member port on this fabric
		}
		used++
		d.Pings += d.ProbesPerVP
		if best < 0 || rtt < best {
			best = rtt
		}
	}
	if best < 0 {
		return false, false
	}
	return best > d.Threshold, true
}

// localLGs returns the looking glasses within localRadiusKm of one of
// the IXP's facilities, in fleet order, computing the list only when
// the IXP's facility list differs from the one it was cached for.
func (d *Detector) localLGs(ix world.IXPID, rec *registry.IXPRecord) []*platform.VantagePoint {
	if c, ok := d.local[ix]; ok && slices.Equal(c.facilities, rec.Facilities) {
		return c.vps
	}
	var vps []*platform.VantagePoint
	for _, vp := range d.svc.Fleet().VPs {
		if vp.Kind == platform.LookingGlass && d.distToIXP(vp, rec) <= localRadiusKm {
			vps = append(vps, vp)
		}
	}
	if d.local == nil {
		d.local = make(map[world.IXPID]localLGs)
	}
	d.local[ix] = localLGs{facilities: slices.Clone(rec.Facilities), vps: vps}
	return vps
}

// distToIXP returns the distance from a vantage point to the nearest
// facility the registry associates with the exchange, in km.
func (d *Detector) distToIXP(vp *platform.VantagePoint, rec *registry.IXPRecord) float64 {
	best := -1.0
	for _, f := range rec.Facilities {
		fr, ok := d.db.Facilities[f]
		if !ok {
			continue
		}
		km := geo.DistanceKm(vp.Coord, fr.Coord)
		if best < 0 || km < best {
			best = km
		}
	}
	if best < 0 {
		return 1e12
	}
	return best
}
