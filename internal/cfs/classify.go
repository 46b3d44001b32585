package cfs

import (
	"facilitymap/internal/netaddr"
	"facilitymap/internal/world"
)

// RouterCensus summarises router roles from the observational data:
// §5 reports that 39% of observed routers implement both public and
// private peering, and 11.9% of public-peering routers peer over two or
// three IXPs.
type RouterCensus struct {
	Routers       int // routers observed (alias sets incl. singletons)
	PublicRouters int // routers with at least one public peering
	MultiRole     int // routers with both public and private peerings
	MultiIXP      int // public routers peering over >= 2 IXPs
}

// Census computes router-role statistics from a run's links and alias
// sets. Interfaces without alias information count as single-interface
// routers.
func (r *Result) Census() RouterCensus {
	// Number the routers densely: one per alias set, one per interface
	// outside every set. group[id] is alias set id's router number + 1
	// (0: not numbered yet).
	router := make(map[netaddr.IP]int32, len(r.Interfaces))
	var group []int32
	next := int32(0)
	//cfslint:ordered router numbers are arbitrary labels: only the count and the per-router role flags below reach the census, never the numbering order
	for ip := range r.Interfaces {
		id := -1
		if r.aliasSetOf != nil {
			id = r.aliasSetOf(ip)
		}
		if id < 0 {
			router[ip] = next
			next++
			continue
		}
		for len(group) <= id {
			group = append(group, 0)
		}
		if group[id] == 0 {
			next++
			group[id] = next
		}
		router[ip] = group[id] - 1
	}

	// A router's IXP count only matters up to two, so each keeps the
	// first IXP it was seen on and a flag for any other.
	type role struct {
		public, private, multiIXP bool
		ixp                       world.IXPID
	}
	roles := make([]role, next)
	public := func(ip netaddr.IP, ix world.IXPID) {
		g, ok := router[ip]
		if !ok {
			return
		}
		rl := &roles[g]
		if !rl.public {
			rl.public, rl.ixp = true, ix
		} else if rl.ixp != ix {
			rl.multiIXP = true
		}
	}
	private := func(ip netaddr.IP) {
		if g, ok := router[ip]; ok {
			roles[g].private = true
		}
	}
	for _, a := range r.Links {
		if a.Public {
			public(a.Near, a.IXP)
			public(a.FarPort, a.IXP)
			continue
		}
		private(a.Near)
		private(a.Far)
	}
	c := RouterCensus{Routers: int(next)}
	for _, rl := range roles {
		if rl.public {
			c.PublicRouters++
			if rl.multiIXP {
				c.MultiIXP++
			}
			if rl.private {
				c.MultiRole++
			}
		}
	}
	return c
}
