package cfs

import (
	"facilitymap/internal/netaddr"
	"facilitymap/internal/world"
)

// referenceCensus is the map-based router census that Census replaced,
// kept as the oracle the dense implementation is compared against.
func referenceCensus(r *Result) RouterCensus {
	// Group interfaces into routers via the recorded alias set IDs.
	router := make(map[netaddr.IP]int, len(r.Interfaces))
	next := 0
	if r.aliasSetOf != nil {
		groups := make(map[int]int)
		for ip := range r.Interfaces {
			if id := r.aliasSetOf(ip); id >= 0 {
				g, ok := groups[id]
				if !ok {
					g = next
					next++
					groups[id] = g
				}
				router[ip] = g
			}
		}
	}
	for ip := range r.Interfaces {
		if _, ok := router[ip]; !ok {
			router[ip] = next
			next++
		}
	}

	type role struct {
		public  bool
		private bool
		ixps    map[world.IXPID]bool
	}
	roles := make(map[int]*role)
	get := func(ip netaddr.IP) *role {
		g, ok := router[ip]
		if !ok {
			return nil
		}
		rl := roles[g]
		if rl == nil {
			rl = &role{ixps: make(map[world.IXPID]bool)}
			roles[g] = rl
		}
		return rl
	}
	for _, a := range r.Links {
		if a.Public {
			if rl := get(a.Near); rl != nil {
				rl.public = true
				rl.ixps[a.IXP] = true
			}
			if rl := get(a.FarPort); rl != nil {
				rl.public = true
				rl.ixps[a.IXP] = true
			}
			continue
		}
		if rl := get(a.Near); rl != nil {
			rl.private = true
		}
		if rl := get(a.Far); rl != nil {
			rl.private = true
		}
	}
	var c RouterCensus
	c.Routers = next
	//cfslint:ordered integer tallies only: every branch is a commutative += on the census, so iteration order cannot reach the result
	for _, rl := range roles {
		if rl.public {
			c.PublicRouters++
			if len(rl.ixps) >= 2 {
				c.MultiIXP++
			}
		}
		if rl.public && rl.private {
			c.MultiRole++
		}
	}
	return c
}
