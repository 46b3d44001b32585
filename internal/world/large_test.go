package world

import "testing"

// TestLargeProfileSmoke generates the internet-scale profile and checks
// the generator invariants a Large-world CFS run depends on: population
// floors (tens of thousands of ASes, hundreds of metros, order of a
// million interfaces), no orphan members, unique addressing, and
// well-formed routers. Generation takes ~10s, so -short skips it; the
// nightly CI job runs it in full.
func TestLargeProfileSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("Large profile generation is too slow for -short")
	}
	w := Generate(Large())

	if n := len(w.ASes); n < 20000 {
		t.Errorf("Large world has %d ASes, want tens of thousands", n)
	}
	if n := len(w.Metros); n < 200 {
		t.Errorf("Large world has %d metros, want hundreds", n)
	}
	if n := len(w.Interfaces); n < 500000 {
		t.Errorf("Large world has %d interfaces, want order of a million", n)
	}

	// Unique ASNs and at least one router per AS.
	asns := make(map[ASN]bool, len(w.ASes))
	for _, as := range w.ASes {
		if asns[as.ASN] {
			t.Fatalf("duplicate ASN %v", as.ASN)
		}
		asns[as.ASN] = true
		if len(as.Routers) == 0 {
			t.Fatalf("%v has no routers", as.ASN)
		}
		for _, f := range as.Facilities {
			if f < 0 || int(f) >= len(w.Facilities) {
				t.Fatalf("%v lists invalid facility %d", as.ASN, f)
			}
		}
	}

	// Unique interface addressing and dense IDs.
	ips := make(map[uint32]InterfaceID, len(w.Interfaces))
	for i, ifc := range w.Interfaces {
		if int(ifc.ID) != i {
			t.Fatalf("interface %d has ID %d", i, ifc.ID)
		}
		if prev, dup := ips[uint32(ifc.IP)]; dup {
			t.Fatalf("interfaces %d and %d share IP %v", prev, ifc.ID, ifc.IP)
		}
		ips[uint32(ifc.IP)] = ifc.ID
		if w.Routers[ifc.Router] == nil {
			t.Fatalf("interface %d references missing router %d", i, ifc.Router)
		}
	}

	// Every router's first interface is its core interface, and every
	// router belongs to its AS's router list world (checked via AS field).
	for i, r := range w.Routers {
		if int(r.ID) != i {
			t.Fatalf("router %d has ID %d", i, r.ID)
		}
		if len(r.Interfaces) == 0 || w.Interfaces[r.Interfaces[0]].Kind != CoreIface {
			t.Fatalf("router %d lacks a core interface", i)
		}
		if w.ASByNumber(r.AS) == nil {
			t.Fatalf("router %d owned by unknown %v", i, r.AS)
		}
	}

	// No orphan members: the membership's router belongs to the member
	// AS, and the port is an IXP port of that exchange on that router.
	for _, m := range w.Memberships {
		r := w.Routers[m.Router]
		if r.AS != m.AS {
			t.Fatalf("membership %d: router %d belongs to %v, not member %v", m.ID, m.Router, r.AS, m.AS)
		}
		port := w.Interfaces[m.Port]
		if port.Router != m.Router || port.Kind != IXPPort || port.IXP != m.IXP {
			t.Fatalf("membership %d has inconsistent port %+v", m.ID, *port)
		}
		if w.IXPs[m.IXP].Inactive {
			t.Fatalf("membership %d joined inactive IXP %d", m.ID, m.IXP)
		}
	}

	// Links reference interfaces on their own routers.
	for _, l := range w.Links {
		if w.Interfaces[l.AIface].Router != l.A || w.Interfaces[l.BIface].Router != l.B {
			t.Fatalf("link %d interfaces disagree with its routers", l.ID)
		}
	}
}
