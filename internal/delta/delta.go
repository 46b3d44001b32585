// Package delta defines the typed change vocabulary the incremental
// pipeline consumes: registry facility-list changes, IXP membership
// changes, BGP sessions coming up or down, and cross-connects being
// provisioned or retired. A delta log is the production-shaped input
// "re-converge on a delta" needs — public IXP data sources churn
// constantly (PAPERS.md, *A Comparative Look into Public IXP
// Datasets*), and re-running the world on every row change does not
// scale to a continuous mapping service.
//
// Deltas live at two layers:
//
//   - World-expressible kinds (the facility-list four) mutate ground
//     truth; ApplyToWorld replays them onto a cloned world and Churn
//     guarantees the replayed post-state is byte-identical to the
//     world it hands back.
//   - View/observation kinds (membership, session, cross-connect)
//     mutate the researcher's registry view (ApplyToDatabase) and the
//     observation corpus (cfs.Pipeline.ApplyDelta); ground truth is
//     untouched, exactly like a registry row appearing or a session
//     flapping under an unchanged physical topology.
//
// The package is clock- and math/rand-free (enforced by cfslint's
// noclock pass): churn generation runs on an embedded splitmix64
// stream so a (world, n, seed) triple always yields the same log.
package delta

import (
	"errors"
	"fmt"

	"facilitymap/internal/netaddr"
	"facilitymap/internal/world"
)

// Kind discriminates delta records. The string values are the JSONL
// wire names; they are part of the log format and must stay stable.
type Kind string

const (
	// ASFacilityAdd / ASFacilityRemove change an AS's colocation
	// facility list (a PeeringDB fac-set row appearing or vanishing).
	ASFacilityAdd    Kind = "as_facility_add"
	ASFacilityRemove Kind = "as_facility_remove"
	// IXPFacilityAdd / IXPFacilityRemove change where an IXP's fabric
	// is present (the JPNAP-style facility-association churn of §3.1.2).
	IXPFacilityAdd    Kind = "ixp_facility_add"
	IXPFacilityRemove Kind = "ixp_facility_remove"
	// MemberAdd / MemberRemove change an IXP's member list together
	// with the member's peering-LAN address registration (netixlan).
	MemberAdd    Kind = "member_add"
	MemberRemove Kind = "member_remove"
	// SessionUp / SessionDown add or retract a looking-glass BGP
	// session listing.
	SessionUp   Kind = "session_up"
	SessionDown Kind = "session_down"
	// CrossConnectAdd / CrossConnectRemove add or retract a private
	// cross-connect observation (a two-hop path over the connect).
	CrossConnectAdd    Kind = "xconnect_add"
	CrossConnectRemove Kind = "xconnect_remove"
)

// Valid reports whether k is a known kind.
func (k Kind) Valid() bool {
	switch k {
	case ASFacilityAdd, ASFacilityRemove, IXPFacilityAdd, IXPFacilityRemove,
		MemberAdd, MemberRemove, SessionUp, SessionDown,
		CrossConnectAdd, CrossConnectRemove:
		return true
	}
	return false
}

// WorldExpressible reports whether ApplyToWorld can replay k onto
// ground truth. Membership, session and cross-connect deltas live at
// the view/observation layer only.
func (k Kind) WorldExpressible() bool {
	switch k {
	case ASFacilityAdd, ASFacilityRemove, IXPFacilityAdd, IXPFacilityRemove:
		return true
	}
	return false
}

// Surgical reports whether log holds only facility-list deltas — the
// batches cfs.Pipeline.ApplyDelta repairs in place. One membership,
// session or cross-connect delta makes the whole batch re-ingest the
// observation corpus instead. An empty batch (a heartbeat) is
// surgical.
func Surgical(log []Delta) bool {
	for _, d := range log {
		if !d.Kind.WorldExpressible() {
			return false
		}
	}
	return true
}

// ErrUnknownFacility marks a facility-list delta whose facility is not
// in the registry the pipeline was built over. Such a batch is
// rejected whole, before any of it is applied.
var ErrUnknownFacility = errors.New("delta: facility not in the registry")

// Delta is one typed change. Only the fields the Kind implies are
// meaningful; the rest stay zero:
//
//	ASFacility*:    AS, Facility
//	IXPFacility*:   IXP, Facility
//	Member*:        IXP, AS, Port
//	Session*:       LGAS, LocalIP, PeerIP, PeerAS (down: PeerIP, PeerAS)
//	CrossConnect*:  NearIP, FarIP, Router (the observing vantage router)
type Delta struct {
	Kind     Kind
	AS       world.ASN
	Facility world.FacilityID
	IXP      world.IXPID

	Port netaddr.IP // member's peering-LAN address

	LGAS    world.ASN
	LocalIP netaddr.IP
	PeerIP  netaddr.IP
	PeerAS  world.ASN

	NearIP netaddr.IP
	FarIP  netaddr.IP
	Router world.RouterID
}

func (d Delta) String() string {
	switch d.Kind {
	case ASFacilityAdd, ASFacilityRemove:
		return fmt.Sprintf("%s AS%d fac%d", d.Kind, d.AS, d.Facility)
	case IXPFacilityAdd, IXPFacilityRemove:
		return fmt.Sprintf("%s IXP%d fac%d", d.Kind, d.IXP, d.Facility)
	case MemberAdd, MemberRemove:
		return fmt.Sprintf("%s IXP%d AS%d port %v", d.Kind, d.IXP, d.AS, d.Port)
	case SessionUp, SessionDown:
		return fmt.Sprintf("%s AS%d peer %v (AS%d)", d.Kind, d.LGAS, d.PeerIP, d.PeerAS)
	case CrossConnectAdd, CrossConnectRemove:
		return fmt.Sprintf("%s %v <-> %v", d.Kind, d.NearIP, d.FarIP)
	default:
		return string(d.Kind)
	}
}
