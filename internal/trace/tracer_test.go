package trace

import (
	"reflect"
	"testing"

	"facilitymap/internal/bgp"
	"facilitymap/internal/netaddr"
	"facilitymap/internal/obs"
	"facilitymap/internal/world"
)

// reachablePair finds a source router and a core address whose
// traceroute reaches the destination across at least four hops.
func reachablePair(t *testing.T, w *world.World, e *Engine) (world.RouterID, netaddr.IP) {
	t.Helper()
	for _, from := range w.ASes {
		for _, to := range w.ASes {
			if from == to {
				continue
			}
			src := from.Routers[0]
			dst := w.Interfaces[w.Routers[to.Routers[0]].Core()].IP
			if p := e.Traceroute(src, dst); p.Reached && len(p.Hops) >= 4 {
				return src, dst
			}
		}
	}
	t.Fatal("no reachable pair with four or more hops in the small world")
	return 0, 0
}

// firstMembership returns an IXP membership whose router can launch a
// fabric ping to its own port.
func firstMembership(t *testing.T, w *world.World) *world.Membership {
	t.Helper()
	if len(w.Memberships) == 0 {
		t.Fatal("small world has no IXP memberships")
	}
	return w.Memberships[0]
}

// TestUntracedMeasurementsAllocs: with no tracer installed, a
// measurement builds no event. A reachable traceroute allocates only
// its own hop slice, and an answered ping or fabric ping allocates
// nothing.
func TestUntracedMeasurementsAllocs(t *testing.T) {
	w := world.Generate(world.Small())
	e := New(w, bgp.Compute(w), 11)
	src, dst := reachablePair(t, w, e)
	if got := testing.AllocsPerRun(100, func() { e.Traceroute(src, dst) }); got != 1 {
		t.Errorf("Traceroute allocates %v times per call, want 1 (its hops)", got)
	}
	if _, ok := e.Ping(src, dst, 3); !ok {
		t.Fatal("ping to a reachable core interface should answer")
	}
	if got := testing.AllocsPerRun(100, func() { e.Ping(src, dst, 3) }); got != 0 {
		t.Errorf("Ping allocates %v times per call, want 0", got)
	}
	m := firstMembership(t, w)
	port := w.Interfaces[m.Port].IP
	if got := testing.AllocsPerRun(100, func() { e.FabricPing(m.Router, port, 2) }); got != 0 {
		t.Errorf("FabricPing allocates %v times per call, want 0", got)
	}
}

// TestTracedMeasurementEvents: with a tracer installed, every
// traceroute, ping and launched fabric ping emits exactly one
// measurement event, with the fields below in this order. An
// unlaunched fabric ping emits none.
func TestTracedMeasurementEvents(t *testing.T) {
	w := world.Generate(world.Small())
	e := New(w, bgp.Compute(w), 11)
	src, dst := reachablePair(t, w, e)
	o := obs.New(64)
	e.Instrument(o)
	unrouted := netaddr.MustParseIP("203.0.113.250")
	m := firstMembership(t, w)
	port := w.Interfaces[m.Port].IP

	silentOf := func(p Path) int {
		n := 0
		for _, h := range p.Hops {
			if !h.Responded {
				n++
			}
		}
		return n
	}
	var want [][]obs.Field
	p := e.TracerouteFlow(src, dst, 3)
	want = append(want, []obs.Field{
		obs.F("probe", "traceroute"), obs.F("src_router", int(src)), obs.F("dst", dst.String()),
		obs.F("flow", uint32(3)), obs.F("hops", len(p.Hops)), obs.F("silent", silentOf(p)),
		obs.F("reached", true),
	})
	lost := e.Traceroute(src, unrouted)
	want = append(want, []obs.Field{
		obs.F("probe", "traceroute"), obs.F("src_router", int(src)), obs.F("dst", unrouted.String()),
		obs.F("flow", uint32(0)), obs.F("hops", len(lost.Hops)), obs.F("silent", silentOf(lost)),
		obs.F("reached", false),
	})
	_, answered := e.Ping(src, dst, 4)
	want = append(want, []obs.Field{
		obs.F("probe", "ping"), obs.F("src_router", int(src)), obs.F("dst", dst.String()),
		obs.F("count", 4), obs.F("answered", answered),
	})
	e.Ping(src, unrouted, 2)
	want = append(want, []obs.Field{
		obs.F("probe", "ping"), obs.F("src_router", int(src)), obs.F("dst", unrouted.String()),
		obs.F("count", 2), obs.F("answered", false),
	})
	if _, ok := e.FabricPing(src, dst, 3); ok {
		t.Fatal("a fabric ping to a core interface must not launch")
	}
	if _, ok := e.FabricPing(m.Router, port, 2); !ok {
		t.Fatal("a member's fabric ping to its own port should answer")
	}
	want = append(want, []obs.Field{
		obs.F("probe", "fabric_ping"), obs.F("src_router", int(m.Router)), obs.F("dst", port.String()),
		obs.F("count", 2),
	})

	if !answered || !p.Reached || lost.Reached {
		t.Fatalf("fixture broke: ping answered %v, traceroute reached %v, unrouted traceroute reached %v",
			answered, p.Reached, lost.Reached)
	}
	events := o.Tracer.Events()
	if len(events) != len(want) {
		t.Fatalf("got %d events for %d measurements: %+v", len(events), len(want), events)
	}
	for i, ev := range events {
		if ev.Kind != "measurement" {
			t.Errorf("event %d has kind %q, want measurement", i, ev.Kind)
		}
		if !reflect.DeepEqual(ev.Fields, want[i]) {
			t.Errorf("event %d fields:\n got  %#v\n want %#v", i, ev.Fields, want[i])
		}
	}
}

// TestTracerouteHopsOwned: the engine builds hops in one reused
// buffer, so every returned path must own its hops. The retained
// corpus keeps every path, and a later traceroute must not rewrite an
// earlier one.
func TestTracerouteHopsOwned(t *testing.T) {
	w := world.Generate(world.Small())
	e := New(w, bgp.Compute(w), 11)
	src, dst := reachablePair(t, w, e)
	first := e.Traceroute(src, dst)
	kept := append([]Hop(nil), first.Hops...)
	for _, to := range w.ASes[:20] {
		e.Traceroute(to.Routers[0], dst)
		e.Traceroute(src, w.Interfaces[w.Routers[to.Routers[0]].Core()].IP)
	}
	if !reflect.DeepEqual(first.Hops, kept) {
		t.Fatalf("a later traceroute rewrote an earlier path's hops:\n got  %+v\n want %+v", first.Hops, kept)
	}
	if empty := e.Traceroute(src, netaddr.MustParseIP("203.0.113.250")); empty.Hops != nil {
		t.Errorf("an unrouted traceroute returned hops %+v, want nil", empty.Hops)
	}
}
