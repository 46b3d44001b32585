package facilitymap

import (
	"encoding/json"
	"reflect"
	"sort"
	"testing"

	"facilitymap/internal/cfs"
	"facilitymap/internal/netaddr"
)

// TestMaterializeEquivalence pins the serving tables' internal
// consistency: Lookup, InterfaceJSON and the EachInterfaceJSON dump
// agree record for record with the Interfaces() listing, and
// Materialize leaves the tables as they were.
func TestMaterializeEquivalence(t *testing.T) {
	sys := smallSystem(t)
	m := sys.MapInterconnections()

	infos := m.Interfaces()
	if len(infos) == 0 {
		t.Fatal("no interfaces in the snapshot")
	}
	summary := m.Summarize()
	m.Materialize(3)
	if got := m.Summarize(); got != summary {
		t.Fatalf("Materialize changed the digest: %+v, want %+v", got, summary)
	}
	if got := m.Interfaces(); !reflect.DeepEqual(got, infos) {
		t.Fatal("Materialize changed the listing")
	}

	for _, want := range infos {
		got, ok := m.Lookup(want.IP)
		if !ok || !reflect.DeepEqual(got, want) {
			t.Fatalf("Lookup(%s) = %+v ok=%v, want %+v", want.IP, got, ok, want)
		}
		rec, ok := m.InterfaceJSON(want.IP)
		if !ok {
			t.Fatalf("InterfaceJSON missed %s", want.IP)
		}
		var decoded InterfaceInfo
		if err := json.Unmarshal(rec, &decoded); err != nil {
			t.Fatalf("InterfaceJSON(%s): %v", want.IP, err)
		}
		if !reflect.DeepEqual(decoded, want) {
			t.Fatalf("InterfaceJSON(%s) decodes to %+v, want %+v", want.IP, decoded, want)
		}
	}

	// The dump iterator yields one record per interface in listing order
	// and honors an early stop.
	i := 0
	m.EachInterfaceJSON(func(rec []byte) bool {
		var decoded InterfaceInfo
		if err := json.Unmarshal(rec, &decoded); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if decoded.IP != infos[i].IP {
			t.Fatalf("record %d is %s, want %s", i, decoded.IP, infos[i].IP)
		}
		i++
		return true
	})
	if i != len(infos) {
		t.Fatalf("iterator yielded %d records, want %d", i, len(infos))
	}
	i = 0
	m.EachInterfaceJSON(func([]byte) bool { i++; return i < 2 })
	if i != 2 {
		t.Fatalf("early stop after %d records, want 2", i)
	}

	// Misses and garbage stay misses.
	if _, ok := m.InterfaceJSON("203.0.113.254"); ok {
		t.Fatal("InterfaceJSON resolved an unknown address")
	}
	if _, ok := m.InterfaceJSON("not-an-ip"); ok {
		t.Fatal("InterfaceJSON accepted an unparsable address")
	}
}

// TestMaterializeDeterministic: two fresh systems over the same
// configuration render byte-identical tables.
func TestMaterializeDeterministic(t *testing.T) {
	collect := func() (blobs [][]byte, pairs int) {
		sys, err := NewSystem(Config{Profile: "small", Seed: 1, MaxIterations: 30})
		if err != nil {
			t.Fatal(err)
		}
		m := sys.MapInterconnections()
		m.EachInterfaceJSON(func(rec []byte) bool {
			blobs = append(blobs, rec)
			return true
		})
		return blobs, m.ASPairs()
	}
	b1, p1 := collect()
	b2, p2 := collect()
	if p1 != p2 {
		t.Fatalf("AS-pair index size differs between runs: %d vs %d", p1, p2)
	}
	if len(b1) != len(b2) {
		t.Fatalf("table sizes differ: %d vs %d", len(b1), len(b2))
	}
	for i := range b1 {
		if string(b1[i]) != string(b2[i]) {
			t.Fatalf("record %d differs between runs:\n%s\n%s", i, b1[i], b2[i])
		}
	}
}

// ---- Interfaces() ordering benchmark -----------------------------------

// syntheticInterfaces builds an interface map at internet-profile scale
// without paying world generation: the sort cost depends only on the
// key distribution, not on how the inferences were produced.
func syntheticInterfaces(n int) map[netaddr.IP]*cfs.InterfaceResult {
	out := make(map[netaddr.IP]*cfs.InterfaceResult, n)
	ip := uint32(0x0a000000)
	for i := 0; i < n; i++ {
		// An LCG walk spreads keys across the space deterministically.
		ip = ip*1664525 + 1013904223
		out[netaddr.IP(ip)] = &cfs.InterfaceResult{
			IP:       netaddr.IP(ip),
			Resolved: i%3 != 0,
		}
	}
	return out
}

// oldInterfaceOrder is the pre-overhaul comparator — two map lookups
// per comparison — kept as the benchmark baseline for interfaceOrder.
func oldInterfaceOrder(interfaces map[netaddr.IP]*cfs.InterfaceResult) []netaddr.IP {
	ips := make([]netaddr.IP, 0, len(interfaces))
	for ip := range interfaces {
		ips = append(ips, ip)
	}
	sort.Slice(ips, func(i, j int) bool {
		a, b := interfaces[ips[i]], interfaces[ips[j]]
		if a.Resolved != b.Resolved {
			return a.Resolved
		}
		return ips[i] < ips[j]
	})
	return ips
}

func benchInterfaceOrder(b *testing.B, order func(map[netaddr.IP]*cfs.InterfaceResult) []netaddr.IP) {
	// ~the large profile's interface population.
	m := syntheticInterfaces(1 << 17)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := order(m); len(got) != len(m) {
			b.Fatalf("order dropped entries: %d of %d", len(got), len(m))
		}
	}
}

func BenchmarkInterfaceOrder(b *testing.B)    { benchInterfaceOrder(b, interfaceOrder) }
func BenchmarkInterfaceOrderOld(b *testing.B) { benchInterfaceOrder(b, oldInterfaceOrder) }

// TestInterfaceOrderMatchesOld pins that the precomputed-key sort is a
// pure optimization: both comparators produce the identical order.
func TestInterfaceOrderMatchesOld(t *testing.T) {
	m := syntheticInterfaces(4096)
	got, want := interfaceOrder(m), oldInterfaceOrder(m)
	if !reflect.DeepEqual(got, want) {
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("order diverges at %d: %v vs %v", i, got[i], want[i])
			}
		}
		t.Fatal("orders differ in length")
	}
}
