package facilitymap

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"facilitymap/internal/cfs"
	"facilitymap/internal/delta"
	"facilitymap/internal/netaddr"
	"facilitymap/internal/world"
)

// TestIncrementalTablesMatchFullBuild is the oracle for the tables Apply
// builds from its predecessor. Over a churn stream mixing surgical,
// re-ingestion and empty heartbeat batches, every published snapshot
// must answer every accessor byte for byte like a full build (no
// predecessor) over the same cfs.Result — across worlds, Explain on
// and off, and GOMAXPROCS 1 and 4 (the w= in the subtest names). On
// surgical batches, each record whose inference did not change must be
// the predecessor's own blob, not an equal re-rendering (heartbeats are
// surgical batches too).
func TestIncrementalTablesMatchFullBuild(t *testing.T) {
	for _, profile := range []string{"small", "medium"} {
		for _, explain := range []bool{false, true} {
			for _, procs := range []int{1, 4} {
				profile, explain, procs := profile, explain, procs
				t.Run(fmt.Sprintf("%s/explain=%v/w=%d", profile, explain, procs), func(t *testing.T) {
					if profile == "medium" && testing.Short() {
						t.Skip("medium-world epoch stream is slow")
					}
					atProcs(t, procs)
					runIncrementalOracle(t, Config{
						Profile: profile, Seed: 42, MaxIterations: 100, Explain: explain,
					})
				})
			}
		}
	}
}

// atProcs holds GOMAXPROCS at n until t ends. The system builds its
// snapshots on one goroutine, so no table may depend on the processor
// count. GOMAXPROCS is process-wide, so a test that calls atProcs must
// not call t.Parallel.
func atProcs(t *testing.T, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

func runIncrementalOracle(t *testing.T, cfg Config) {
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	prev := sys.MapInterconnections()
	requireSameTables(t, prev, newMapping(sys, prev.res, nil))

	log, _ := delta.Churn(sys.Env.W, 24, 9)
	kinds := map[string]int{}
	reused := 0
	for i, d := range log {
		batch := []delta.Delta{d}
		if i%4 == 3 {
			batch = nil
		}
		m, err := sys.Apply(batch)
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		requireSameTables(t, m, newMapping(sys, m.res, nil))
		switch {
		case len(batch) == 0:
			kinds["heartbeat"]++
		case delta.Surgical(batch):
			kinds["surgical"]++
		default:
			kinds["reingest"]++
		}
		if delta.Surgical(batch) {
			reused += requireReuse(t, prev, m)
		}
		prev = m
	}
	if len(kinds) != 3 {
		t.Fatalf("stream lacks a batch class: %v", kinds)
	}
	if reused == 0 {
		t.Fatal("no surgical batch reused a record")
	}
}

// TestIncrementalCarryOverConditions edits one input at a time in a
// copy of a converged Result and checks that exactly the tables
// depending on it are rebuilt. Natural churn rarely moves an AS-pair
// key without changing the link count, so the index rule gets a
// direct test here.
func TestIncrementalCarryOverConditions(t *testing.T) {
	sys := smallSystem(t)
	m0 := sys.MapInterconnections()
	successor := func(edit func(r *cfs.Result)) (*Mapping, *Mapping) {
		t.Helper()
		r := *m0.res
		r.Interfaces = make(map[netaddr.IP]*cfs.InterfaceResult, len(m0.res.Interfaces))
		for ip, ir := range m0.res.Interfaces {
			r.Interfaces[ip] = ir
		}
		r.Links = append([]*cfs.Adjacency(nil), m0.res.Links...)
		edit(&r)
		inc := newMapping(sys, &r, m0)
		requireSameTables(t, inc, newMapping(sys, &r, nil))
		return inc, m0
	}
	sameMap := func(a, b map[asPair][]int) bool {
		return reflect.ValueOf(a).Pointer() == reflect.ValueOf(b).Pointer()
	}
	sameSlice := func(a, b []netaddr.IP) bool { return &a[0] == &b[0] }

	m1, _ := successor(func(*cfs.Result) {})
	if !sameSlice(m1.order, m0.order) || !sameMap(m1.ixn, m0.ixn) || requireReuse(t, m0, m1) != len(m0.order) {
		t.Fatal("an unchanged Result did not carry every table over")
	}

	// A link's near AS changes: the AS-pair index is rebuilt.
	var li int
	for li = range m0.res.Links {
		if m0.far[li] != 0 && m0.res.Links[li].NearAS != 0 && m0.far[li] != m0.res.Links[li].NearAS {
			break
		}
	}
	m2, _ := successor(func(r *cfs.Result) {
		l := *r.Links[li]
		l.NearAS = m0.far[li]
		r.Links[li] = &l
	})
	if sameMap(m2.ixn, m0.ixn) || !sameSlice(m2.order, m0.order) {
		t.Fatal("a moved link key did not rebuild (only) the AS-pair index")
	}

	// A far port changes owner: its record and the AS-pair index are
	// rebuilt, the listing is not.
	var port netaddr.IP
	for _, l := range m0.res.Links {
		if l.Public && m0.res.Interfaces[l.FarPort] != nil {
			port = l.FarPort
			break
		}
	}
	m3, _ := successor(func(r *cfs.Result) {
		ir := *r.Interfaces[port]
		ir.Owner++
		r.Interfaces[port] = &ir
	})
	if sameMap(m3.ixn, m0.ixn) || !sameSlice(m3.order, m0.order) || requireReuse(t, m0, m3) != len(m0.order)-1 {
		t.Fatal("a far-port owner change did not rebuild exactly its record and the AS-pair index")
	}

	// A Resolved flag flips: the listing is rebuilt.
	m4, _ := successor(func(r *cfs.Result) {
		ir := *r.Interfaces[m0.order[0]]
		ir.Resolved = !ir.Resolved
		r.Interfaces[m0.order[0]] = &ir
	})
	if sameSlice(m4.order, m0.order) || !sameMap(m4.ixn, m0.ixn) {
		t.Fatal("a flipped Resolved flag did not rebuild (only) the listing")
	}
}

// requireSameTables compares every serving accessor of an incrementally
// built snapshot with the full build of the same Result.
func requireSameTables(t *testing.T, inc, full *Mapping) {
	t.Helper()
	epoch := inc.Epoch()
	var a, b [][]byte
	inc.EachInterfaceJSON(func(rec []byte) bool { a = append(a, rec); return true })
	full.EachInterfaceJSON(func(rec []byte) bool { b = append(b, rec); return true })
	if len(a) != len(b) {
		t.Fatalf("epoch %d: dump has %d records, full build %d", epoch, len(a), len(b))
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("epoch %d: dump record %d differs:\n  inc:     %s\n  full:    %s", epoch, i, a[i], b[i])
		}
	}
	infos := full.Interfaces()
	if got := inc.Interfaces(); !reflect.DeepEqual(got, infos) {
		t.Fatalf("epoch %d: Interfaces() differs from the full build", epoch)
	}
	for _, info := range infos {
		got, ok := inc.InterfaceJSON(info.IP)
		want, _ := full.InterfaceJSON(info.IP)
		if !ok || !bytes.Equal(got, want) {
			t.Fatalf("epoch %d: InterfaceJSON(%s) = %s ok=%v, full build %s", epoch, info.IP, got, ok, want)
		}
	}
	if got, want := inc.Summarize(), full.Summarize(); got != want {
		t.Fatalf("epoch %d: Summarize() = %+v, full build %+v", epoch, got, want)
	}
	if got, want := inc.ASPairs(), full.ASPairs(); got != want {
		t.Fatalf("epoch %d: ASPairs() = %d, full build %d", epoch, got, want)
	}
	for pair := range full.ixn {
		got := inc.Interconnections(int(pair.lo), int(pair.hi))
		want := full.Interconnections(int(pair.lo), int(pair.hi))
		if len(want) == 0 || !reflect.DeepEqual(got, want) {
			t.Fatalf("epoch %d: Interconnections(%d, %d) = %+v, full build %+v", epoch, pair.lo, pair.hi, got, want)
		}
	}
}

// requireReuse checks that every record of m whose inference (and
// provenance) is deeply equal to prev's shares prev's JSON blob, and
// returns how many did.
func requireReuse(t *testing.T, prev, m *Mapping) int {
	t.Helper()
	n := 0
	for i, ip := range m.order {
		j, ok := prev.index[ip]
		if !ok ||
			!reflect.DeepEqual(prev.res.Interfaces[ip], m.res.Interfaces[ip]) ||
			!reflect.DeepEqual(prev.res.Provenance[ip], m.res.Provenance[ip]) {
			continue
		}
		if &m.blobs[i][0] != &prev.blobs[j][0] {
			t.Fatalf("epoch %d: unchanged record %v was re-rendered", m.Epoch(), ip)
		}
		n++
	}
	return n
}

// TestSameInferenceCoversEveryField changes each field of a
// cfs.InterfaceResult in turn: sameInference must notice every one, or
// a record whose inference changed would keep its stale rendering.
func TestSameInferenceCoversEveryField(t *testing.T) {
	base := cfs.InterfaceResult{Candidates: []world.FacilityID{3}}
	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		changed := base
		f := reflect.ValueOf(&changed).Elem().Field(i)
		switch f.Kind() {
		case reflect.Bool:
			f.SetBool(!f.Bool())
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			f.SetInt(f.Int() + 1)
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			f.SetUint(f.Uint() + 1)
		case reflect.Slice:
			f.Set(reflect.Append(f, reflect.Zero(f.Type().Elem())))
		default:
			t.Fatalf("field %s has kind %v: teach sameInference and this test to compare it", typ.Field(i).Name, f.Kind())
		}
		if sameInference(&base, &changed) {
			t.Errorf("sameInference ignores a change to field %s", typ.Field(i).Name)
		}
	}
	if !sameInference(&base, &base) {
		t.Error("sameInference rejects an identical inference")
	}
}
