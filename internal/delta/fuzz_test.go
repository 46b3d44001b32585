package delta

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzDecodeBatch feeds arbitrary bytes to the JSONL decoder that
// POST /v1/deltas and the daemon's -follow tailer both run first. The
// decoder must never panic, and every batch it accepts must survive
// EncodeJSONL → decode unchanged, so a log the daemon accepts can be
// written back out and replayed.
func FuzzDecodeBatch(f *testing.F) {
	for _, seed := range []string{
		"",
		"\n\n",
		`{"kind":"as_facility_add","as":64512,"facility":7}`,
		`{"kind":"ixp_facility_remove","ixp":3,"facility":12}` + "\n" +
			`{"kind":"member_add","ixp":3,"as":64500,"port":"198.51.100.7"}` + "\n",
		`{"kind":"session_up","lg_as":65000,"local_ip":"10.0.0.1","peer_ip":"10.0.0.2","peer_as":64501}` + "\r\n",
		`{"kind":"xconnect_add","near_ip":"10.1.0.1","far_ip":"10.1.0.2","router":9}`,
		`{"kind":"session_down","peer_ip":"0.0.0.0","as":-1,"facility":9223372036854775807}`,
		`{"kind":"as_facility_add","as":4294967297}`,
		`{"kind":"frobnicate"}`,
		`{"kind":"member_remove","port":"300.1.1.1"}`,
		`{"kind":"as_facility_add"} {"kind":"as_facility_add"}`,
		`null`,
		`[1,2,3]`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		log, err := NewDecoder(bytes.NewReader(in)).Batch(0)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := EncodeJSONL(&buf, log); err != nil {
			t.Fatalf("encode accepted batch: %v", err)
		}
		back, err := NewDecoder(&buf).Batch(0)
		if err != nil {
			t.Fatalf("re-decode of %q: %v", buf.Bytes(), err)
		}
		if len(log) == 0 && len(back) == 0 {
			return
		}
		if !reflect.DeepEqual(log, back) {
			t.Fatalf("round trip changed the batch:\n  in:   %+v\n  back: %+v", log, back)
		}
	})
}
