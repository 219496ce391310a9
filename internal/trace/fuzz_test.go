package trace

import (
	"reflect"
	"strings"
	"testing"
)

// FuzzParseIdleCSV checks that arbitrary input never panics the parser
// and that anything it accepts survives a write/parse round trip.
func FuzzParseIdleCSV(f *testing.F) {
	f.Add("done_ms,elapsed_ms\n1.000000,1.000000\n")
	f.Add("done_ms,elapsed_ms\n")
	f.Add("done_ms,elapsed_ms\n10.760000,10.760000\n2.000000,1.000000\n")
	f.Add("bogus header\n1,2\n")
	f.Add("done_ms,elapsed_ms\nnot,numbers\n")
	f.Add("")
	f.Fuzz(func(t *testing.T, in string) {
		samples, err := ParseIdleCSV(strings.NewReader(in))
		if err != nil {
			return
		}
		var sb strings.Builder
		if err := WriteIdleCSV(&sb, samples); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		again, err := ParseIdleCSV(strings.NewReader(sb.String()))
		if err != nil {
			t.Fatalf("re-parse failed: %v", err)
		}
		if len(again) != len(samples) {
			t.Fatalf("round trip changed length: %d → %d", len(samples), len(again))
		}
	})
}

// FuzzParseAttribCSV checks that arbitrary input never panics the
// attribution parser and that anything it accepts survives a write/parse
// round trip: cause maps exactly (they are integers), record count
// always.
func FuzzParseAttribCSV(f *testing.F) {
	const hdr = "label,start_ms,end_ms,causes\n"
	f.Add(hdr + "WM_KEYDOWN,20.000000,25.400000,base=3000000;queue-wait=1200000;tlb-miss=800000\n")
	f.Add(hdr + "empty,0.000000,0.000000,\n")
	f.Add(hdr + "\n  WM_CHAR,1.000000,2.000000,base=1\n\n")
	f.Add(hdr + "bad,x,y,z\n")
	f.Add(hdr + "dup,1.0,2.0,a=1;a=2\n")
	f.Add(hdr)
	f.Add("bogus header\nx,1,2,\n")
	f.Add("")
	f.Fuzz(func(t *testing.T, in string) {
		recs, err := ParseAttribCSV(strings.NewReader(in))
		if err != nil {
			return
		}
		var sb strings.Builder
		if err := WriteAttribCSV(&sb, recs); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		again, err := ParseAttribCSV(strings.NewReader(sb.String()))
		if err != nil {
			t.Fatalf("re-parse failed: %v", err)
		}
		if len(again) != len(recs) {
			t.Fatalf("round trip changed length: %d → %d", len(recs), len(again))
		}
		for i := range recs {
			if !reflect.DeepEqual(again[i].Causes, recs[i].Causes) {
				t.Fatalf("record %d causes changed:\n%#v\n%#v", i, recs[i].Causes, again[i].Causes)
			}
		}
	})
}
