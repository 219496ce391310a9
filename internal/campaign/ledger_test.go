package campaign

import (
	"bytes"
	"strings"
	"testing"

	"latlab/internal/stats"
)

// testRecord builds a consistent in-memory record from the given
// latency samples.
func testRecord(t *testing.T, seedStart uint64, samples ...float64) Record {
	t.Helper()
	sk := stats.NewSketch(stats.DefaultSketchAlpha)
	for _, v := range samples {
		sk.Add(v)
	}
	return Record{
		Schema:    RecordSchemaVersion,
		Campaign:  "demo",
		Scenario:  "tiny-type",
		Persona:   "nt40",
		Machine:   "p100",
		SeedStart: seedStart,
		SeedCount: 6,
		Quick:     true,
		Sessions:  6,
		Events:    sk.Count(),
		P50Ms:     sk.Quantile(0.5),
		P95Ms:     sk.Quantile(0.95),
		P99Ms:     sk.Quantile(0.99),
		MaxMs:     sk.Max(),
		MeanMs:    sk.Mean(),
		JitterMs:  sk.StdDev(),
		Sketch:    sk,
	}
}

func TestLedgerRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	recs := []Record{
		testRecord(t, 1, 1.5, 2.5, 40, 0, 3.25, 2.5),
		testRecord(t, 7, 5, 5, 5, 5, 5, 5),
	}
	for _, r := range recs {
		if err := AppendRecord(&buf, r); err != nil {
			t.Fatal(err)
		}
	}
	parsed, err := ParseLedger(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed) != 2 {
		t.Fatalf("parsed %d records, want 2", len(parsed))
	}
	// Canonical form: re-marshal must reproduce the input bytes.
	var again bytes.Buffer
	for _, r := range parsed {
		if err := AppendRecord(&again, r); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Errorf("re-marshal differs:\n%s\nvs\n%s", buf.Bytes(), again.Bytes())
	}
	if got := parsed[0].Cell(); got != "tiny-type/nt40/p100/1+6" {
		t.Errorf("cell id %q", got)
	}
	if parsed[1].Sketch.Count() != 6 {
		t.Errorf("sketch count %d", parsed[1].Sketch.Count())
	}
}

func TestParseLedgerEmpty(t *testing.T) {
	recs, err := ParseLedger(nil)
	if err != nil || len(recs) != 0 {
		t.Fatalf("empty ledger: %v, %d records", err, len(recs))
	}
}

func TestParseLedgerRejects(t *testing.T) {
	line, err := MarshalRecord(testRecord(t, 1, 1, 2, 3, 4, 5, 6))
	if err != nil {
		t.Fatal(err)
	}
	valid := string(line)
	cases := []struct {
		name string
		data string
		want string
	}{
		{"truncated final record", valid + strings.TrimSuffix(valid, "\n"), "truncated"},
		{"half a record", valid[:len(valid)/2] + "\n", "line 1"},
		{"blank line", valid + "\n" + valid, "blank"},
		{"unknown field", strings.Replace(valid, `"schema"`, `"bogus":1,"schema"`, 1), "bogus"},
		{"trailing data on line", strings.TrimSuffix(valid, "\n") + " {}\n", "trailing"},
		{"wrong schema", strings.Replace(valid, `"schema":1`, `"schema":9`, 1), "schema"},
		{"missing campaign", strings.Replace(valid, `"campaign":"demo"`, `"campaign":""`, 1), "configuration"},
		{"zero seed start", strings.Replace(valid, `"seed_start":1`, `"seed_start":0`, 1), "seed range"},
		{"sessions beyond range", strings.Replace(valid, `"sessions":6`, `"sessions":7`, 1), "sessions"},
		{"events vs sketch count", strings.Replace(valid, `"events":6`, `"events":5`, 1), "sketch count"},
		{"negative quantile", strings.Replace(valid, `"p50_ms":`, `"p50_ms":-`, 1), "p50_ms"},
		{"corrupt sketch buckets", strings.Replace(valid, `"buckets":[[`, `"buckets":[[-9999,0],[`, 1), "bucket"},
		{"non-canonical", strings.Replace(valid, `"events":6`, `"events": 6`, 1), "canonical"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.data == valid {
				t.Fatal("mutation did not change the record")
			}
			_, err := ParseLedger([]byte(tc.data))
			if err == nil {
				t.Fatalf("want error mentioning %q, got nil", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// FuzzParseLedger fuzzes the strict JSONL parser: it must never panic,
// and anything it accepts must be in canonical form already —
// re-marshaling the parsed records reproduces the input bytes exactly,
// so a ledger cannot drift through a parse/write cycle.
func FuzzParseLedger(f *testing.F) {
	sk := stats.NewSketch(stats.DefaultSketchAlpha)
	for _, v := range []float64{1.5, 2.5, 40, 0, 3.25, 2.5} {
		sk.Add(v)
	}
	rec := Record{
		Schema: RecordSchemaVersion, Campaign: "demo", Scenario: "tiny-type",
		Persona: "nt40", Machine: "p100", SeedStart: 1, SeedCount: 6,
		Quick: true, Sessions: 6, Events: sk.Count(),
		P50Ms: sk.Quantile(0.5), P95Ms: sk.Quantile(0.95), P99Ms: sk.Quantile(0.99),
		MaxMs: sk.Max(), MeanMs: sk.Mean(), JitterMs: sk.StdDev(), Sketch: sk,
	}
	line, err := MarshalRecord(rec)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(line)
	f.Add(append(line, line...))
	f.Add(line[:len(line)-1])                                       // truncated
	f.Add(append(append([]byte{}, line...), line[:len(line)/2]...)) // torn tail after a valid record
	f.Add(append(append([]byte{}, line...), line[:1]...))           // one-byte torn tail
	f.Add([]byte(`{"schema":1}` + "\n"))                            // incomplete record
	f.Add([]byte(`{"bogus":true}` + "\n"))                          // unknown field
	f.Add([]byte("\n"))                                             // blank line
	f.Add([]byte(``))                                               // empty ledger
	f.Add([]byte(strings.Replace(string(line), ":1,", ":2,", 1)))   // perturbed
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := ParseLedger(data)
		if err != nil {
			return
		}
		var out bytes.Buffer
		for _, r := range recs {
			if err := AppendRecord(&out, r); err != nil {
				t.Fatalf("accepted record failed to marshal: %v", err)
			}
		}
		if !bytes.Equal(out.Bytes(), data) {
			t.Fatalf("accepted ledger is not canonical:\ninput:  %q\noutput: %q", data, out.Bytes())
		}
	})
}
