package scenario

import (
	"testing"
)

// FuzzScenarioParse throws arbitrary bytes at the strict parser: it
// must never panic, and any document it accepts must satisfy the same
// Validate gate and survive a byte-stable Marshal/Parse round-trip.
// The seed corpus covers the grammar via the generator plus the
// classic JSON edge cases.
func FuzzScenarioParse(f *testing.F) {
	var data []byte
	for seed := uint64(1); seed <= 20; seed++ {
		var err error
		if data, err = Marshal(Generate(seed, Constraints{})); err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte("{}"))
	f.Add([]byte("{"))
	f.Add([]byte(`{"schema":1,"id":"x","title":"t","persona":"nt40","workload":{"kind":"typing","full":{"chars":1}}}`))
	f.Add([]byte(`{"schema":1e9}`))
	f.Add([]byte("null"))
	f.Add([]byte(""))
	// A valid document followed by trailing garbage Parse must reject.
	for _, suffix := range []string{"}", "]", " xyz"} {
		f.Add(append(append([]byte{}, data...), suffix...))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := Parse(data)
		if err != nil {
			return
		}
		if verr := d.Validate(); verr != nil {
			t.Fatalf("Parse accepted a document Validate rejects: %v", verr)
		}
		out, err := Marshal(d)
		if err != nil {
			t.Fatalf("accepted document does not marshal: %v", err)
		}
		if _, err := Parse(out); err != nil {
			t.Fatalf("marshalled form of an accepted document does not re-parse: %v\n%s", err, out)
		}
	})
}
