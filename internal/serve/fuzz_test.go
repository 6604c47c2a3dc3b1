package serve

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzSweepRequest throws JSON bodies at the sweep compiler. For any
// input, strict decoding plus normalizeSweep must not panic; a request
// it accepts must compile to exactly cycles × schemes cells within the
// server's tick and module bounds, and its key must be deterministic.
func FuzzSweepRequest(f *testing.F) {
	seeds := []string{
		`{}`,
		// The TestCanonicalKeys bodies.
		`{"cycles":["nedc","wltc"],"schemes":["inor","dnor"],"max_duration_s":10}`,
		`{"cycles":["wltc","nedc"],"schemes":["inor","dnor"],"max_duration_s":10}`,
		`{"cycles":["nedc","wltc"],"schemes":["INOR","DNOR"],"max_duration_s":10}`,
		`{"cycles":["nedc","wltc"],"schemes":["inor"]}`,
		`{"cycles":["nedc","wltc"],"schemes":["inor"],"max_duration_s":1e6}`,
		`{"cycles":["nedc","wltc"],"schemes":["inor"],"max_duration_s":1500}`,
		`{"cycles":["nedc"],"schemes":["inor"],"max_duration_s":10,"seed":0}`,
		// The shape of the repository benchmark's serve sweeps.
		`{"cycles":["wltc"],"schemes":["INOR","DNOR"],"max_duration_s":15,"modules":100}`,
		`{"cycles":["delivery"],"schemes":["dnor","baseline"],"seed":11,"sensor_noise_c":0.2,"tick_s":1,"modules":20,"horizon_ticks":6,"max_duration_s":12}`,
		`{"cycles":["nedc","NEDC"]}`,
		`{"cycles":["nope"]}`,
		`{"max_duration_s":0.2,"cycles":["delivery"]}`,
		`{"horizon_ticks":10001,"cycles":["delivery"],"max_duration_s":5}`,
		`{"tick_s":-1,"modules":-3,"sensor_noise_c":-0.1}`,
		`{"kind":"sweep"}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	s := New(Config{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var req SweepRequest
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			return
		}
		p, herr := s.normalizeSweep(req)
		if herr != nil {
			return
		}
		if want := len(p.m.Cycles) * len(p.m.Schemes); p.counts.Cells != want {
			t.Fatalf("%d cells for %d cycles × %d schemes", p.counts.Cells, len(p.m.Cycles), len(p.m.Schemes))
		}
		if p.counts.Ticks > int64(s.cfg.MaxTicksPerJob) || p.counts.MaxModules > s.cfg.MaxModules {
			t.Fatalf("admitted %d ticks / %d modules past the %d / %d bounds",
				p.counts.Ticks, p.counts.MaxModules, s.cfg.MaxTicksPerJob, s.cfg.MaxModules)
		}
		k1, err := specKey("sweep", p.m)
		if err != nil {
			t.Fatal(err)
		}
		p2, herr := s.normalizeSweep(req)
		if herr != nil {
			t.Fatalf("second normalization failed: %v", herr)
		}
		if k2, _ := specKey("sweep", p2.m); k1 != k2 {
			t.Fatalf("one request hashed to %s and %s", k1, k2)
		}
	})
}
