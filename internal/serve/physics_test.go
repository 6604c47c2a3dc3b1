package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"runtime"
	"testing"

	"tegrecon/internal/drive"
	"tegrecon/internal/experiments"
	"tegrecon/internal/report"
	"tegrecon/internal/scenario"
	"tegrecon/internal/sim"
)

// TestPhysicsDigestMatchesKeyVersion guards the cache against stale
// physics: cached results are addressed by request keys tagged with
// keyVersion, so a change that moves any simulated number without a
// keyVersion bump would serve old answers under the new code. The test
// runs one short deterministic run per scheme and a two-size scenario
// matrix, hashes their serialized results and compares the hash with
// physicsDigest.
func TestPhysicsDigestMatchesKeyVersion(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// Other architectures may contract float expressions into FMA
		// instructions, which legally moves low-order bits.
		t.Skipf("physics digest is recorded on amd64, not %s", runtime.GOARCH)
	}
	h := sha256.New()

	cfg := drive.DefaultSynthConfig()
	cfg.Duration = 30
	tr, err := drive.Synthesize(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys := sim.DefaultSystem()
	opts := sim.DefaultOptions()
	opts.DeterministicRuntime = true
	for _, sch := range sim.Schemes() {
		ctrl, err := sch.New(sys, sim.SchemeConfig{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(sys, tr, ctrl, opts)
		if err != nil {
			t.Fatalf("%s: %v", sch.Name, err)
		}
		b, err := report.MarshalResult(res)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(b)
	}

	m := &scenario.Matrix{
		Name:       "physics-digest",
		Seed:       3,
		Cycles:     []scenario.CycleSpec{{Synth: &scenario.SynthSpec{Profile: "urban", DurationS: 10, Seed: 9}}},
		Schemes:    []string{"Baseline", "INOR", "DNOR"},
		Ambients:   []scenario.AmbientSpec{{AmbientC: 20}},
		Flows:      []scenario.FlowSpec{{Paths: 1}, {Paths: 2, Maldistribution: 0.3}},
		Faults:     []scenario.FaultSpec{{}, {Storm: &scenario.StormSpec{Count: 2}}},
		ArraySizes: []int{20, 40},
	}
	ex, err := m.Expand()
	if err != nil {
		t.Fatal(err)
	}
	mres, err := experiments.RunExpansionContext(context.Background(), ex, experiments.MatrixOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(mres)
	if err != nil {
		t.Fatal(err)
	}
	h.Write(b)

	if got := hex.EncodeToString(h.Sum(nil)); got != physicsDigest {
		t.Fatalf("physics digest %s, recorded %s under keyVersion %q: "+
			"the simulated numbers changed, so bump keyVersion and re-record physicsDigest",
			got, physicsDigest, keyVersion)
	}
}
