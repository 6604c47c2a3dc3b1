package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
	"time"

	"tegrecon/internal/core"
	"tegrecon/internal/drive"
	"tegrecon/internal/predict"
	"tegrecon/internal/report"
	"tegrecon/internal/sim"
	"tegrecon/internal/trace"
)

// TestDecoratedRunBitIdentical: wrapping a scheme's controller (and
// DNOR's predictor) in the timing decorators changes no output bit.
func TestDecoratedRunBitIdentical(t *testing.T) {
	cfg := drive.DefaultSynthConfig()
	cfg.Duration = 60
	tr, err := drive.Synthesize(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys := sim.DefaultSystem()
	opts := sim.DefaultOptions()
	opts.DeterministicRuntime = true
	rec := NewRecorder()
	for _, sch := range sim.Schemes() {
		plain, err := sch.New(sys, sim.SchemeConfig{})
		if err != nil {
			t.Fatal(err)
		}
		track := rec.Track(sch.Name)
		var scfg sim.SchemeConfig
		if sch.UsesHorizon {
			p, err := predict.NewMLR(predict.DefaultMLROptions())
			if err != nil {
				t.Fatal(err)
			}
			scfg.Predictor = &timedPredictor{Predictor: p, t: track}
		}
		inner, err := sch.New(sys, scfg)
		if err != nil {
			t.Fatal(err)
		}
		want := runBytes(t, sys, tr, plain, opts)
		got := runBytes(t, sys, tr, newTimedController(inner, track, "core.decide"), opts)
		if !bytes.Equal(got, want) {
			t.Errorf("%s: decorated result differs:\n got %s\nwant %s", sch.Name, got, want)
		}
	}
	if len(rec.Spans()) == 0 {
		t.Error("decorators recorded no spans")
	}
}

func runBytes(t *testing.T, sys *sim.System, tr *trace.Trace, ctrl core.Controller, opts sim.Options) []byte {
	t.Helper()
	res, err := sim.Run(sys, tr, ctrl, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := report.MarshalResult(res)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestLapMatchesRun: the workload's interleaved stepping reproduces a
// plain sim.Run of each scheme over the same drive.
func TestLapMatchesRun(t *testing.T) {
	rig, lap, _, err := controllerSetup(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	var tally Tally
	run, err := rig.stepLaps(lap, 0, nil, &tally)
	if err != nil || tally.Failed != 0 {
		t.Fatalf("lap: %v %v", err, tally.Reasons)
	}
	for i, name := range ctrlSchemes {
		sch, err := sim.SchemeByName(name)
		if err != nil {
			t.Fatal(err)
		}
		ctrl, err := sch.New(rig.sys, sim.SchemeConfig{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(rig.sys, rig.tr, ctrl, rig.opts)
		if err != nil {
			t.Fatal(err)
		}
		want, err := report.MarshalResult(res)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(run.results[i], want) {
			t.Errorf("%s: lap result differs from sim.Run:\n got %s\nwant %s", name, run.results[i], want)
		}
	}
}

func TestTail(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // reversed, so tail must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n    int
		pct  float64
		want float64
	}{
		{10000, 99.9, 9990},
		{2000, 99, 1980},
		{1000, 99, 990},
		{999, 99, 989},
		{200, 95, 190},
		{100, 90, 90},
		{40, 75, 30},
		{20, 50, 10},
		{19, 100, 19},
		{1, 100, 1},
	} {
		pct, v, n := tail(seq(tc.n))
		if pct != tc.pct || v != tc.want || n != tc.n {
			t.Errorf("tail(%d samples) = p%g %g n=%d, want p%g %g n=%d", tc.n, pct, v, n, tc.pct, tc.want, tc.n)
		}
		if beyond := tc.n - int(v); pct < 100 && beyond < 10 {
			t.Errorf("tail(%d samples) picked p%g with %d samples beyond it", tc.n, pct, beyond)
		}
	}
	if pct, v, n := tail(nil); pct != 0 || v != 0 || n != 0 {
		t.Errorf("tail(nil) = %g %g %d", pct, v, n)
	}
}

func TestSelfTimesOverlappingChildren(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 80, End: 120}, // runs past the parent
		{ID: 5, Parent: 2, Name: "grandchild", Start: 15, End: 25},
		{ID: 6, Parent: 1, Name: "inside-b", Start: 35, End: 55}, // covered by a∪b
	}
	self := SelfTimes(spans)
	// Children cover [10,60] and [80,100] of the parent: 70 of 100.
	for id, want := range map[int64]int64{1: 30, 2: 20, 3: 30, 4: 40, 5: 10, 6: 20} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

func TestTrackNesting(t *testing.T) {
	rec := NewRecorder()
	tr := rec.Track("run")
	outer := tr.Begin("outer")
	inner := tr.Begin("inner")
	time.Sleep(time.Millisecond)
	tr.End(inner)
	tr.End(outer)
	sp := rec.Spans()
	if len(sp) != 2 || sp[1].Parent != sp[0].ID || sp[0].Parent != 0 || sp[1].Run != "run" {
		t.Fatalf("spans = %+v", sp)
	}
	if sp[1].Start < sp[0].Start || sp[1].End > sp[0].End || sp[1].Dur() < int64(time.Millisecond) {
		t.Errorf("inner span %+v not inside outer %+v", sp[1], sp[0])
	}
}

func TestSeededInputsDeterministic(t *testing.T) {
	driveInput := func(seed int64) []byte {
		rig, err := newCtrlRig(seed)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal([]any{rig.tr.Times, rig.tr.Values, rig.opts.Seed})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	matrix := func(seed int64) []byte {
		b, err := json.Marshal(sweepMatrix(seed))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	mix := func(seed int64) []byte {
		m := newServeMix(seed)
		stream := make([]reqSpec, 500)
		for i := range stream {
			stream[i] = m.next()
		}
		b, err := json.Marshal([]any{m.pool, m.sweeps, m.matrices, stream})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for name, gen := range map[string]func(int64) []byte{"controller": driveInput, "sweep": matrix, "serve": mix} {
		if !bytes.Equal(gen(7), gen(7)) {
			t.Errorf("%s: seed 7 gave two different inputs", name)
		}
		if bytes.Equal(gen(7), gen(8)) {
			t.Errorf("%s: seeds 7 and 8 gave the same input", name)
		}
	}
}

func TestServeRepeatPoolExceedsCache(t *testing.T) {
	mix := newServeMix(1)
	distinct := map[string]bool{}
	for _, r := range mix.pool {
		distinct[string(r.Body)] = true
	}
	if len(distinct) <= serveCacheEntries {
		t.Errorf("repeat pool has %d distinct requests, want more than the server's %d cache entries", len(distinct), serveCacheEntries)
	}
	kinds := map[string]int{}
	for range serveBlock {
		kinds[mix.next().Kind]++
	}
	for _, k := range []string{"run", "fresh", "sweep", "matrix"} {
		if kinds[k] == 0 {
			t.Errorf("a %d-request block has no %s requests: %v", serveBlock, k, kinds)
		}
	}
}

// TestMetricListsMatchBenchmarkJSON: the metrics the program reports
// are exactly the ones BENCHMARK.json declares, with the same units.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		got  []struct{ name, unit string }
		want []struct{ Name, Unit string }
	}{{"end_to_end", endToEnd, spec.EndToEnd}, {"per_layer", perLayer, spec.PerLayer}} {
		if len(tc.got) != len(tc.want) {
			t.Errorf("%s: program lists %d metrics, BENCHMARK.json %d", tc.name, len(tc.got), len(tc.want))
			continue
		}
		for i, m := range tc.want {
			if tc.got[i].name != m.Name || tc.got[i].unit != m.Unit {
				t.Errorf("%s[%d]: program has %s (%s), BENCHMARK.json %s (%s)", tc.name, i, tc.got[i].name, tc.got[i].unit, m.Name, m.Unit)
			}
		}
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q has no runner", w.Name)
		}
	}
}

// TestGoldenUnrecordedSeed: a seed with no recorded digest is checked
// through its reference seed, and a check against a missing record
// fails rather than passing unchecked.
func TestGoldenUnrecordedSeed(t *testing.T) {
	want := digest([]byte("seed 3"))
	g := &Golden{Digests: map[string]map[string]string{"w": {"3": want}}}
	for seed, target := range map[int64]int64{3: 3, 35: 3, 3 + 5*goldenSeeds: 3, 4: 4, -29: 3} {
		if got := g.Target("w", seed); got != target {
			t.Errorf("Target(w, %d) = %d, want %d", seed, got, target)
		}
	}
	var tl Tally
	g.Check("w", 3, want, false, &tl)
	if tl.Failed != 0 {
		t.Fatalf("matching digest failed: %v", tl.Reasons)
	}
	g.Check("w", 3, digest([]byte("other")), false, &tl)
	g.Check("w", 4, want, false, &tl)
	if tl.Failed != 2 || tl.Attempted != 3 {
		t.Errorf("after a wrong and an unrecorded digest: %d of %d failed, want 2 of 3", tl.Failed, tl.Attempted)
	}
}

// TestGoldenFileCoversReferenceSeeds: every workload has a recorded
// digest for each reference seed, so any seed can be checked.
func TestGoldenFileCoversReferenceSeeds(t *testing.T) {
	g, err := LoadGolden("golden.json")
	if err != nil {
		t.Fatal(err)
	}
	for wl := range workloads {
		for s := range int64(goldenSeeds) {
			if g.Target(wl, s) != s {
				t.Errorf("%s: no recorded digest for reference seed %d", wl, s)
			}
		}
	}
}

// TestProcCPU: the per-thread CPU sum of this process is positive and
// grows with work, and a meter kept open across the work reads what a
// fresh procCPU reads, give or take the work between the two reads.
func TestProcCPU(t *testing.T) {
	pid := os.Getpid()
	m, err := newCPUMeter(pid)
	if err != nil {
		t.Fatal(err)
	}
	defer m.close()
	c0, err := procCPU(pid)
	if err != nil {
		t.Fatal(err)
	}
	x := 0.0
	for i := range 20_000_000 {
		x += float64(i % 7)
	}
	c1, err := m.read()
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := procCPU(pid)
	if err != nil {
		t.Fatal(err)
	}
	if x == 0 || c0 <= 0 || c1 <= c0 || fresh < c1 || fresh-c1 > 50*time.Millisecond {
		t.Errorf("procCPU went %v → %v (meter) → %v (fresh) across a busy loop", c0, c1, fresh)
	}
}
