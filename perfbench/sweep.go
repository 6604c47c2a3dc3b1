package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"time"

	"tegrecon/internal/experiments"
	"tegrecon/internal/scenario"
)

// The sweep workload: one seeded scenario matrix — urban and highway
// synthesized cycles × all four schemes × two ambients × single-path
// and 3-path flow splits × no fault and a fault storm × 40/100/400
// module arrays — expanded and run on the batch engine. One op is one
// whole matrix (Expand, then RunExpansionContext); ops repeat until the
// measured time is up and every repeat must reproduce the first one's
// cells bit for bit.

// sweepWorkers is the batch worker count. One worker runs each array
// size's jobs as one lockstep fleet on the calling thread, so a
// matrix's cost is its CPU time. With a worker per CPU on a shared
// 2-vCPU host, the wall-clock figures moved by up to 30 % from run to
// run with the neighbours' load.
const sweepWorkers = 1

// sweepCycleS is each synthesized cycle's simulated span.
const sweepCycleS = 20.0

// sweepMatrix derives the workload's matrix from the seed. The seed
// picks the drives, the cell seeds and the ambient pair; the axes and
// their sizes stay fixed, so every seed asks for the same amount of
// work.
func sweepMatrix(seed int64) *scenario.Matrix {
	amb := 15 + float64(subSeed(seed, "sweep.ambient")%6)
	return &scenario.Matrix{
		Name: "perfbench-sweep",
		Seed: subSeed(seed, "sweep.cells"),
		Cycles: []scenario.CycleSpec{
			{Synth: &scenario.SynthSpec{Profile: "urban", DurationS: sweepCycleS, Seed: subSeed(seed, "sweep.urban")}},
			{Synth: &scenario.SynthSpec{Profile: "highway", DurationS: sweepCycleS, Seed: subSeed(seed, "sweep.highway")}},
		},
		Ambients:   []scenario.AmbientSpec{{AmbientC: amb}, {AmbientC: amb + 15, CoolantOffsetC: -5}},
		Flows:      []scenario.FlowSpec{{Paths: 1}, {Paths: 3, Maldistribution: 0.3}},
		Faults:     []scenario.FaultSpec{{}, {Storm: &scenario.StormSpec{Fraction: 0.05}}},
		ArraySizes: []int{40, 100, 400},
	}
}

// sweepOp is one expanded-and-run matrix.
type sweepOp struct {
	cells       []experiments.MatrixCell
	moduleTicks int64
	expand      time.Duration
	cpu         time.Duration // process CPU over the whole op
	runWall     time.Duration // wall time of RunExpansionContext
	runCPU      time.Duration // process CPU over RunExpansionContext
}

// runMatrix expands the matrix and runs it on the given number of
// batch workers. With rec set, every job's controller is wrapped in a timing
// decorator on its own track, labelled with the job's scheme and size.
func runMatrix(m *scenario.Matrix, rec *Recorder, workers int) (*sweepOp, error) {
	t0, cpu0 := time.Now(), selfCPU()
	ex, err := m.Expand()
	if err != nil {
		return nil, err
	}
	op := &sweepOp{expand: time.Since(t0)}
	for i := range ex.Jobs {
		j := &ex.Jobs[i]
		op.moduleTicks += int64(j.Sys.Modules) * int64(jobTicks(ex, i))
		if rec != nil {
			c := ex.Cells[ex.CellOf[i]]
			tr := rec.Track(fmt.Sprintf("%s/n%d/job%d", c.Scheme, c.Modules, i))
			j.Ctrl = newTimedController(j.Ctrl, tr, "core.decide")
		}
	}
	c0, r0 := selfCPU(), time.Now()
	res, err := experiments.RunExpansionContext(context.Background(), ex, experiments.MatrixOptions{Workers: workers})
	if err != nil {
		return nil, err
	}
	op.runWall, op.runCPU = time.Since(r0), selfCPU()-c0
	op.cpu = selfCPU() - cpu0
	op.cells = res.Cells
	return op, nil
}

// jobTicks is the control-period count of job i (sim's replay rule).
func jobTicks(ex *scenario.Expansion, i int) int {
	j := ex.Jobs[i]
	return int(j.Trace.Duration()/j.Opts.TickSeconds) + 1
}

// cellBytes serializes every cell; the sweep's output digest is over
// these.
func cellBytes(cells []experiments.MatrixCell) ([][]byte, error) {
	out := make([][]byte, len(cells))
	for i, c := range cells {
		b, err := json.Marshal(c)
		if err != nil {
			return nil, err
		}
		out[i] = b
	}
	return out, nil
}

// sweepRun is the outcome of repeating the matrix for a while.
type sweepRun struct {
	ops []*sweepOp
	ref [][]byte // first op's serialized cells
}

// moduleTicksPerS is simulated module-control-periods per second of
// process CPU time, the median over the run's matrices.
func (r *sweepRun) moduleTicksPerS() float64 {
	tput := make([]float64, len(r.ops))
	for i, op := range r.ops {
		tput[i] = float64(op.moduleTicks) / op.cpu.Seconds()
	}
	return median(tput)
}

// repeatMatrix runs the matrix until d has elapsed (at least once),
// checking every repeat's cells against the first.
func repeatMatrix(m *scenario.Matrix, d time.Duration, rec *Recorder, t *Tally) (*sweepRun, error) {
	out := &sweepRun{}
	start := time.Now()
	for len(out.ops) == 0 || time.Since(start) < d {
		// Each matrix starts from the same live heap, so the peak RSS
		// does not depend on where the collector happened to be.
		runtime.GC()
		op, err := runMatrix(m, rec, sweepWorkers)
		if err != nil {
			return nil, err
		}
		cb, err := cellBytes(op.cells)
		if err != nil {
			return nil, err
		}
		if out.ref == nil {
			out.ref = cb
		}
		for i, b := range cb {
			t.Attempted++
			if i >= len(out.ref) || digest(b) != digest(out.ref[i]) {
				t.Fail("sweep repeat %d cell %d differs from the first run", len(out.ops), i)
			}
		}
		out.ops = append(out.ops, op)
	}
	return out, nil
}

// sweepSubsetChecks is how many cells are re-run alone per run.
const sweepSubsetChecks = 3

// checkSubsets re-runs a few seeded-random cells alone through
// Expansion.Subset and requires their batch values.
func checkSubsets(m *scenario.Matrix, seed int64, ref [][]byte, t *Tally) error {
	ex, err := m.Expand()
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(subSeed(seed, "sweep.subset")))
	for _, ci := range rng.Perm(len(ex.Cells))[:sweepSubsetChecks] {
		sub, err := ex.Subset([]int{ci})
		if err != nil {
			return err
		}
		res, err := experiments.RunExpansionContext(context.Background(), sub, experiments.MatrixOptions{Workers: 1})
		if err != nil {
			return err
		}
		b, err := json.Marshal(res.Cells[0])
		if err != nil {
			return err
		}
		t.Attempted++
		if string(b) != string(ref[ci]) {
			t.Fail("sweep cell %d re-run alone differs from its batch value", ci)
		}
	}
	return nil
}

// sweepSetupReps is how many times a run builds the spec and expands
// it; setup_s is the median.
const sweepSetupReps = 15

// sweepSetup derives and normalizes the matrix, sizes it and warms one
// expansion, sweepSetupReps times; it returns the median process CPU
// time one setup took (on a shared host the wall clock of a
// few-millisecond setup mostly times the scheduler).
func sweepSetup(seed int64) (*scenario.Matrix, float64, error) {
	var times []float64
	var m *scenario.Matrix
	for range sweepSetupReps {
		c0 := selfCPU()
		var err error
		if m, err = sweepMatrix(seed).Normalize(); err != nil {
			return nil, 0, err
		}
		if _, err := m.Counts(); err != nil {
			return nil, 0, err
		}
		if _, err := m.Expand(); err != nil {
			return nil, 0, err
		}
		times = append(times, (selfCPU() - c0).Seconds())
	}
	return m, median(times), nil
}

// sweepDigest runs a seed's matrix once on every CPU and returns the
// digest of its cells.
func sweepDigest(seed int64) (string, error) {
	m, err := sweepMatrix(seed).Normalize()
	if err != nil {
		return "", err
	}
	op, err := runMatrix(m, nil, runtime.NumCPU())
	if err != nil {
		return "", err
	}
	cb, err := cellBytes(op.cells)
	if err != nil {
		return "", err
	}
	return digest(cb...), nil
}

// checkSweepGolden checks a run's cells against the recorded digest of
// its seed, or runs and checks the reference seed when the seed was
// not recorded.
func checkSweepGolden(cfg Config, ref [][]byte, t *Tally) error {
	gs := cfg.Golden.Target("sweep", cfg.Seed)
	d := digest(ref...)
	if gs != cfg.Seed {
		var err error
		if d, err = sweepDigest(gs); err != nil {
			return err
		}
	}
	cfg.Golden.Check("sweep", gs, d, false, t)
	return nil
}

func runSweep(cfg Config) (Outcome, error) {
	var t Tally
	m, setup, err := sweepSetup(cfg.Seed)
	if err != nil {
		return Outcome{}, err
	}
	if cfg.Record {
		run, err := repeatMatrix(m, 0, nil, &t)
		if err != nil {
			return Outcome{}, err
		}
		cfg.Golden.Check("sweep", cfg.Seed, digest(run.ref...), true, &t)
		return Outcome{Tally: t}, nil
	}
	d := secs(cfg.Seconds)
	if cfg.Trace {
		d /= 2
	}
	plain, err := repeatMatrix(m, d, nil, &t)
	if err != nil {
		return Outcome{}, err
	}
	rss, err := vmHWMMB("self")
	if err != nil {
		return Outcome{}, err
	}
	if err := checkSweepGolden(cfg, plain.ref, &t); err != nil {
		return Outcome{}, err
	}
	if err := checkSubsets(m, cfg.Seed, plain.ref, &t); err != nil {
		return Outcome{}, err
	}
	if !cfg.Trace {
		lat := make([]float64, len(plain.ops))
		for i, op := range plain.ops {
			lat[i] = float64(op.cpu) / 1e6
		}
		pct, tl, n := tail(append([]float64(nil), lat...))
		noteTail("sweep", pct, n)
		mt := Metrics{}
		mt.set("setup_s", setup, "s")
		mt.set("max_rss_mb", rss, "MB")
		mt.set("success_rate", successRate(t), "ratio")
		mt.set("module_ticks_per_s", plain.moduleTicksPerS(), "1/s")
		mt.set("op_p50_ms", median(lat), "ms")
		mt.set("op_tail_ms", tl, "ms")
		return Outcome{Metrics: mt, Tally: t}, nil
	}

	rec := NewRecorder()
	traced, err := repeatMatrix(m, d, rec, &t)
	if err != nil {
		return Outcome{}, err
	}
	for i, b := range traced.ref {
		if string(b) != string(plain.ref[i]) {
			t.Fail("sweep cell %d: traced value differs from untraced", i)
		}
	}
	if err := rec.WriteFile(spanFile(cfg.Out, "sweep", cfg.Seed)); err != nil {
		return Outcome{}, err
	}
	// The batch scheduler's utilisation needs more than the one worker
	// the timed matrices use: one more matrix runs on every CPU, and
	// its cells must equal the one-worker cells.
	par, err := runMatrix(m, nil, runtime.NumCPU())
	if err != nil {
		return Outcome{}, err
	}
	parCells, err := cellBytes(par.cells)
	if err != nil {
		return Outcome{}, err
	}
	for i, b := range parCells {
		t.Attempted++
		if string(b) != string(plain.ref[i]) {
			t.Fail("sweep cell %d: value on %d workers differs from one worker", i, runtime.NumCPU())
		}
	}
	mt := zeroLayers()
	spans := rec.Spans()
	self := SelfTimes(spans)
	agg := map[string][2]int64{} // label → {self ns, count}
	var decideNs int64
	for _, s := range spans {
		scheme, rest, _ := strings.Cut(s.Run, "/")
		size, _, _ := strings.Cut(rest, "/")
		for _, k := range []string{scheme, size} {
			agg[k] = [2]int64{agg[k][0] + self[s.ID], agg[k][1] + 1}
		}
		decideNs += s.Dur()
	}
	for _, k := range []string{"INOR", "DNOR", "EHTR"} {
		mt.set("core.decide_us."+strings.ToLower(k), meanUs(agg[k][0], agg[k][1]), "us")
	}
	for _, n := range []int{40, 100, 400} {
		k := "n" + strconv.Itoa(n)
		mt.set("core.decide_us."+k, meanUs(agg[k][0], agg[k][1]), "us")
	}
	var expand, runWall time.Duration
	for _, op := range traced.ops {
		expand += op.expand
		runWall += op.runWall
	}
	// One worker runs the whole batch on the calling thread, so the
	// decide spans and the run share one wall clock.
	mt.set("core.decide_share", float64(decideNs)/(runWall.Seconds()*1e9*sweepWorkers), "ratio")
	mt.set("core.decisions", float64(len(spans)), "count")
	mt.set("scenario.expand_ms", float64(expand)/1e6/float64(len(traced.ops)), "ms")
	mt.set("sim.batch.cpu_util", par.runCPU.Seconds()/(par.runWall.Seconds()*float64(runtime.NumCPU())), "ratio")
	p0 := plain.moduleTicksPerS()
	mt.set("trace.overhead_frac", (p0-traced.moduleTicksPerS())/p0, "ratio")
	return Outcome{Metrics: mt, Tally: t}, nil
}
