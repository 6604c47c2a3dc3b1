package main

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"tegrecon/internal/drive"
	"tegrecon/internal/predict"
	"tegrecon/internal/report"
	"tegrecon/internal/sim"
	"tegrecon/internal/trace"
)

// The controller workload: one sim.Session each for INOR, DNOR and
// EHTR on the paper's 100-module rig, stepped interleaved tick by tick
// through the paper's synthesized urban drive under seeded sensor
// noise. One lap is the whole drive;
// laps repeat on fresh sessions until the measured time is up, and
// every lap must reproduce the first lap's results bit for bit.
//
// Baseline is left out on purpose: its ~9 µs ticks would sit beside
// DNOR's ~10 µs hold ticks (a third of all ticks) and put the median on
// the gap between the two modes.

// ctrlLapS is the simulated span of one lap: 801 control periods.
const ctrlLapS = 400.0

var ctrlSchemes = []string{"INOR", "DNOR", "EHTR"}

// ctrlRig is the controller workload's input: the rig, the drive and
// the run options with the seeded sensor noise.
type ctrlRig struct {
	sys   *sim.System
	tr    *trace.Trace
	opts  sim.Options
	ticks int
}

// newCtrlRig builds the rig, synthesizes the paper's urban drive and
// seeds the sensor noise. The drive itself is fixed: with a seeded
// drive, the median step cost moved by 30 % from seed to seed, so the
// seed picks only the noise the controllers see.
func newCtrlRig(seed int64) (*ctrlRig, error) {
	cfg := drive.DefaultSynthConfig()
	cfg.Duration = ctrlLapS
	tr, err := drive.Synthesize(cfg)
	if err != nil {
		return nil, err
	}
	opts := sim.DefaultOptions()
	opts.Seed = subSeed(seed, "controller.noise")
	opts.DeterministicRuntime = true
	opts.KeepTicks = false
	opts.StartTime = tr.Times[0]
	return &ctrlRig{
		sys:   sim.DefaultSystem(),
		tr:    tr,
		opts:  opts,
		ticks: int(math.Floor(tr.Duration()/opts.TickSeconds)) + 1,
	}, nil
}

// ctrlLap is one lap's sessions; in a traced lap each has its own track
// and decorated controller (and DNOR a decorated predictor).
type ctrlLap struct {
	sess   []*sim.Session
	tracks []*Track
	ctrls  []*timedController
}

// newLap builds fresh sessions. With rec set, controllers and DNOR's
// predictor are wrapped in timing decorators and the sessions time
// their phases on every tick.
func (r *ctrlRig) newLap(rec *Recorder, lap int) (*ctrlLap, error) {
	l := &ctrlLap{}
	opts := r.opts
	if rec != nil {
		opts.PhaseSampleEvery = 1
	}
	for _, name := range ctrlSchemes {
		sch, err := sim.SchemeByName(name)
		if err != nil {
			return nil, err
		}
		var cfg sim.SchemeConfig
		var tr *Track
		if rec != nil {
			tr = rec.Track(fmt.Sprintf("%s/lap%d", name, lap))
			if sch.UsesHorizon {
				// Exactly the registry's default DNOR predictor, wrapped.
				p, err := predict.NewMLR(predict.DefaultMLROptions())
				if err != nil {
					return nil, err
				}
				cfg.Predictor = &timedPredictor{Predictor: p, t: tr}
			}
		}
		ctrl, err := sch.New(r.sys, cfg)
		if err != nil {
			return nil, err
		}
		var tc *timedController
		if rec != nil {
			tc = newTimedController(ctrl, tr, "core.decide")
			ctrl = tc
		}
		s, err := sim.NewSession(r.sys, ctrl, opts)
		if err != nil {
			return nil, err
		}
		l.sess = append(l.sess, s)
		l.tracks = append(l.tracks, tr)
		l.ctrls = append(l.ctrls, tc)
	}
	return l, nil
}

// ctrlRun is the outcome of stepping laps for a while.
type ctrlRun struct {
	laps       int
	lapTput    []float64 // module-ticks per process CPU second, per lap
	lapP50     []float64 // median Session.Step CPU time in ms, per lap
	lapTail    []float64 // tail Session.Step CPU time in ms, per lap
	tailPct    float64   // the percentile lapTail holds
	lapSamples int       // Session.Step samples per lap
	lapDigest  []string  // per scheme, from the first lap
	results    [][]byte  // per scheme, first lap's serialized Result
	phases     sim.PhaseTimings
	dnorSw     int // DNOR reconfigurations in the first lap
	switched   int // DNOR switched decisions, all laps
}

// stepLaps runs whole laps until d has elapsed (at least one lap),
// checking that every lap reproduces the first one.
func (r *ctrlRig) stepLaps(first *ctrlLap, d time.Duration, rec *Recorder, t *Tally) (*ctrlRun, error) {
	// The stepping goroutine keeps one OS thread, so the thread's CPU
	// clock times exactly its own steps.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	out := &ctrlRun{}
	lat := make([]float64, 0, r.ticks*len(ctrlSchemes))
	var condTrack *Track
	if rec != nil {
		condTrack = rec.Track("drive")
	}
	start := time.Now()
	lap := first
	for {
		lapCPU := selfCPU()
		lat = lat[:0]
		for k := 0; k < r.ticks; k++ {
			var h int
			if condTrack != nil {
				h = condTrack.Begin("drive.conditions")
			}
			cond, err := drive.ConditionsAt(r.tr, lap.sess[0].Now())
			if condTrack != nil {
				condTrack.End(h)
			}
			if err != nil {
				return nil, err
			}
			for i, s := range lap.sess {
				if rec != nil {
					h = lap.tracks[i].Begin("sim.step")
				}
				t0 := threadCPU()
				_, err := s.Step(cond)
				lat = append(lat, float64(threadCPU()-t0)/1e6)
				if rec != nil {
					lap.tracks[i].End(h)
				}
				if err != nil {
					return nil, fmt.Errorf("%s tick %d: %w", ctrlSchemes[i], k, err)
				}
			}
		}
		steps := r.ticks * len(lap.sess)
		out.lapTput = append(out.lapTput, float64(steps*r.sys.Modules)/(selfCPU()-lapCPU).Seconds())
		pct, tl, n := tail(lat)
		out.lapTail = append(out.lapTail, tl)
		out.tailPct, out.lapSamples = pct, n
		out.lapP50 = append(out.lapP50, quantile(lat, 0.5))
		for i, s := range lap.sess {
			res := s.Result()
			out.phases.Add(res.Phases)
			b, err := report.MarshalResult(res)
			if err != nil {
				return nil, err
			}
			t.Attempted++
			if out.laps == 0 {
				out.results = append(out.results, b)
				out.lapDigest = append(out.lapDigest, digest(b))
				if ctrlSchemes[i] == "DNOR" {
					out.dnorSw = res.SwitchEvents
				}
			} else if d := digest(b); d != out.lapDigest[i] {
				t.Fail("controller lap %d %s: result %s differs from lap 0 %s", out.laps, ctrlSchemes[i], d[:12], out.lapDigest[i][:12])
			}
			if lap.ctrls[i] != nil && ctrlSchemes[i] == "DNOR" {
				out.switched += lap.ctrls[i].switched
			}
		}
		out.laps++
		if time.Since(start) >= d {
			break
		}
		next, err := r.newLap(rec, out.laps)
		if err != nil {
			return nil, err
		}
		lap = next
	}
	return out, nil
}

// moduleTicksPerS is simulated module-control-periods per second of
// process CPU time, the median over laps.
func (c *ctrlRun) moduleTicksPerS() float64 { return median(c.lapTput) }

// ctrlReplayCopies is how many times each lap result is put into and
// read back from a store in a traced run.
const ctrlReplayCopies = 8

// decideShareTolerance bounds how far the decorator's decide share may
// sit from the engine's own Result.Phases split on the same ticks; the
// two differ only by the benchmark's clock reads around each step.
const decideShareTolerance = 0.05

// ctrlSetupReps is how many times a run builds its inputs; setup_s is
// the median.
const ctrlSetupReps = 25

// controllerSetup builds the rig and the first lap's sessions
// ctrlSetupReps times and keeps the last, returning the median process
// CPU time one build took. Setup takes a fraction of a millisecond, so
// on a shared host a wall-clock reading would mostly time the
// scheduler.
func controllerSetup(seed int64, rec *Recorder) (*ctrlRig, *ctrlLap, float64, error) {
	var times []float64
	var rig *ctrlRig
	var lap *ctrlLap
	for range ctrlSetupReps {
		c0 := selfCPU()
		var err error
		if rig, err = newCtrlRig(seed); err != nil {
			return nil, nil, 0, err
		}
		if lap, err = rig.newLap(rec, 0); err != nil {
			return nil, nil, 0, err
		}
		times = append(times, (selfCPU() - c0).Seconds())
	}
	return rig, lap, median(times), nil
}

// controllerDigest runs one untraced lap on a seed's inputs and
// returns the digest of its results.
func controllerDigest(seed int64, t *Tally) (string, error) {
	rig, err := newCtrlRig(seed)
	if err != nil {
		return "", err
	}
	lap, err := rig.newLap(nil, 0)
	if err != nil {
		return "", err
	}
	run, err := rig.stepLaps(lap, 0, nil, t)
	if err != nil {
		return "", err
	}
	return digest(run.results...), nil
}

// checkCtrlGolden checks a run's first-lap results against the
// recorded digest of its seed, or runs and checks the reference seed
// when the seed was not recorded.
func checkCtrlGolden(cfg Config, results [][]byte, t *Tally) error {
	gs := cfg.Golden.Target("controller", cfg.Seed)
	d := digest(results...)
	if gs != cfg.Seed {
		var err error
		if d, err = controllerDigest(gs, t); err != nil {
			return err
		}
	}
	cfg.Golden.Check("controller", gs, d, false, t)
	return nil
}

func runController(cfg Config) (Outcome, error) {
	var t Tally
	if cfg.Record {
		d, err := controllerDigest(cfg.Seed, &t)
		if err != nil {
			return Outcome{}, err
		}
		cfg.Golden.Check("controller", cfg.Seed, d, true, &t)
		return Outcome{Tally: t}, nil
	}
	if !cfg.Trace {
		rig, lap, setup, err := controllerSetup(cfg.Seed, nil)
		if err != nil {
			return Outcome{}, err
		}
		run, err := rig.stepLaps(lap, secs(cfg.Seconds), nil, &t)
		if err != nil {
			return Outcome{}, err
		}
		rss, err := vmHWMMB("self")
		if err != nil {
			return Outcome{}, err
		}
		if err := checkCtrlGolden(cfg, run.results, &t); err != nil {
			return Outcome{}, err
		}
		m := Metrics{}
		m.set("setup_s", setup, "s")
		m.set("max_rss_mb", rss, "MB")
		m.set("success_rate", successRate(t), "ratio")
		m.set("module_ticks_per_s", run.moduleTicksPerS(), "1/s")
		m.set("op_p50_ms", median(run.lapP50), "ms")
		m.set("op_tail_ms", median(run.lapTail), "ms")
		noteTail("controller (per lap, median over laps)", run.tailPct, run.lapSamples)
		return Outcome{Metrics: m, Tally: t}, nil
	}

	// Traced: half the time untraced, half traced, then compare.
	half := secs(cfg.Seconds / 2)
	rig, lap, _, err := controllerSetup(cfg.Seed, nil)
	if err != nil {
		return Outcome{}, err
	}
	plain, err := rig.stepLaps(lap, half, nil, &t)
	if err != nil {
		return Outcome{}, err
	}
	rec := NewRecorder()
	lap, err = rig.newLap(rec, 0)
	if err != nil {
		return Outcome{}, err
	}
	traced, err := rig.stepLaps(lap, half, rec, &t)
	if err != nil {
		return Outcome{}, err
	}
	if err := checkCtrlGolden(cfg, plain.results, &t); err != nil {
		return Outcome{}, err
	}
	for i, d := range traced.lapDigest {
		if d != plain.lapDigest[i] {
			t.Fail("controller %s: traced result %s differs from untraced %s", ctrlSchemes[i], d[:12], plain.lapDigest[i][:12])
		}
	}
	if err := rec.WriteFile(spanFile(cfg.Out, "controller", cfg.Seed)); err != nil {
		return Outcome{}, err
	}

	m := zeroLayers()
	spans := rec.Spans()
	self := SelfTimes(spans)
	var decideNs, stepNs, stepSelfNs, steps int64
	perScheme := map[string][2]int64{} // scheme → {self ns, count}
	byName := map[string][2]int64{}
	for _, s := range spans {
		byName[s.Name] = [2]int64{byName[s.Name][0] + self[s.ID], byName[s.Name][1] + 1}
		switch s.Name {
		case "core.decide":
			decideNs += s.Dur()
			scheme := strings.ToLower(s.Run[:strings.IndexByte(s.Run, '/')])
			perScheme[scheme] = [2]int64{perScheme[scheme][0] + self[s.ID], perScheme[scheme][1] + 1}
		case "sim.step":
			stepNs += s.Dur()
			stepSelfNs += self[s.ID]
			steps++
		}
	}
	for _, sc := range []string{"inor", "dnor", "ehtr"} {
		m.set("core.decide_us."+sc, meanUs(perScheme[sc][0], perScheme[sc][1]), "us")
	}
	dec := byName["core.decide"]
	m.set("core.decide_us.n100", meanUs(dec[0], dec[1]), "us")
	ph := traced.phases
	share, phaseShare := float64(decideNs)/float64(stepNs), float64(ph.DecideNs)/float64(ph.TotalNs())
	m.set("core.decide_share", share, "ratio")
	m.set("core.decide_share_phases", phaseShare, "ratio")
	if math.Abs(share-phaseShare) > decideShareTolerance {
		t.Fail("controller: decorator decide share %.4f and Result.Phases share %.4f differ by more than %g", share, phaseShare, decideShareTolerance)
	}
	m.set("core.decisions", float64(dec[1]), "count")
	m.set("core.reconfigurations.dnor", float64(traced.dnorSw), "count")
	pred := byName["predict.predict"]
	if pred[1] > 0 {
		m.set("core.dnor.actuate_ratio", float64(traced.switched)/float64(pred[1]), "ratio")
	}
	obs := byName["predict.observe"]
	m.set("predict.observe_us", meanUs(obs[0], obs[1]), "us")
	m.set("predict.predict_us", meanUs(pred[0], pred[1]), "us")
	m.set("predict.calls", float64(obs[1]+pred[1]), "count")
	m.set("sim.step_self_us", meanUs(stepSelfNs, steps), "us")
	m.set("sim.sense_us", meanUs(ph.SenseNs, ph.Samples), "us")
	m.set("sim.act_us", meanUs(ph.ActNs, ph.Samples), "us")
	m.set("thermal.solve_us", meanUs(ph.TempsNs, ph.Samples), "us")
	cond := byName["drive.conditions"]
	m.set("drive.conditions_us", meanUs(cond[0], cond[1]), "us")
	p0 := plain.moduleTicksPerS()
	m.set("trace.overhead_frac", (p0-traced.moduleTicksPerS())/p0, "ratio")

	// The store and report layers, timed on the lap's serialized
	// results: each payload under ctrlReplayCopies content keys.
	payloads := map[string][]byte{}
	for _, b := range plain.results {
		for i := range ctrlReplayCopies {
			payloads[digest(b, []byte{byte(i)})] = b
		}
	}
	defer removeStores(cfg)
	getUs, putUs, err := replayStore(filepath.Join(cfg.Out, fmt.Sprintf("store-replay-%d-0", cfg.Seed)), payloads)
	if err != nil {
		return Outcome{}, err
	}
	m.set("store.get_us", getUs, "us")
	m.set("store.put_us", putUs, "us")
	encUs, err := replayEncode(payloads, &t)
	if err != nil {
		return Outcome{}, err
	}
	m.set("report.encode_us", encUs, "us")
	return Outcome{Metrics: m, Tally: t}, nil
}

// zeroLayers returns every per-layer metric at 0: the value a layer
// the workload does not exercise keeps.
func zeroLayers() Metrics {
	m := Metrics{}
	for _, l := range perLayer {
		m.set(l.name, 0, l.unit)
	}
	return m
}

// secs converts float seconds to a duration.
func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// subSeed derives an independent positive seed for one input stream
// from the benchmark seed (splitmix64 over the seed and a label).
func subSeed(seed int64, label string) int64 {
	x := uint64(seed)
	for _, c := range []byte(label) {
		x = x*31 + uint64(c)
	}
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x>>2) + 1
}
