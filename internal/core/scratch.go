package core

import (
	"fmt"
	"math"

	"tegrecon/internal/array"
	"tegrecon/internal/teg"
	"tegrecon/internal/units"
)

// scratch is the reusable work state of one decider. Every buffer the
// per-period decision path needs — operating points, the Norton slab,
// MPP currents, prefix sums, candidate partitions, the Thevenin
// equivalent and the delivered-power closure handed to the
// golden-section search — lives
// here and is overwritten in place each Decide, so a controller's
// steady-state decision performs no heap allocation.
//
// A scratch is owned by exactly one controller and shares its
// no-concurrent-use contract; the configs a decider returns alias the
// winner buffers below and stay valid only until its next Decide call
// (callers that retain a configuration across periods — the simulator's
// previous-topology bookkeeping, DNOR's incumbent — copy what they
// keep).
type scratch struct {
	ops    []teg.OperatingPoint // sensed temperatures → operating points
	arr    array.Array          // assembled in place over ops
	terms  array.Terms          // per-module Norton slab of arr, shared by all candidates
	impp   []float64            // per-module MPP currents (Algorithm 1 input)
	prefix []float64            // prefix sums of impp, shared by all candidates
	starts []int                // candidate partition under evaluation
	best   []int                // winner partition (any operating point)
	clean  []int                // winner partition without reverse-driven modules
	park   []int                // the all-parallel fallback config
	eq     array.Equivalent     // Thevenin equivalent of the candidate under pricing
	dp     dpBuffers            // EHTR's dynamic-programming state
	stats  kernelStats          // work counters, accumulated over the scratch's life

	// deliver is the converter-weighted power at array output current i
	// for the equivalent currently in eq — the objective handed to the
	// coarse scan and golden-section search. Built once per scratch so
	// pricing a candidate captures no per-call closure.
	deliver func(i float64) float64
}

// kernelStats counts the decision kernel's work: how many candidate
// partitions configureAt considered, how many of them the Thevenin bound
// pruned without a search, how many equivalents went to the
// delivered-power search (the candidates' and DNOR's window pricings)
// and how many reverse-current scans ran. Plain ints on the scratch, so counting allocates nothing.
type kernelStats struct {
	candidates   int
	pruned       int
	searches     int
	reverseScans int
}

// newScratch builds a scratch whose deliver closure prices power
// through e's converter.
func newScratch(e *Evaluator) *scratch {
	sc := &scratch{}
	sc.deliver = func(i float64) float64 {
		v := sc.eq.VoltageAt(i)
		return e.Conv.OutputPower(v, v*i)
	}
	return sc
}

// parkConfig returns the all-parallel configuration backed by the
// scratch's own storage (the zero-EMF fallback of configureAt).
func (sc *scratch) parkConfig(n int) array.Config {
	if cap(sc.park) < 1 {
		sc.park = make([]int, 1)
	}
	sc.park = sc.park[:1]
	sc.park[0] = 0
	return array.Config{N: n, Starts: sc.park}
}

// maxDelivered locates the delivered-power maximum of the equivalent in
// sc.eq: a coarse scan brackets the global maximum (robust to the
// converter's input-window cliff), golden section refines it. The
// returned Operating leaves Reverse unset; searched reports whether the
// refinement ran, which is exactly when the caller's reverse-current
// scan applies — an equivalent with no EMF, or one the converter cannot
// run anywhere on, delivers nothing and is never reverse-flagged.
func (e *Evaluator) maxDelivered(sc *scratch) (op Operating, searched bool) {
	sc.stats.searches++
	if sc.eq.Voc <= 0 {
		return Operating{}, false
	}
	isc := sc.eq.Voc / sc.eq.R
	// Coarse scan to bracket the global maximum. Each point is
	// deliver(i) = pin·η(v) (0 when pin ≤ 0) computed inline, so the
	// efficiency — and its logarithm — can be skipped where it cannot
	// win: η ≤ PeakEff and rounding a product by a positive pin is
	// monotone, so pin·η ≤ pin·PeakEff, and a point with
	// pin·PeakEff ≤ bestP fails the strict > below either way.
	const coarse = 64
	peak := e.Conv.PeakEff
	bestI, bestP := 0.0, 0.0
	for k := 0; k <= coarse; k++ {
		i := isc * float64(k) / coarse
		v := sc.eq.VoltageAt(i)
		pin := v * i
		if pin <= 0 || pin*peak <= bestP {
			continue
		}
		if p := pin * e.Conv.Efficiency(v); p > bestP {
			bestP, bestI = p, i
		}
	}
	if bestP <= 0 {
		// Converter cannot run anywhere on this curve.
		return Operating{}, false
	}
	lo := math.Max(0, bestI-isc/coarse)
	hi := math.Min(isc, bestI+isc/coarse)
	i, p := units.GoldenMax(sc.deliver, lo, hi, isc*1e-7)
	v := sc.eq.VoltageAt(i)
	return Operating{
		Current:   i,
		Voltage:   v,
		ArrayW:    v * i,
		Delivered: p,
	}, true
}

// deliveredAt prices cfg over the scratch's slab: its Thevenin
// equivalent into sc.eq, then the delivered-power maximum. No reverse
// scan — for callers that use only the power.
func (e *Evaluator) deliveredAt(sc *scratch, cfg array.Config) (float64, error) {
	if err := sc.terms.EquivalentInto(&sc.eq, cfg); err != nil {
		return 0, err
	}
	op, _ := e.maxDelivered(sc)
	return op.Delivered, nil
}

// configureAt searches the group-count window through the scratch:
// greedy partitions (INOR/DNOR) or the exhaustive DP (EHTR when
// exhaustive is set), each candidate priced over the array's Norton
// slab, computed once. The returned Config aliases the scratch winner
// buffers and is valid until the scratch's next use; the bool reports
// that it came out of the search rather than the all-parallel fallback.
//
// Two exact shortcuts skip work whose result cannot reach the output
// (see determinism invariant 4 in docs/ARCHITECTURE.md). Once a clean
// winner is held, a candidate whose Thevenin bound
// PeakEff·Voc²/(4R), padded by 1e-12 for rounding, cannot exceed it is
// pruned unsearched; and the reverse scan runs only for a candidate
// that could displace the clean winner — every other one fails the
// strict > of both winner updates whatever its flag.
func (e *Evaluator) configureAt(sc *scratch, arr *array.Array, exhaustive bool) (array.Config, Operating, bool, error) {
	nmin, nmax, err := e.GroupWindow(arr)
	if err != nil {
		// No EMF or no feasible window: park in the all-parallel
		// configuration delivering nothing.
		return sc.parkConfig(arr.N()), Operating{}, false, nil
	}
	sc.terms = arr.TermsInto(sc.terms)
	sc.impp = arr.MPPCurrentsInto(sc.impp)
	sc.prefix = prefixSumsInto(sc.prefix, sc.impp)
	if exhaustive {
		// The DP cost Σ groupSum² is independent of the group count, so
		// one table build serves the whole candidate window; each n below
		// is a backward walk over it.
		if err := sc.dp.tableInto(sc.prefix, nmax); err != nil {
			return array.Config{}, Operating{}, false, err
		}
	}

	var bestCfg, cleanCfg array.Config
	var bestOp, cleanOp Operating
	haveAny, haveClean := false, false
	for n := nmin; n <= nmax; n++ {
		if err := checkPartition(arr.N(), n); err != nil {
			return array.Config{}, Operating{}, false, err
		}
		if cap(sc.starts) < n {
			sc.starts = make([]int, n)
		}
		sc.starts = sc.starts[:n]
		if exhaustive {
			if err := sc.dp.reconstructInto(sc.starts); err != nil {
				return array.Config{}, Operating{}, false, err
			}
		} else {
			greedyPartitionInto(sc.starts, sc.prefix)
		}
		cfg := array.Config{N: arr.N(), Starts: sc.starts}
		if err := sc.terms.EquivalentInto(&sc.eq, cfg); err != nil {
			return array.Config{}, Operating{}, false, err
		}
		sc.stats.candidates++
		// Delivered = pin·η ≤ PeakEff·Voc²/(4R) up to a few ulps, and
		// cleanOp ≤ bestOp, so a bounded-out candidate changes neither
		// winner; bestOp is only returned when no clean one exists.
		if haveClean && e.Conv.PeakEff*(sc.eq.Voc*sc.eq.Voc/(4*sc.eq.R))*(1+1e-12) <= cleanOp.Delivered {
			sc.stats.pruned++
			continue
		}
		op, searched := e.maxDelivered(sc)
		if searched && (!haveClean || op.Delivered > cleanOp.Delivered) {
			sc.stats.reverseScans++
			op.Reverse = sc.terms.HasReverseCurrentAt(sc.eq, cfg, op.Current)
		}
		if !haveAny || op.Delivered > bestOp.Delivered {
			sc.best = append(sc.best[:0], sc.starts...)
			bestCfg = array.Config{N: arr.N(), Starts: sc.best}
			bestOp, haveAny = op, true
		}
		// The Fig. 3 current constraint: prefer configurations whose
		// operating point drives no module in reverse.
		if !op.Reverse && (!haveClean || op.Delivered > cleanOp.Delivered) {
			sc.clean = append(sc.clean[:0], sc.starts...)
			cleanCfg = array.Config{N: arr.N(), Starts: sc.clean}
			cleanOp, haveClean = op, true
		}
	}
	if haveClean {
		return cleanCfg, cleanOp, true, nil
	}
	if haveAny {
		return bestCfg, bestOp, true, nil
	}
	return sc.parkConfig(arr.N()), Operating{}, false, nil
}

// configureTempsAt converts the sensed temperatures in place and runs
// configureAt over the scratch-assembled array — the allocation-free
// body shared by INOR's and DNOR's decision ticks.
func (e *Evaluator) configureTempsAt(sc *scratch, tempsC []float64, ambientC float64, exhaustive bool) (array.Config, Operating, bool, error) {
	if len(tempsC) == 0 {
		return array.Config{}, Operating{}, false, fmt.Errorf("array: no operating points")
	}
	sc.ops = teg.OpsFromTempsInto(sc.ops, tempsC, ambientC)
	sc.arr = array.Array{Spec: e.Spec, Ops: sc.ops}
	return e.configureAt(sc, &sc.arr, exhaustive)
}
