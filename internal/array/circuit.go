package array

import (
	"fmt"
	"math"

	"tegrecon/internal/teg"
)

// GroupEquivalent is the Thevenin equivalent of one parallel group:
// output voltage V(I) = Voc − I·R for the group as a two-terminal source.
type GroupEquivalent struct {
	Voc float64 // equivalent open-circuit voltage, V
	R   float64 // equivalent source resistance, Ω
}

// Equivalent is the Thevenin equivalent of a whole configuration: the
// series chain of group equivalents plus per-group data needed to
// recover module currents. Broken reports that some series group has no
// conducting module at all (every member failed open), interrupting the
// whole chain.
type Equivalent struct {
	Voc    float64 // Σ group Voc, V
	R      float64 // Σ group R, Ω
	Broken bool
	Groups []GroupEquivalent
}

// Array binds a module spec to the per-module thermal operating points
// and answers electrical questions about configurations. It is a value
// type: build one per control step from the freshly sensed temperatures.
// Health, when non-nil, carries per-module failure states (see
// health.go); nil means all modules healthy.
type Array struct {
	Spec   teg.ModuleSpec
	Ops    []teg.OperatingPoint
	Health []ModuleHealth
}

// New assembles an Array after validating the spec.
func New(spec teg.ModuleSpec, ops []teg.OperatingPoint) (*Array, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if len(ops) == 0 {
		return nil, fmt.Errorf("array: no operating points")
	}
	return &Array{Spec: spec, Ops: ops}, nil
}

// N returns the module count.
func (a *Array) N() int { return len(a.Ops) }

// MPPCurrents returns I_MPP,i for every module — the input to
// Algorithm 1. Failed modules contribute zero (they cannot source
// current at any operating point).
func (a *Array) MPPCurrents() []float64 {
	return a.MPPCurrentsInto(nil)
}

// MPPCurrentsInto is MPPCurrents writing into dst, reusing its backing
// storage when the capacity suffices. The controllers recompute the MPP
// current vector every decision; a reused scratch slice keeps that off
// the heap.
func (a *Array) MPPCurrentsInto(dst []float64) []float64 {
	if cap(dst) < len(a.Ops) {
		dst = make([]float64, len(a.Ops))
	}
	dst = dst[:len(a.Ops)]
	for i, op := range a.Ops {
		if a.healthOf(i) == Healthy {
			dst[i] = a.Spec.MPPCurrent(op)
		} else {
			dst[i] = 0
		}
	}
	return dst
}

// IdealPower returns P_ideal = Σ module MPP powers over the healthy
// modules (Fig. 7 normaliser).
func (a *Array) IdealPower() float64 {
	if a.Health == nil {
		return a.Spec.IdealPower(a.Ops)
	}
	sum := 0.0
	for i, op := range a.Ops {
		if a.healthOf(i) == Healthy {
			sum += a.Spec.MaxPowerPoint(op).Power
		}
	}
	return sum
}

// Norton is one module's Norton equivalent: conductance G = 1/R and
// source current VG = Voc·G. A failed-open module does not conduct; a
// failed-short one conducts with G = 1/R_short and no source.
type Norton struct {
	G, VG    float64
	Conducts bool
}

// Terms is the per-module Norton slab of one array, in chain order: the
// only per-module input of the Thevenin sum, the module-current solve
// and the reverse-current scan. The evaluator prices dozens of
// candidate configurations of the same array per control period, so it
// computes the slab once and reads it for every candidate instead of
// re-deriving each module's resistance and EMF per question.
type Terms []Norton

// TermsInto writes every module's Norton terms, honouring its health,
// into dst, reusing its backing storage when the capacity suffices.
func (a *Array) TermsInto(dst Terms) Terms {
	if cap(dst) < len(a.Ops) {
		dst = make(Terms, len(a.Ops))
	}
	dst = dst[:len(a.Ops)]
	for i, op := range a.Ops {
		switch a.healthOf(i) {
		case FailedOpen:
			dst[i] = Norton{}
		case FailedShort:
			dst[i] = Norton{G: 1 / shortResistance, Conducts: true}
		default:
			r := a.Spec.R(op)
			dst[i] = Norton{G: 1 / r, VG: a.Spec.Voc(op) / r, Conducts: true}
		}
	}
	return dst
}

// Equivalent computes the Thevenin equivalent of cfg.
//
// Modules of a group share their terminal voltage V_g; solving the node
// equation Σᵢ (Voc,i − V_g)/Rᵢ = I gives
//
//	V_g(I) = (Σ Voc,i/Rᵢ − I) / (Σ 1/Rᵢ)
//
// i.e. Voc_g = (Σ Voc,i/Rᵢ)/(Σ 1/Rᵢ) and R_g = 1/(Σ 1/Rᵢ). Groups in
// series add voltages and resistances.
func (a *Array) Equivalent(cfg Config) (Equivalent, error) {
	var eq Equivalent
	if err := a.TermsInto(nil).EquivalentInto(&eq, cfg); err != nil {
		return Equivalent{}, err
	}
	return eq, nil
}

// EquivalentInto is Array.Equivalent assembled in place from the slab:
// dst's Groups backing storage is reused when its capacity suffices, and
// every other field is overwritten. Together with a reused slab this
// keeps pricing a configuration off the heap. On error dst is left in
// an unspecified state.
func (t Terms) EquivalentInto(dst *Equivalent, cfg Config) error {
	if cfg.N != len(t) {
		return fmt.Errorf("array: config for %d modules applied to %d", cfg.N, len(t))
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	n := cfg.Groups()
	if cap(dst.Groups) < n {
		dst.Groups = make([]GroupEquivalent, n)
	}
	dst.Groups = dst.Groups[:n]
	dst.Voc, dst.R, dst.Broken = 0, 0, false
	for j := range dst.Groups {
		lo, hi := cfg.GroupBounds(j)
		sumG, sumVG := 0.0, 0.0 // Σ 1/R, Σ Voc/R
		for _, m := range t[lo:hi] {
			if !m.Conducts {
				continue
			}
			sumG += m.G
			sumVG += m.VG
		}
		if sumG == 0 {
			// Every module of the group failed open: the series chain
			// is interrupted and the array cannot deliver current.
			dst.Broken = true
			dst.Voc = 0
			dst.R = 0
			return nil
		}
		g := GroupEquivalent{Voc: sumVG / sumG, R: 1 / sumG}
		dst.Groups[j] = g
		dst.Voc += g.Voc
		dst.R += g.R
	}
	return nil
}

// VoltageAt returns the array terminal voltage at output current i.
func (e Equivalent) VoltageAt(i float64) float64 { return e.Voc - i*e.R }

// PowerAt returns the array output power at output current i.
func (e Equivalent) PowerAt(i float64) float64 { return e.VoltageAt(i) * i }

// MPP returns the unconstrained array maximum power point
// (I = Voc/2R, P = Voc²/4R).
func (e Equivalent) MPP() teg.MPP {
	return teg.MPP{
		Voltage: e.Voc / 2,
		Current: e.Voc / (2 * e.R),
		Power:   e.Voc * e.Voc / (4 * e.R),
	}
}

// ModuleCurrents returns the current through every module when the array
// delivers output current i under cfg. Within group j the module m
// carries (Voc,m − V_g)·g_m with V_g = Voc_g − i·R_g; failed-open
// modules carry nothing and failed-short modules sink −V_g/R_short. A
// broken chain (see Equivalent.Broken) carries zero everywhere.
func (a *Array) ModuleCurrents(cfg Config, iOut float64) ([]float64, error) {
	t := a.TermsInto(nil)
	var eq Equivalent
	if err := t.EquivalentInto(&eq, cfg); err != nil {
		return nil, err
	}
	return t.ModuleCurrentsInto(nil, eq, cfg, iOut), nil
}

// ModuleCurrentsInto is Array.ModuleCurrents read off the slab against
// an already computed Equivalent of cfg and written into dst, reusing
// its backing storage when the capacity suffices — the allocation-free
// form the simulator's per-tick efficiency accounting runs on.
func (t Terms) ModuleCurrentsInto(dst []float64, eq Equivalent, cfg Config, iOut float64) []float64 {
	if cap(dst) < len(t) {
		dst = make([]float64, len(t))
	}
	out := dst[:len(t)]
	for i := range out {
		out[i] = 0
	}
	if eq.Broken {
		return out
	}
	for j, g := range eq.Groups {
		vg := g.Voc - iOut*g.R
		lo, hi := cfg.GroupBounds(j)
		for m := lo; m < hi; m++ {
			if t[m].Conducts {
				out[m] = t[m].VG - vg*t[m].G
			}
		}
	}
	return out
}

// HasReverseCurrent reports whether any module would be driven below
// zero current (absorbing power — the failure mode of Fig. 3) when the
// array delivers iOut under cfg.
func (a *Array) HasReverseCurrent(cfg Config, iOut float64) (bool, error) {
	t := a.TermsInto(nil)
	var eq Equivalent
	if err := t.EquivalentInto(&eq, cfg); err != nil {
		return false, err
	}
	return t.HasReverseCurrentAt(eq, cfg, iOut), nil
}

// HasReverseCurrentAt is Array.HasReverseCurrent read off the slab
// against an already computed Equivalent of cfg. It needs no
// module-current scratch: within group j the module current
// (Voc,m − V_g)·g_m is checked on the fly.
func (t Terms) HasReverseCurrentAt(eq Equivalent, cfg Config, iOut float64) bool {
	if eq.Broken {
		return false
	}
	for j, g := range eq.Groups {
		vg := g.Voc - iOut*g.R
		lo, hi := cfg.GroupBounds(j)
		for _, m := range t[lo:hi] {
			if m.Conducts && m.VG-vg*m.G < -1e-9 {
				return true
			}
		}
	}
	return false
}

// PowerAtCurrent returns the array output power at current iOut under
// cfg (may be negative past short circuit).
func (a *Array) PowerAtCurrent(cfg Config, iOut float64) (float64, error) {
	eq, err := a.Equivalent(cfg)
	if err != nil {
		return 0, err
	}
	return eq.PowerAt(iOut), nil
}

// ArrayMPP returns the unconstrained maximum power point of cfg.
func (a *Array) ArrayMPP(cfg Config) (teg.MPP, error) {
	eq, err := a.Equivalent(cfg)
	if err != nil {
		return teg.MPP{}, err
	}
	return eq.MPP(), nil
}

// MismatchLoss returns 1 − P_MPP(cfg)/P_ideal: the fraction of the ideal
// power lost to series/parallel mismatch under cfg, before converter
// losses. Zero means every module sits exactly at its MPP.
func (a *Array) MismatchLoss(cfg Config) (float64, error) {
	mpp, err := a.ArrayMPP(cfg)
	if err != nil {
		return 0, err
	}
	ideal := a.IdealPower()
	if ideal <= 0 {
		return 0, nil
	}
	loss := 1 - mpp.Power/ideal
	if loss < 0 {
		// Guard against floating-point jitter; the array MPP can never
		// beat the sum of individual MPPs.
		if loss < -1e-9 {
			return 0, fmt.Errorf("array: MPP %g exceeds ideal %g", mpp.Power, ideal)
		}
		loss = 0
	}
	return loss, nil
}

// EnergyConservationCheck verifies that at output current i the power
// delivered by the array equals Σ module V·I minus nothing (parallel
// wiring is lossless in this model). Returns the relative discrepancy;
// used by tests and the simulator's self-check mode.
func (a *Array) EnergyConservationCheck(cfg Config, iOut float64) (float64, error) {
	eq, err := a.Equivalent(cfg)
	if err != nil {
		return 0, err
	}
	if eq.Broken {
		return 0, nil
	}
	currents, err := a.ModuleCurrents(cfg, iOut)
	if err != nil {
		return 0, err
	}
	sum := 0.0
	for m, im := range currents {
		// Each conducting module's terminal sits at its group voltage;
		// failed-short modules therefore contribute negative power.
		vg := eq.Groups[cfg.GroupOf(m)].Voc - iOut*eq.Groups[cfg.GroupOf(m)].R
		sum += vg * im
	}
	pArr := eq.PowerAt(iOut)
	scale := math.Max(math.Abs(pArr), 1e-9)
	return math.Abs(sum-pArr) / scale, nil
}
