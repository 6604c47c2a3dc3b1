package sim

import (
	"context"
	"fmt"
	"math"

	"tegrecon/internal/array"
	"tegrecon/internal/core"
	"tegrecon/internal/drive"
	"tegrecon/internal/teg"
	"tegrecon/internal/thermal"
	"tegrecon/internal/trace"
)

// Stepping selects how a Batch advances its jobs.
type Stepping int

const (
	// StepAuto picks lockstep when the jobs share a plant and tick
	// cadence (one radiator, one module count, one TickSeconds) and the
	// per-session path otherwise.
	StepAuto Stepping = iota
	// StepSessions forces one independent session per job — the
	// pre-lockstep behaviour.
	StepSessions
	// StepLockstep forces the fleet engine even for heterogeneous jobs
	// (correct but without shared-solve savings).
	StepLockstep
)

// FleetJob describes one member of a lockstep fleet: a controller over
// a system under the given options. Unlike Job there is no trace — a
// Fleet is fed its boundary conditions tick by tick, like a Session.
type FleetJob struct {
	Sys  *System
	Ctrl core.Controller
	Opts Options
}

// Fleet advances M sessions in lockstep, one control period at a time,
// through shared per-tick phase loops: every member solves its radiator
// (phase 1, deduplicated across members with identical plants and
// boundary conditions), then every member senses, then decides, then
// acts. Behind the phase interleave each member is an ordinary Session
// — same RNG stream, same controller, same accounting — so fleet
// results are bit-identical to stepping the members separately
// (TestFleetMatchesSessions is the referee).
//
// Memory layout: the members' per-tick vectors (module temperatures,
// sensed view, operating points, module currents, topology copies,
// Thevenin group equivalents) are rows of contiguous [M×N] slabs
// carved at construction, so a tick walks the fleet's plant state
// sequentially instead of pointer-chasing M heap-scattered scratches.
// A Fleet is not safe for concurrent use; drive it from one goroutine.
type Fleet struct {
	sessions []*Session
	retired  []bool
	active   int
}

// NewFleet validates every member and builds the fleet at power-on
// state with slab-backed scratches.
func NewFleet(jobs []FleetJob) (*Fleet, error) {
	f, i, err := newFleet(jobs)
	if err != nil {
		if i >= 0 {
			return nil, fmt.Errorf("sim: fleet member %d: %w", i, err)
		}
		return nil, err
	}
	return f, nil
}

// newFleet is NewFleet reporting the failing member's index (-1 for
// fleet-wide errors), which the batch engine maps back onto job-indexed
// errors.
func newFleet(jobs []FleetJob) (*Fleet, int, error) {
	if len(jobs) == 0 {
		return nil, -1, fmt.Errorf("sim: empty fleet")
	}
	total := 0
	for i, j := range jobs {
		if j.Sys == nil {
			return nil, i, fmt.Errorf("sim: nil system")
		}
		if err := j.Sys.Validate(); err != nil {
			return nil, i, err
		}
		total += j.Sys.Modules
	}
	// One contiguous slab per per-module quantity; member i owns the
	// zero-length, capacity-N row at its offset and the Into-forms of
	// the tick loop fill it in place (they reuse any destination whose
	// capacity suffices, and the three-index rows cap at the row end,
	// so no member can grow into its neighbour).
	var (
		temps    = make([]float64, total)
		sensed   = make([]float64, total)
		currents = make([]float64, total)
		ops      = make([]teg.OperatingPoint, total)
		terms    = make(array.Terms, total)
		prev     = make([]int, total)
		groups   = make([]array.GroupEquivalent, total)
	)
	f := &Fleet{
		sessions: make([]*Session, 0, len(jobs)),
		retired:  make([]bool, len(jobs)),
		active:   len(jobs),
	}
	off := 0
	for i, j := range jobs {
		n := j.Sys.Modules
		sc := newScratch()
		sc.temps = temps[off : off : off+n]
		sc.sensed = sensed[off : off : off+n]
		sc.currents = currents[off : off : off+n]
		sc.ops = ops[off : off : off+n]
		sc.terms = terms[off : off : off+n]
		sc.prevStarts = prev[off : off : off+n]
		sc.eq.Groups = groups[off : off : off+n]
		off += n
		s, err := newSessionWith(j.Sys, j.Ctrl, j.Opts, sc)
		if err != nil {
			return nil, i, err
		}
		f.sessions = append(f.sessions, s)
	}
	return f, -1, nil
}

// Len returns the member count, retired members included.
func (f *Fleet) Len() int { return len(f.sessions) }

// Active returns how many members are still stepping.
func (f *Fleet) Active() int { return f.active }

// Session returns member i's underlying session — its Result, clock and
// step count. The session stays owned by the fleet; do not Step it
// directly while the fleet is live.
func (f *Fleet) Session(i int) *Session { return f.sessions[i] }

// Retire removes member i from all subsequent phase loops (its trace
// ran out, its scenario ended). Its Result remains readable; retiring
// twice is a no-op.
func (f *Fleet) Retire(i int) {
	if !f.retired[i] {
		f.retired[i] = true
		f.active--
	}
}

// Step advances every active member one control period under its entry
// of conds (retired members' entries are ignored). The fleet runs each
// tick phase across all members before starting the next, sharing one
// radiator solve among members with identical plants and boundary
// conditions. On error the whole fleet stops mid-tick and the failing
// member's index is returned with the error; like a failed Session.Step,
// treat that as the end of the fleet, not a retryable blip.
func (f *Fleet) Step(conds []thermal.Conditions) (int, error) {
	return f.StepContext(context.Background(), conds)
}

// StepContext is Step with cancellation. The context is re-checked per
// member ahead of the decide and act phases — the expensive ones — so a
// cancel aborts a large fleet within about one member-step of compute,
// matching the per-session batch's abort latency instead of letting a
// whole fleet tick drain. A canceled member surfaces like a canceled
// run: "sim: <scheme> canceled at t=...".
func (f *Fleet) StepContext(ctx context.Context, conds []thermal.Conditions) (int, error) {
	if len(conds) != len(f.sessions) {
		return -1, fmt.Errorf("sim: %d conditions for a %d-member fleet", len(conds), len(f.sessions))
	}
	// Phase 1 — plant inputs. A later member whose radiator, module
	// count and boundary conditions match an earlier one copies the
	// leader's freshly solved temperature row: same inputs, same
	// distribution, bit-identical outputs without the fixed-point solve.
	for i, s := range f.sessions {
		if f.retired[i] {
			continue
		}
		copied := false
		for j := 0; j < i; j++ {
			if f.retired[j] {
				continue
			}
			l := f.sessions[j]
			if l.sys.Radiator == s.sys.Radiator && l.sys.Modules == s.sys.Modules && conds[j] == conds[i] {
				s.sc.temps = append(s.sc.temps[:0], l.sc.temps...)
				copied = true
				break
			}
		}
		if !copied {
			if err := s.tickTemps(conds[i]); err != nil {
				return i, err
			}
		}
	}
	// Phase 2 — measurement (fault plans, sensor noise).
	for i, s := range f.sessions {
		if f.retired[i] {
			continue
		}
		if err := s.tickSense(conds[i]); err != nil {
			return i, err
		}
	}
	// Phase 3 — control decisions.
	for i, s := range f.sessions {
		if f.retired[i] {
			continue
		}
		if err := ctx.Err(); err != nil {
			return i, fmt.Errorf("sim: %s canceled at t=%g: %w", s.ctrl.Name(), s.Now(), err)
		}
		if err := s.tickDecide(conds[i]); err != nil {
			return i, err
		}
	}
	// Phase 4 — plant, accounting, commit.
	for i, s := range f.sessions {
		if f.retired[i] {
			continue
		}
		if err := ctx.Err(); err != nil {
			return i, fmt.Errorf("sim: %s canceled at t=%g: %w", s.ctrl.Name(), s.Now(), err)
		}
		if _, err := s.tickAct(conds[i]); err != nil {
			return i, err
		}
	}
	return -1, nil
}

// lockstepEligible reports whether StepAuto routes these jobs onto the
// fleet engine: at least two jobs sharing one radiator, one module
// count and one tick cadence — the shape of every scheme-comparison
// and sweep driver, and the precondition for the shared radiator solve
// to pay off.
func lockstepEligible(jobs []Job) bool {
	if len(jobs) < 2 {
		return false
	}
	s0 := jobs[0]
	for _, j := range jobs[1:] {
		if j.Sys == nil || s0.Sys == nil {
			return false
		}
		if j.Sys.Radiator != s0.Sys.Radiator || j.Sys.Modules != s0.Sys.Modules ||
			j.Opts.TickSeconds != s0.Opts.TickSeconds {
			return false
		}
	}
	return true
}

// runFleetContext replays a contiguous chunk of trace-driven jobs
// through one lockstep fleet, replicating runContextWith semantics per
// member: the session clock starts at the trace's first timestamp, the
// tick count is floor(duration/tick)+1, the context is checked once per
// control period, and members whose traces span fewer ticks retire
// early. Results keep job order. On failure the chunk-relative index of
// the failing job is returned with its error.
func runFleetContext(ctx context.Context, jobs []Job) ([]*Result, int, error) {
	fjobs := make([]FleetJob, len(jobs))
	wanted := make([]int, len(jobs))
	maxTicks := 0
	for i, j := range jobs {
		if j.Trace == nil || j.Trace.Len() < 2 {
			return nil, i, fmt.Errorf("sim: trace too short")
		}
		opts := j.Opts
		opts.StartTime = j.Trace.Times[0]
		fjobs[i] = FleetJob{Sys: j.Sys, Ctrl: j.Ctrl, Opts: opts}
		wanted[i] = ticksFor(j.Trace, opts.TickSeconds)
		if wanted[i] > maxTicks {
			maxTicks = wanted[i]
		}
	}
	f, i, err := newFleet(fjobs)
	if err != nil {
		return nil, i, err
	}
	for i, j := range jobs {
		if j.Opts.KeepTicks {
			// The replay knows each member's span up front; pre-size the
			// buffers the way the per-session replay does.
			f.sessions[i].res.Ticks = make([]Tick, 0, wanted[i])
		}
	}
	conds := make([]thermal.Conditions, len(jobs))
	for t := 0; t < maxTicks; t++ {
		for i := range jobs {
			if !f.retired[i] && t >= wanted[i] {
				f.Retire(i)
			}
		}
		if f.active == 0 {
			break
		}
		if err := ctx.Err(); err != nil {
			for i, s := range f.sessions {
				if !f.retired[i] {
					return nil, i, fmt.Errorf("sim: %s canceled at t=%g: %w", s.ctrl.Name(), s.Now(), err)
				}
			}
		}
		for i, s := range f.sessions {
			if f.retired[i] {
				continue
			}
			cond, err := drive.ConditionsAt(jobs[i].Trace, s.Now())
			if err != nil {
				return nil, i, fmt.Errorf("sim: t=%g: %w", s.Now(), err)
			}
			conds[i] = cond
		}
		if i, err := f.StepContext(ctx, conds); err != nil {
			return nil, i, err
		}
	}
	results := make([]*Result, len(jobs))
	for i := range jobs {
		results[i] = f.sessions[i].Result()
	}
	return results, -1, nil
}

// ticksFor is the control-period count of a trace replay — the shared
// definition behind the per-session and lockstep paths.
func ticksFor(tr *trace.Trace, tickSeconds float64) int {
	return int(math.Floor(tr.Duration()/tickSeconds)) + 1
}
