package nocdr

import (
	"context"

	"github.com/nocdr/nocdr/internal/core"
	"github.com/nocdr/nocdr/internal/reconfig"
	"github.com/nocdr/nocdr/internal/regular"
	"github.com/nocdr/nocdr/internal/route"
)

// Online reconfiguration surface: evolve an already-removed design
// through live link-fault events instead of re-running the batch
// pipeline. See DESIGN.md §9 for the state machine and guarantees.
type (
	// ReconfigDesign is a self-contained removed design bundle — grid
	// shape, turn model, topology with VC assignment and fault mask,
	// traffic, candidate routes — the unit `nocexp design` writes and
	// Reconfigure evolves. (Distinct from Design, the synthesis result.)
	ReconfigDesign = reconfig.Design
	// ReconfigDelta is the typed report of one committed fault event.
	ReconfigDelta = reconfig.Delta
	// ReconfigBreak is one replay cycle break in report form.
	ReconfigBreak = reconfig.DeltaBreak
	// ReconfigDowntime is the simulator-derived transition-cost estimate.
	ReconfigDowntime = reconfig.Downtime
)

// Reconfiguration stage names, in state-machine order (the values of
// Event.Stage on EventReconfigStage).
const (
	StageRerouting  = reconfig.StageRerouting
	StageReplaying  = reconfig.StageReplaying
	StageSimulating = reconfig.StageSimulating
	StageCommitted  = reconfig.StageCommitted
	StageRolledBack = reconfig.StageRolledBack
)

// ReconfigOptions configures one Reconfigure call beyond the Session's
// own policy (WithVCLimit bounds the replay's additions, WithPolicy /
// WithSelection / WithMaxIterations apply to the replay loop).
type ReconfigOptions struct {
	// SkipSim omits the downtime estimate.
	SkipSim bool
	// SimCycles is the downtime simulation horizon (0 = library
	// default).
	SimCycles int64
}

// ReconfigResult couples the committed design with the per-fault
// reports, in the order the faults were applied.
type ReconfigResult struct {
	Design *ReconfigDesign
	Deltas []*ReconfigDelta
}

// NewReconfigDesign builds a removed ReconfigDesign on a regular grid:
// mesh or torus (wrap), turn-model candidate routes under the Session's
// WithMaxPaths, then deadlock removal under the Session's policy. The
// model name uses the canonical turn-model spellings (see
// ParseTurnModel).
func (s *Session) NewReconfigDesign(ctx context.Context, cols, rows int, wrap bool, model string, g *TrafficGraph) (*ReconfigDesign, error) {
	tm, err := route.ParseTurnModel(model)
	if err != nil {
		return nil, wrapErr(err)
	}
	grid, err := regular.NewGrid(cols, rows, wrap)
	if err != nil {
		return nil, wrapErr(err)
	}
	d, _, err := reconfig.NewContext(ctx, grid, g, tm, s.maxPaths, s.removalOptions())
	return d, wrapErr(err)
}

// Reconfigure applies link-fault events to a removed design, one at a
// time in the given order: each event reroutes only the flows the fault
// displaces (same turn-model semantics that generated the design,
// including the any-turn BFS escape), replays the removal from the
// existing VC assignment, verifies the result, estimates downtime in
// the simulator, and commits — or rolls the event back atomically,
// leaving the design exactly as the previous event left it. The input
// design is never mutated; the returned result carries the evolved copy
// plus one ReconfigDelta per committed event.
//
// The progress feed receives EventReconfigStage transitions,
// EventCycleBroken/EventVCAdded for each replay break, and one
// EventReconfigDelta per commit. A failed event aborts the sequence:
// earlier events' commits are retained in the returned result alongside
// the error.
func (s *Session) Reconfigure(ctx context.Context, d *ReconfigDesign, faults []LinkID, opts ReconfigOptions) (*ReconfigResult, error) {
	st, err := reconfig.NewState(d)
	if err != nil {
		return nil, wrapErr(err)
	}
	res := &ReconfigResult{Design: st.Design(), Deltas: []*ReconfigDelta{}}
	for _, fault := range faults {
		delta, err := st.ApplyFault(ctx, fault, s.reconfigOptions(opts))
		if err != nil {
			res.Design = st.Design()
			return res, wrapErr(err)
		}
		res.Deltas = append(res.Deltas, delta)
		if s.progress != nil {
			s.progress(Event{Kind: EventReconfigDelta, Fault: fault, Delta: delta})
		}
	}
	res.Design = st.Design()
	return res, nil
}

// reconfigOptions materializes one fault event's options from the
// Session configuration, wiring the Event feed into the state machine
// and the replay's break loop.
func (s *Session) reconfigOptions(opts ReconfigOptions) reconfig.Options {
	ro := reconfig.Options{
		VCLimit:       s.vcLimit,
		MaxIterations: s.maxIterations,
		Selection:     s.selection,
		Policy:        s.policy,
		SkipSim:       opts.SkipSim,
		SimCycles:     opts.SimCycles,
	}
	if s.progress != nil {
		ro.OnStage = func(stage string, fault LinkID) {
			s.progress(Event{Kind: EventReconfigStage, Stage: stage, Fault: fault})
		}
		iter := 0
		ro.OnBreak = func(rec core.BreakRecord) {
			iter++
			r := rec
			s.progress(Event{Kind: EventCycleBroken, Iteration: iter, Break: &r})
			for _, ch := range rec.NewChannels {
				s.progress(Event{Kind: EventVCAdded, Iteration: iter, Channel: ch})
			}
		}
	}
	return ro
}
