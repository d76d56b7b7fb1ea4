// Package reconfig turns the batch deadlock-removal pipeline into a live
// one: a Design bundles everything a removed network needs to keep
// evolving (grid shape, turn model, topology with its VC assignment,
// traffic, candidate routes), and State applies fault events to it
// online — rerouting only the displaced flows, replaying the removal
// from the existing VC assignment, and reporting the change as a typed
// Delta instead of a fresh design. The differential tests pin the online
// path against from-scratch removal on the faulted topology: same
// acyclicity verdict, never more VCs.
package reconfig

import (
	"context"
	"encoding/json"
	"fmt"
	"io"

	"github.com/nocdr/nocdr/internal/core"
	"github.com/nocdr/nocdr/internal/nocerr"
	"github.com/nocdr/nocdr/internal/regular"
	"github.com/nocdr/nocdr/internal/route"
	"github.com/nocdr/nocdr/internal/topology"
	"github.com/nocdr/nocdr/internal/traffic"
)

// Design is a self-contained removed design: the artifact `nocexp
// design` writes, `nocexp reconfigure` evolves, and /v1/reconfigure
// accepts. Topology carries the VC assignment (extra VCs from removal)
// and the fault mask; Routes is the adaptive candidate set whose union
// CDG is acyclic. Grid, Model and MaxPaths record how the routes were
// generated, which is what lets a fault event regenerate just the
// displaced flows under identical semantics.
type Design struct {
	Grid     route.GridSpec
	Model    route.TurnModel
	MaxPaths int
	Topology *topology.Topology
	Traffic  *traffic.Graph
	Routes   *route.RouteSet
}

// New builds a removed Design from a regular grid: turn-model candidate
// routes (GridRoutes semantics, including the BFS fault escape), then
// RemoveSet to an acyclic union CDG under opts. The grid topology is not
// mutated.
func New(g *regular.Grid, tr *traffic.Graph, model route.TurnModel, maxPaths int, opts core.Options) (*Design, *core.SetResult, error) {
	return NewContext(context.Background(), g, tr, model, maxPaths, opts)
}

// NewContext is New with cooperative cancellation.
func NewContext(ctx context.Context, g *regular.Grid, tr *traffic.Graph, model route.TurnModel, maxPaths int, opts core.Options) (*Design, *core.SetResult, error) {
	set, err := route.GridRoutes(g.Topology, tr, g.Spec(), model, maxPaths)
	if err != nil {
		return nil, nil, err
	}
	res, err := core.RemoveSetContext(ctx, g.Topology, set, opts)
	if err != nil {
		return nil, nil, err
	}
	d := &Design{
		Grid:     g.Spec(),
		Model:    model,
		MaxPaths: maxPaths,
		Topology: res.Topology,
		Traffic:  tr.Clone(),
		Routes:   res.Routes,
	}
	return d, res, nil
}

// Clone returns a deep copy of the design.
func (d *Design) Clone() *Design {
	return &Design{
		Grid:     d.Grid,
		Model:    d.Model,
		MaxPaths: d.MaxPaths,
		Topology: d.Topology.Clone(),
		Traffic:  d.Traffic.Clone(),
		Routes:   d.Routes.Clone(),
	}
}

// Verify checks the design invariant a reconfiguration must preserve:
// the candidate set validates against the topology and traffic (faulted
// links avoided, walks contiguous) and its union CDG is acyclic.
func (d *Design) Verify() error {
	if err := d.Routes.Validate(d.Topology, d.Traffic); err != nil {
		return err
	}
	ok, err := core.DeadlockFreeSet(d.Topology, d.Routes)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("%w: design union CDG cyclic", nocerr.ErrCyclicCDG)
	}
	return nil
}

// ColdRemove is the from-scratch baseline the differential tests and the
// smoke CI compare the online path against: rebuild the design's grid
// fresh (base VCs only), re-apply its fault set, regenerate every flow's
// candidates, and run a full RemoveSet. The design itself is untouched.
func ColdRemove(ctx context.Context, d *Design, opts core.Options) (*core.SetResult, error) {
	g, err := LiveGrid(d)
	if err != nil {
		return nil, err
	}
	set, err := route.GridRoutes(g.Topology, d.Traffic, d.Grid, d.Model, d.MaxPaths)
	if err != nil {
		return nil, err
	}
	return core.RemoveSetContext(ctx, g.Topology, set, opts)
}

// LiveGrid rebuilds the design's grid from its recorded shape (1 VC per
// link) and masks the design's faulted links, so the result has the
// design's connectivity without its removal VCs. Designs are grid-born by
// construction — New is the only producer — so link IDs line up with the
// design's own.
func LiveGrid(d *Design) (*regular.Grid, error) {
	g, err := regular.NewGrid(d.Grid.Cols, d.Grid.Rows, d.Grid.Wrap)
	if err != nil {
		return nil, err
	}
	if faults := d.Topology.FaultedLinks(); len(faults) > 0 {
		if err := g.Topology.Fault(faults...); err != nil {
			return nil, err
		}
	}
	return g, nil
}

type jsonDesign struct {
	Version  int             `json:"version"`
	Grid     jsonGrid        `json:"grid"`
	Routing  string          `json:"routing"`
	MaxPaths int             `json:"max_paths"`
	Topology json.RawMessage `json:"topology"`
	Traffic  json.RawMessage `json:"traffic"`
	Routes   json.RawMessage `json:"routes"`
}

type jsonGrid struct {
	Cols int  `json:"cols"`
	Rows int  `json:"rows"`
	Wrap bool `json:"wrap,omitempty"`
}

// MarshalJSON encodes the design as a versioned bundle of the existing
// per-artifact schemas.
func (d *Design) MarshalJSON() ([]byte, error) {
	top, err := d.Topology.MarshalJSON()
	if err != nil {
		return nil, err
	}
	tr, err := d.Traffic.MarshalJSON()
	if err != nil {
		return nil, err
	}
	rs, err := d.Routes.MarshalJSON()
	if err != nil {
		return nil, err
	}
	return json.MarshalIndent(jsonDesign{
		Version:  1,
		Grid:     jsonGrid{Cols: d.Grid.Cols, Rows: d.Grid.Rows, Wrap: d.Grid.Wrap},
		Routing:  d.Model.String(),
		MaxPaths: d.MaxPaths,
		Topology: top,
		Traffic:  tr,
		Routes:   rs,
	}, "", "  ")
}

// UnmarshalJSON decodes the schema produced by MarshalJSON.
func (d *Design) UnmarshalJSON(data []byte) error {
	var jd jsonDesign
	if err := json.Unmarshal(data, &jd); err != nil {
		return fmt.Errorf("reconfig: %w: %w", nocerr.ErrInvalidInput, err)
	}
	if jd.Version != 1 {
		return fmt.Errorf("reconfig: unsupported design version %d: %w", jd.Version, nocerr.ErrInvalidInput)
	}
	model, err := route.ParseTurnModel(jd.Routing)
	if err != nil {
		return err
	}
	top := topology.New("")
	if err := top.UnmarshalJSON(jd.Topology); err != nil {
		return err
	}
	tr := traffic.NewGraph("")
	if err := tr.UnmarshalJSON(jd.Traffic); err != nil {
		return err
	}
	rs := route.NewRouteSet(0)
	if err := rs.UnmarshalJSON(jd.Routes); err != nil {
		return err
	}
	*d = Design{
		Grid:     route.GridSpec{Cols: jd.Grid.Cols, Rows: jd.Grid.Rows, Wrap: jd.Grid.Wrap},
		Model:    model,
		MaxPaths: jd.MaxPaths,
		Topology: top,
		Traffic:  tr,
		Routes:   rs,
	}
	return nil
}

// Write serializes the design as JSON to w.
func (d *Design) Write(w io.Writer) error {
	data, err := d.MarshalJSON()
	if err != nil {
		return err
	}
	_, err = w.Write(append(data, '\n'))
	return err
}

// ReadDesign parses a design bundle from JSON.
func ReadDesign(r io.Reader) (*Design, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("reconfig: %w", err)
	}
	d := &Design{}
	if err := d.UnmarshalJSON(data); err != nil {
		return nil, err
	}
	return d, nil
}
