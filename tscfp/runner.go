package tscfp

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/report"
	"repro/internal/tsv"
)

// Flow is one configured floorplanning run. A Flow is immutable after
// NewFlow and safe to Run multiple times (each Run is independent) or from
// multiple goroutines.
type Flow struct {
	design   *Design
	mode     Mode
	cfg      core.Config
	progress func(Event)
	// parSet records an explicit WithParallelism; Sweep respects it when
	// defaulting pooled cells to serial per-run parallelism.
	parSet bool
	// churn surfaces the pack_* churn counters in Result.Stats
	// (WithChurnStats).
	churn bool
}

// NewFlow binds a design to a set of options. Option validation happens
// here, not in Run, so a sweep over many cells fails fast on a bad knob.
func NewFlow(design *Design, opts ...Option) (*Flow, error) {
	if design == nil || design.d == nil {
		return nil, fmt.Errorf("tscfp: nil design")
	}
	s := settings{mode: TSCAware}
	for _, opt := range opts {
		opt(&s)
	}
	if s.err != nil {
		return nil, s.err
	}
	cm, err := s.mode.core()
	if err != nil {
		return nil, err
	}
	cfg := s.cfg
	cfg.Mode = cm
	if s.postProcess != nil {
		pp := *s.postProcess
		cfg.PostProcess = &pp
	}
	if s.weights != nil {
		w := core.Weights(*s.weights)
		cfg.Weights = &w
	}
	return &Flow{design: design, mode: s.mode, cfg: cfg, progress: s.progress, parSet: s.parSet, churn: s.churnStats}, nil
}

// Mode returns the flow's configured mode.
func (f *Flow) Mode() Mode { return f.mode }

// Design returns the flow's design.
func (f *Flow) Design() *Design { return f.design }

// Run executes the full flow: annealing with the fast thermal analysis in
// the loop, signal-TSV planning, voltage assignment with timing repair,
// detailed thermal verification, and — in TSC-aware mode — the dummy-TSV
// post-processing stage. Cancellation of ctx is honored between annealing
// moves and thermal-solver sweeps; a cancelled Run returns ctx.Err() and no
// partial Result.
func (f *Flow) Run(ctx context.Context) (*Result, error) {
	cfg := f.cfg // per-run copy: core mutates defaults in place
	if f.progress != nil {
		prog := f.progress
		cfg.Progress = func(ev core.ProgressEvent) {
			prog(Event{Stage: Stage(ev.Stage), Done: ev.Done, Total: ev.Total, Cost: ev.Cost})
		}
	}
	res, err := core.RunContext(ctx, f.design.d, cfg)
	if err != nil {
		return nil, err
	}
	return newResult(res, f.mode, f.cfg.Seed, f.churn), nil
}

// Run is the one-call convenience wrapper: NewFlow + Flow.Run.
func Run(ctx context.Context, design *Design, opts ...Option) (*Result, error) {
	f, err := NewFlow(design, opts...)
	if err != nil {
		return nil, err
	}
	return f.Run(ctx)
}

// newResult snapshots a completed internal run into the public, JSON-stable
// Result shape.
func newResult(res *core.Result, mode Mode, seed int64, churn bool) *Result {
	r := &Result{
		Benchmark: res.Design.Name,
		Mode:      mode,
		Seed:      seed,
		Dies:      res.Layout.Dies,
		OutlineW:  res.Layout.OutlineW,
		OutlineH:  res.Layout.OutlineH,
		GridN:     res.PowerMaps[0].NX,
		Legal:     res.Layout.Legal(),
		Metrics:   newMetrics(&res.Metrics),
		Stats: RunStats{
			Evals:                    res.EvalStats.Evals,
			FullEvals:                res.EvalStats.FullEvals,
			IncrementalEvals:         res.EvalStats.IncrementalEvals,
			VoltRefreshes:            res.EvalStats.VoltRefreshes,
			VoltIncrementalRefreshes: res.EvalStats.VoltIncrementalRefreshes,
			VoltCandidatesReused:     res.EvalStats.VoltCandidatesReused,
			VoltCandidatesRegrown:    res.EvalStats.VoltCandidatesRegrown,
			VoltCrossChecks:          res.EvalStats.VoltCrossChecks,
			EntropyPatched:           res.EvalStats.EntropyPatched,
			EntropyRebuilt:           res.EvalStats.EntropyRebuilt,
			EntropyCrossChecks:       res.EvalStats.EntropyCrossChecks,
			DiesRepacked:             res.EvalStats.DiesRepacked,
			DiesReused:               res.EvalStats.DiesReused,
			NetsRecomputed:           res.EvalStats.NetsRecomputed,
			NetsReused:               res.EvalStats.NetsReused,
			ResponsesComputed:        res.EvalStats.ResponsesComputed,
			ResponsesReused:          res.EvalStats.ResponsesReused,
			SolverSweeps:             res.SolverStats.Sweeps,
			SolverResidual:           res.SolverStats.Residual,
			SolverConverged:          res.SolverStats.Converged,
			ReplicaCount:             res.EvalStats.Replicas,
			ReplicaSwapAttempts:      res.EvalStats.ReplicaSwapAttempts,
			ReplicaSwapAccepts:       res.EvalStats.ReplicaSwapAccepts,
			ReplicaBest:              res.EvalStats.ReplicaBest,
		},
		raw: res,
	}
	if churn {
		r.Stats.PackMoves = res.EvalStats.PackMoves
		r.Stats.PackDieDiffs = res.EvalStats.PackDieDiffs
		r.Stats.PackEarlyExits = res.EvalStats.PackEarlyExits
		r.Stats.PackReplayedPositions = res.EvalStats.PackReplayedPositions
		r.Stats.PackChangedModules = res.EvalStats.PackChangedModules
		r.Stats.PackChangedP50 = res.EvalStats.PackChangedPercentile(0.50)
		r.Stats.PackChangedP95 = res.EvalStats.PackChangedPercentile(0.95)
	}
	for mi, m := range res.Design.Modules {
		rect := res.Layout.Rects[mi]
		r.Modules = append(r.Modules, PlacedModule{
			Name: m.Name, Die: res.Layout.DieOf[mi],
			X: rect.X, Y: rect.Y, W: rect.W, H: rect.H,
			PowerW:    m.Power * res.Assignment.PowerScale[mi],
			VoltageV:  res.Assignment.LevelOf[mi].V,
			Sensitive: m.Sensitive,
		})
	}
	for _, v := range res.TSVs.TSVs {
		r.TSVs = append(r.TSVs, TSV{
			Kind: v.Kind.String(), X: v.Pos.X, Y: v.Pos.Y,
			Net: v.Net, Count: v.Count, Gap: v.Gap,
		})
	}
	for _, v := range res.Assignment.Volumes {
		r.Volumes = append(r.Volumes, VoltageVolume{
			Modules: append([]int(nil), v.Modules...), VoltageV: v.Level.V,
		})
	}
	for d := 0; d < res.Layout.Dies; d++ {
		r.PowerMaps = append(r.PowerMaps, append([]float64(nil), res.PowerMaps[d].Data...))
		r.TempMaps = append(r.TempMaps, append([]float64(nil), res.TempMaps[d].Data...))
	}
	return r
}

func newMetrics(m *core.Metrics) Metrics {
	out := Metrics{
		S1: m.S1, S2: m.S2, R1: m.R1, R2: m.R2,
		PowerW:                m.PowerW,
		CriticalNS:            m.CriticalNS,
		WirelengthM:           m.WirelengthM,
		PeakTempK:             m.PeakTempK,
		SignalTSVs:            m.SignalTSVs,
		DummyTSVs:             m.DummyTSVs,
		VoltageVolumes:        m.VoltageVolumes,
		RuntimeSec:            m.RuntimeSec,
		PostCorrelationBefore: m.PostCorrelationBefore,
		PostCorrelationAfter:  m.PostCorrelationAfter,
		SVF1:                  m.SVF1,
		SVF2:                  m.SVF2,
		MeanStability1:        m.MeanStability1,
		MeanStability2:        m.MeanStability2,
	}
	for _, d := range m.PerDie {
		out.PerDie = append(out.PerDie, DieMetrics{
			R: d.R, S: d.S, SVF: d.SVF, MeanStability: d.MeanStability,
		})
	}
	return out
}

// PowerGrid reconstructs die d's power map (W per cell) from the snapshot.
func (r *Result) PowerGrid(d int) (*geom.Grid, error) { return r.grid(r.PowerMaps, d) }

// TempGrid reconstructs die d's temperature map (K) from the snapshot.
func (r *Result) TempGrid(d int) (*geom.Grid, error) { return r.grid(r.TempMaps, d) }

func (r *Result) grid(maps [][]float64, d int) (*geom.Grid, error) {
	if d < 0 || d >= len(maps) {
		return nil, fmt.Errorf("tscfp: die %d out of range", d)
	}
	if len(maps[d]) != r.GridN*r.GridN {
		return nil, fmt.Errorf("tscfp: die %d map has %d cells, want %d", d, len(maps[d]), r.GridN*r.GridN)
	}
	g := geom.NewGrid(r.GridN, r.GridN)
	copy(g.Data, maps[d])
	return g, nil
}

// FloorplanASCII renders die d's floorplan as terminal ASCII art. It needs
// the live layout and returns "" on a Result decoded from JSON.
func (r *Result) FloorplanASCII(d, width int) string {
	if r.raw == nil {
		return ""
	}
	return report.RenderFloorplan(r.raw.Layout, d, width)
}

// PowerHeatmap renders die d's power map as ASCII art, with TSV positions
// overlaid ('o' single vias, 'O' groups). Works on decoded Results too.
func (r *Result) PowerHeatmap(d int) (string, error) {
	g, err := r.PowerGrid(d)
	if err != nil {
		return "", err
	}
	return report.HeatmapWithTSVs(g, r.tsvPlan()), nil
}

// TempHeatmap renders die d's temperature map as ASCII art.
func (r *Result) TempHeatmap(d int) (string, error) {
	g, err := r.TempGrid(d)
	if err != nil {
		return "", err
	}
	return report.Heatmap(g), nil
}

// tsvPlan rebuilds a plan view of the snapshot TSVs for rendering.
func (r *Result) tsvPlan() *tsv.Plan {
	if r.raw != nil {
		return r.raw.TSVs
	}
	p := &tsv.Plan{OutlineW: r.OutlineW, OutlineH: r.OutlineH}
	for _, v := range r.TSVs {
		kind := tsv.Signal
		if v.Kind == tsv.Dummy.String() {
			kind = tsv.Dummy
		}
		p.TSVs = append(p.TSVs, tsv.TSV{
			Kind: kind, Pos: geom.Point{X: v.X, Y: v.Y},
			Net: v.Net, Count: v.Count, Gap: v.Gap,
		})
	}
	return p
}
