package thermal

import (
	"math"

	"repro/internal/geom"
	"repro/internal/par"
)

// FastEstimator is the in-loop thermal analysis: per (source die, target
// die) Gaussian impulse-response masks calibrated once against the detailed
// solver, then applied by separable convolution over the power maps. This
// mirrors Corblivar's "power blurring" analysis, which the paper describes
// as fast but "inferior to the detailed analysis of HotSpot, especially for
// diverse arrangements of TSVs" — the estimator deliberately ignores TSV
// heterogeneity, exactly like its model.
type FastEstimator struct {
	nx, ny  int
	dies    int
	ambient float64
	// amp[s][t] and sigma[s][t]: peak response (K per W) and spatial spread
	// (in cells) on target die t for a unit impulse on source die s.
	amp   [][]float64
	sigma [][]float64
	// kernels[s][t] is the normalized 1-D Gaussian for sigma[s][t], built
	// once at calibration so a blur allocates no kernel.
	kernels [][][]float64
	// workers bounds the goroutines fanned out per convolution pass;
	// 0 selects GOMAXPROCS, 1 forces the serial path. Blur outputs are
	// byte-identical for every worker count (each output cell is computed
	// independently).
	workers int
}

// SetWorkers bounds the goroutines used by the separable convolutions.
// 0 selects GOMAXPROCS; 1 forces the serial path. Results are identical for
// every setting.
func (fe *FastEstimator) SetWorkers(n int) { fe.workers = n }

// CalibrateFast builds a FastEstimator for the given stack configuration by
// running one detailed impulse solve per die. The stack's currently
// installed power and TSV maps are not consulted; calibration uses a clean
// TSV-free stack of the same configuration. The impulse solves use the
// default worker fan-out; use CalibrateFastWorkers to bound it.
func CalibrateFast(cfg Config) *FastEstimator {
	return CalibrateFastWorkers(cfg, 0)
}

// CalibrateFastWorkers is CalibrateFast with the calibration solves (and the
// returned estimator's convolutions) bounded to `workers` goroutines —
// 0 selects GOMAXPROCS, 1 forces the serial path. Results are identical for
// every setting.
func CalibrateFastWorkers(cfg Config, workers int) *FastEstimator {
	fe := &FastEstimator{
		nx: cfg.NX, ny: cfg.NY, dies: cfg.Dies, ambient: cfg.Ambient,
		amp:     make([][]float64, cfg.Dies),
		sigma:   make([][]float64, cfg.Dies),
		kernels: make([][][]float64, cfg.Dies),
		workers: workers,
	}
	stack := NewStack(cfg)
	ci, cj := cfg.NX/2, cfg.NY/2
	for src := 0; src < cfg.Dies; src++ {
		fe.amp[src] = make([]float64, cfg.Dies)
		fe.sigma[src] = make([]float64, cfg.Dies)
		fe.kernels[src] = make([][]float64, cfg.Dies)
		// Unit impulse: 1 W in the center cell of the source die.
		for d := 0; d < cfg.Dies; d++ {
			stack.SetDiePower(d, geom.NewGrid(cfg.NX, cfg.NY))
		}
		imp := geom.NewGrid(cfg.NX, cfg.NY)
		imp.Set(ci, cj, 1.0)
		stack.SetDiePower(src, imp)
		sol, _ := stack.SolveSteady(nil, SolverOpts{Tol: 1e-6, Workers: workers})
		for tgt := 0; tgt < cfg.Dies; tgt++ {
			dt := sol.DieTemp(tgt)
			// Response above the die's far-field (baseline) temperature.
			base := dt.Quantile(0.05)
			peak := dt.At(ci, cj) - base
			if peak <= 0 {
				peak = 1e-9
			}
			// Second moment of the excess response gives the Gaussian sigma.
			var m0, m2 float64
			for j := 0; j < cfg.NY; j++ {
				for i := 0; i < cfg.NX; i++ {
					e := dt.At(i, j) - base
					if e <= 0 {
						continue
					}
					dx, dy := float64(i-ci), float64(j-cj)
					m0 += e
					m2 += e * (dx*dx + dy*dy)
				}
			}
			sig := 1.0
			if m0 > 0 {
				sig = math.Sqrt(m2 / m0 / 2.0)
			}
			if sig < 0.5 {
				sig = 0.5
			}
			fe.amp[src][tgt] = peak
			fe.sigma[src][tgt] = sig
			fe.kernels[src][tgt] = gaussianKernel(sig)
		}
	}
	return fe
}

// Response returns source die s's scaled contribution to every target die's
// temperature map for the given power map: Response(p, s)[t] =
// amp[s][t] * blur(p, sigma[s][t]). It is the unit of work the incremental
// cost evaluator caches — when only one die's power map changes between
// annealing moves, the other sources' responses are reused verbatim.
func (fe *FastEstimator) Response(power *geom.Grid, s int) []*geom.Grid {
	out := make([]*geom.Grid, fe.dies)
	for t := range out {
		out[t] = geom.NewGrid(power.NX, power.NY)
	}
	fe.ResponseInto(power, s, out, geom.NewGrid(power.NX, power.NY))
	return out
}

// ResponseInto is Response writing into caller-owned storage: out[t]
// receives the response on target die t, and tmp holds the blur's
// intermediate pass. out must have one grid per die, and every grid must
// match power's dimensions; their contents are overwritten. The values are
// bit-identical to Response, so the incremental evaluator can blur into
// pooled grids without leaving the full path's floats.
func (fe *FastEstimator) ResponseInto(power *geom.Grid, s int, out []*geom.Grid, tmp *geom.Grid) {
	if len(out) != fe.dies {
		panic("thermal: response count must equal die count")
	}
	for t, b := range out {
		blurInto(b, tmp, power, fe.kernels[s][t], fe.workers)
		b.ScaleBy(fe.amp[s][t])
	}
}

// Combine sums per-source responses (as returned by Response, indexed
// resp[source][target]) plus the ambient offset into per-die temperature
// maps. Estimate(power) == Combine over each source's Response — byte for
// byte, which is what lets cached and freshly-computed responses mix.
func (fe *FastEstimator) Combine(resp [][]*geom.Grid) []*geom.Grid {
	return fe.CombineInto(resp, nil)
}

// CombineInto is Combine reusing a previously returned output slice (nil
// allocates a fresh one) — the annealing loop calls it once per move, so
// the per-die grids are worth recycling.
func (fe *FastEstimator) CombineInto(resp [][]*geom.Grid, out []*geom.Grid) []*geom.Grid {
	if len(resp) != fe.dies {
		panic("thermal: response count must equal die count")
	}
	if len(out) != fe.dies {
		out = make([]*geom.Grid, fe.dies)
	}
	for t := 0; t < fe.dies; t++ {
		if out[t] == nil || out[t].NX != fe.nx || out[t].NY != fe.ny {
			out[t] = geom.NewGrid(fe.nx, fe.ny)
		}
		out[t].Fill(fe.ambient)
	}
	for s := 0; s < fe.dies; s++ {
		for t := 0; t < fe.dies; t++ {
			out[t].AddGrid(resp[s][t])
		}
	}
	return out
}

// Estimate returns the estimated temperature map (K) of each die given the
// per-die power maps (W per cell). Superposition of blurred sources plus the
// ambient offset.
func (fe *FastEstimator) Estimate(power []*geom.Grid) []*geom.Grid {
	if len(power) != fe.dies {
		panic("thermal: power map count must equal die count")
	}
	resp := make([][]*geom.Grid, fe.dies)
	for s := 0; s < fe.dies; s++ {
		resp[s] = fe.Response(power[s], s)
	}
	return fe.Combine(resp)
}

// EstimateDie is Estimate restricted to one target die.
func (fe *FastEstimator) EstimateDie(power []*geom.Grid, target int) *geom.Grid {
	g := geom.NewGrid(fe.nx, fe.ny)
	g.Fill(fe.ambient)
	for s := 0; s < fe.dies; s++ {
		blurred := gaussianBlur(power[s], fe.sigma[s][target], fe.workers)
		blurred.ScaleBy(fe.amp[s][target])
		g.AddGrid(blurred)
	}
	return g
}

// Adjoint applies the transpose of the estimator's linear operator to a set
// of per-die temperature residuals, yielding per-die power-space gradients.
// Because the Gaussian blur kernel is symmetric, the adjoint of "blur then
// scale by amp" is "scale by amp then blur": adj_s = sum_t amp[s][t] *
// blur(residual_t, sigma[s][t]). Used by the temperature-to-power inversion
// attack (the paper's cited PowerField-style proxy).
func (fe *FastEstimator) Adjoint(residuals []*geom.Grid) []*geom.Grid {
	if len(residuals) != fe.dies {
		panic("thermal: residual count must equal die count")
	}
	out := make([]*geom.Grid, fe.dies)
	for s := 0; s < fe.dies; s++ {
		g := geom.NewGrid(fe.nx, fe.ny)
		for t := 0; t < fe.dies; t++ {
			b := gaussianBlur(residuals[t], fe.sigma[s][t], fe.workers)
			b.ScaleBy(fe.amp[s][t])
			g.AddGrid(b)
		}
		out[s] = g
	}
	return out
}

// Rises returns the temperature-rise maps (without the ambient offset) for
// the given power maps: the pure linear part of Estimate.
func (fe *FastEstimator) Rises(power []*geom.Grid) []*geom.Grid {
	maps := fe.Estimate(power)
	for _, m := range maps {
		for i := range m.Data {
			m.Data[i] -= fe.ambient
		}
	}
	return maps
}

// Dies returns the estimator's die count.
func (fe *FastEstimator) Dies() int { return fe.dies }

// gaussianBlur applies a separable normalized Gaussian of the given sigma
// (in cells) with reflective boundaries. The two passes fan their rows
// across `workers` goroutines (0 = GOMAXPROCS); every output cell is
// computed independently, so the result does not depend on the fan-out.
func gaussianBlur(g *geom.Grid, sigma float64, workers int) *geom.Grid {
	if sigma <= 0 {
		return g.Clone()
	}
	out := geom.NewGrid(g.NX, g.NY)
	blurInto(out, geom.NewGrid(g.NX, g.NY), g, gaussianKernel(sigma), workers)
	return out
}

// gaussianKernel returns the normalized 1-D Gaussian taps for sigma (in
// cells), truncated at a radius of ceil(3 sigma) and at least 1.
func gaussianKernel(sigma float64) []float64 {
	radius := int(math.Ceil(3 * sigma))
	if radius < 1 {
		radius = 1
	}
	kernel := make([]float64, 2*radius+1)
	sum := 0.0
	for k := -radius; k <= radius; k++ {
		v := math.Exp(-float64(k*k) / (2 * sigma * sigma))
		kernel[k+radius] = v
		sum += v
	}
	for i := range kernel {
		kernel[i] /= sum
	}
	return kernel
}

// blurInto convolves g with kernel along rows into tmp, then along columns
// into out (reflective boundaries); every cell of tmp and out is
// overwritten. A serial blur runs the passes directly, so it allocates
// nothing; only a fanned-out blur builds the per-pass closures.
func blurInto(out, tmp, g *geom.Grid, kernel []float64, workers int) {
	ny := g.NY
	workers = blurWorkers(workers, g.NX, ny, len(kernel)/2)
	if workers == 1 {
		blurRows(tmp, g, kernel, 0, ny)
		blurCols(out, tmp, kernel, 0, ny)
		return
	}
	par.For(workers, ny, func(jlo, jhi int) { blurRows(tmp, g, kernel, jlo, jhi) })
	par.For(workers, ny, func(jlo, jhi int) { blurCols(out, tmp, kernel, jlo, jhi) })
}

// blurRows is the horizontal pass over rows [jlo, jhi).
func blurRows(dst, src *geom.Grid, kernel []float64, jlo, jhi int) {
	nx, radius := src.NX, len(kernel)/2
	for j := jlo; j < jhi; j++ {
		for i := 0; i < nx; i++ {
			acc := 0.0
			for k := -radius; k <= radius; k++ {
				ii := reflect(i+k, nx)
				acc += kernel[k+radius] * src.At(ii, j)
			}
			dst.Set(i, j, acc)
		}
	}
}

// blurCols is the vertical pass over output rows [jlo, jhi).
func blurCols(dst, src *geom.Grid, kernel []float64, jlo, jhi int) {
	nx, ny, radius := src.NX, src.NY, len(kernel)/2
	for j := jlo; j < jhi; j++ {
		for i := 0; i < nx; i++ {
			acc := 0.0
			for k := -radius; k <= radius; k++ {
				jj := reflect(j+k, ny)
				acc += kernel[k+radius] * src.At(i, jj)
			}
			dst.Set(i, j, acc)
		}
	}
}

// blurWorkers bounds the convolution fan-out by the actual work volume
// (cells x kernel taps) so small blurs stay serial. Deterministic: depends
// only on the blur dimensions.
func blurWorkers(requested, nx, ny, radius int) int {
	w := par.Workers(requested)
	if limit := nx * ny * (2*radius + 1) / 16384; w > limit {
		w = limit
	}
	if w < 1 {
		w = 1
	}
	return w
}

func reflect(i, n int) int {
	for i < 0 || i >= n {
		if i < 0 {
			i = -i - 1
		}
		if i >= n {
			i = 2*n - i - 1
		}
	}
	return i
}
