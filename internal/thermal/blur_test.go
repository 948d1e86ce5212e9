package thermal

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// naiveBlur is the straightforward per-cell, per-tap blur, the bit-identity
// reference for blurRows/blurCols: every tap reflects its index and reads
// through Grid.At.
func naiveBlur(g *geom.Grid, kernel []float64) *geom.Grid {
	nx, ny, radius := g.NX, g.NY, len(kernel)/2
	tmp, out := geom.NewGrid(nx, ny), geom.NewGrid(nx, ny)
	for j := 0; j < ny; j++ {
		for i := 0; i < nx; i++ {
			acc := 0.0
			for k := -radius; k <= radius; k++ {
				acc += kernel[k+radius] * g.At(reflect(i+k, nx), j)
			}
			tmp.Set(i, j, acc)
		}
	}
	for j := 0; j < ny; j++ {
		for i := 0; i < nx; i++ {
			acc := 0.0
			for k := -radius; k <= radius; k++ {
				acc += kernel[k+radius] * tmp.At(i, reflect(j+k, ny))
			}
			out.Set(i, j, acc)
		}
	}
	return out
}

// TestBlurMatchesNaive pins blurInto to the reference loop bit for bit:
// square and non-square grids, a 1x1 grid, radii beyond the grid (taps that
// reflect more than once), serial and fanned-out passes.
func TestBlurMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, c := range []struct {
		nx, ny int
		sigma  float64
	}{
		{1, 1, 0.5}, {1, 1, 4},
		{1, 7, 1}, {9, 1, 1},
		{2, 3, 2.5}, // radius 8 >= both sides
		{5, 5, 3},   // radius 9 >= n
		{16, 16, 0.8}, {16, 16, 1.7},
		{12, 20, 1.2}, {31, 17, 2.2},
		{64, 64, 2}, // big enough to fan out
		{450, 2, 1}, // padded row beyond the stack buffer
	} {
		g := geom.NewGrid(c.nx, c.ny)
		for i := range g.Data {
			g.Data[i] = rng.Float64() - 0.25
		}
		kernel := gaussianKernel(c.sigma)
		want := naiveBlur(g, kernel)
		for _, workers := range []int{1, 4} {
			out, tmp := geom.NewGrid(c.nx, c.ny), geom.NewGrid(c.nx, c.ny)
			out.Fill(7) // stale contents must be overwritten
			blurInto(out, tmp, g, kernel, workers)
			for i := range want.Data {
				if out.Data[i] != want.Data[i] {
					t.Fatalf("%dx%d sigma %v workers %d: cell %d = %v, want %v",
						c.nx, c.ny, c.sigma, workers, i, out.Data[i], want.Data[i])
				}
			}
		}
	}
}
