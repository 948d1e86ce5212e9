package floorplan

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/netlist"
)

// fuzzDesign synthesizes a small stacked design whose module mix (hard and
// soft, varied shapes) is derived from the fuzz seed, so the packer sees
// different geometry regimes — tight packings, overhangs, skinny modules —
// across the corpus without depending on the benchmark generator.
func fuzzDesign(rng *rand.Rand) *netlist.Design {
	nMods := 6 + rng.Intn(10)
	des := &netlist.Design{
		Name:     "fuzz",
		Dies:     2 + rng.Intn(2),
		OutlineW: 80 + rng.Float64()*80,
		OutlineH: 80 + rng.Float64()*80,
	}
	for i := 0; i < nMods; i++ {
		m := &netlist.Module{
			Name:  "m",
			W:     4 + rng.Float64()*40,
			H:     4 + rng.Float64()*40,
			Power: 0.01,
		}
		if rng.Intn(2) == 0 {
			m.Kind = netlist.Soft
			m.MinAspect = 0.3
			m.MaxAspect = 3
		} else {
			m.Kind = netlist.Hard
		}
		des.Modules = append(des.Modules, m)
	}
	return des
}

// FuzzPackDieFrom drives the prefix-resumed skyline packer (PackDieFromDiff
// over DiePacker snapshots) through random move sequences with rejections
// and cost-less undos interleaved, and requires the incrementally maintained
// layout to stay bit-identical to a from-scratch Pack after every event —
// the exact contract the annealing loop's incremental evaluator builds on.
//
// Every event also checks the exact-diff contract: the returned changed set
// must equal a brute-force placement compare against the pre-move layout
// (so the early-exited suffix is byte-identical by the same compare), and
// PackDiff.Rollback must restore both the layout and the packer state
// byte-exactly on rejected moves — no replay.
//
// The script bytes steer the protocol per move: bit 0 rejects the move after
// the partial repack (undo + journal rollback), bit 1 undoes it before any
// repack (the undo-before-Cost path). The seed drives the design shape and
// the move randomness.
func FuzzPackDieFrom(f *testing.F) {
	f.Add(int64(1), []byte{0x00, 0x01, 0x02, 0x03})
	f.Add(int64(7), []byte{0x01, 0x01, 0x01, 0x01, 0x01, 0x01})
	f.Add(int64(42), []byte{0x02, 0x00, 0x02, 0x01, 0x03, 0x00, 0x01})
	f.Add(int64(-3), []byte("\xff\x00\xaa\x55packer"))
	f.Add(int64(9001), []byte{0x00, 0x01, 0x00, 0x01, 0x02, 0x00, 0x01, 0x00, 0x00, 0x01, 0x03, 0x00, 0x01, 0x00, 0x01, 0x00})
	f.Fuzz(func(t *testing.T, seed int64, script []byte) {
		if len(script) > 64 {
			script = script[:64]
		}
		rng := rand.New(rand.NewSource(seed))
		des := fuzzDesign(rng)
		fp := NewRandom(des, rng)
		lay := fp.Pack()
		packers := make([]*DiePacker, des.Dies)
		for d := range packers {
			packers[d] = &DiePacker{}
		}
		// Pre-move placement snapshot for the brute-force diff compare.
		preRects := make([]geom.Rect, len(lay.Rects))
		preDies := make([]int, len(lay.DieOf))
		diffs := make([]*PackDiff, 0, 2)
		repack := func(mv Move) {
			copy(preRects, lay.Rects)
			copy(preDies, lay.DieOf)
			diffs = diffs[:0]
			for i, d := range mv.Dies {
				pd := &PackDiff{}
				fp.PackDieFromDiff(lay, d, mv.Starts[i], packers[d], pd)
				diffs = append(diffs, pd)
			}
		}
		rollback := func() {
			for i := len(diffs) - 1; i >= 0; i-- {
				diffs[i].Rollback(lay)
			}
		}
		commit := func() {
			for _, pd := range diffs {
				pd.Commit()
			}
		}
		check := func(step int, what string) {
			t.Helper()
			want := fp.Pack()
			for m := range want.Rects {
				if lay.Rects[m] != want.Rects[m] || lay.DieOf[m] != want.DieOf[m] {
					t.Fatalf("step %d (%s): module %d incremental %+v/die%d != full %+v/die%d",
						step, what, m, lay.Rects[m], lay.DieOf[m], want.Rects[m], want.DieOf[m])
				}
			}
		}
		// checkDiffExact pins each PackDiff's changed set against a
		// brute-force compare of lay vs the pre-move snapshot: every
		// reported module really changed, every real change is reported,
		// and no module is reported twice.
		checkDiffExact := func(step int) {
			t.Helper()
			reported := make(map[int]bool)
			for _, pd := range diffs {
				for k, m := range pd.Changed {
					if reported[m] {
						t.Fatalf("step %d: module %d reported changed twice", step, m)
					}
					reported[m] = true
					if pd.OldRects[k] != preRects[m] || pd.OldDies[k] != preDies[m] {
						t.Fatalf("step %d: module %d old placement %+v/die%d != pre-move %+v/die%d",
							step, m, pd.OldRects[k], pd.OldDies[k], preRects[m], preDies[m])
					}
				}
			}
			for m := range lay.Rects {
				changed := lay.Rects[m] != preRects[m] || lay.DieOf[m] != preDies[m]
				if changed != reported[m] {
					t.Fatalf("step %d: module %d brute-force changed=%v but reported=%v",
						step, m, changed, reported[m])
				}
			}
		}
		check(-1, "initial")
		for step, b := range script {
			mv, undo := fp.PerturbMove(rng)
			if b&2 != 0 {
				// Undo before any repack (the evaluator's undo-before-Cost
				// corner): the floorplan reverts, the untouched layout must
				// still equal a fresh Pack, and the snapshots stay valid.
				undo()
				check(step, "undo-before-repack")
				continue
			}
			repack(mv)
			checkDiffExact(step)
			check(step, "apply")
			if b&1 != 0 {
				// Rejection: undo the move and roll the journal back; the
				// layout must revert bit for bit.
				undo()
				rollback()
				for m := range lay.Rects {
					if lay.Rects[m] != preRects[m] || lay.DieOf[m] != preDies[m] {
						t.Fatalf("step %d: rollback left module %d at %+v/die%d, want %+v/die%d",
							step, m, lay.Rects[m], lay.DieOf[m], preRects[m], preDies[m])
					}
				}
				check(step, "reject")
			} else {
				commit()
			}
		}
		if !fp.CheckInvariants() {
			t.Fatal("floorplan invariants violated")
		}
	})
}

// FuzzSkylinePlace checks that the search-free corner scan picks the same
// corner, bit for bit, as the binary-search reference (refCorner) on random
// skylines and footprints. The seed draws the starting skyline (up to 64
// steps) and a run of follow-up placements, so the skylines that commit
// grows are compared too; width and w steer the first footprint, which may
// be wider than the strip (the clamp path).
func FuzzSkylinePlace(f *testing.F) {
	f.Add(int64(1), uint8(5), 100.0, 10.0, false)
	f.Add(int64(2), uint8(1), 50.0, 50.0, true)    // one step, full-width span
	f.Add(int64(3), uint8(40), 80.0, 120.0, false) // wider than the strip
	f.Add(int64(4), uint8(63), 200.0, 0.5, true)   // many steps, narrow module
	f.Fuzz(func(t *testing.T, seed int64, steps uint8, width, w float64, lowest bool) {
		if !(width >= 1 && width <= 1e6) || !(w > 0 && w <= 2*width) {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		s := randomSkyline(rng, width, 1+int(steps%64))
		dir := LeftmostFirst
		if lowest {
			dir = LowestFirst
		}
		checkPlaceMatchesRef(t, s, w, 1+rng.Float64()*width/4, dir)
		for i := 0; i < 16; i++ {
			checkPlaceMatchesRef(t, s, 1e-3+rng.Float64()*width*1.2, 1+rng.Float64()*width/4, InsertDir(rng.Intn(2)))
		}
	})
}
