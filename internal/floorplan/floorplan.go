// Package floorplan implements the 3D floorplan representation and layout
// generation used by the annealer: per-die corner sequences packed by a
// skyline (corner-step) packer, soft-module reshaping, die reassignment, and
// the derived layout queries (power maps, wirelength, outline violation).
//
// Corblivar, the floorplanner the paper extends, encodes each die as a
// corner block list (sequence + insertion direction + junction count). We
// implement the same packing class in simplified form: each die holds an
// ordered module sequence and a per-module insertion preference; layout
// generation walks the sequence and drops each module at the skyline corner
// chosen by that preference (lowest-first or leftmost-first). Packings are
// overlap-free by construction; only fixed-outline violations can occur,
// and those are handled by the annealing cost.
package floorplan

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/geom"
	"repro/internal/netlist"
)

// InsertDir selects the skyline corner used when a module is placed.
type InsertDir uint8

const (
	// LowestFirst drops the module at the lowest available corner
	// (ties broken left), growing the packing bottom-up.
	LowestFirst InsertDir = iota
	// LeftmostFirst drops the module at the leftmost available corner
	// (ties broken low), growing the packing left-to-right.
	LeftmostFirst
)

// Floorplan is a mutable 3D floorplan state: a die assignment plus per-die
// packing sequences. It reads the modules of its design clone but never
// writes them (rotation and soft aspect ratios live in rot and aspect);
// construct with New or NewRandom.
type Floorplan struct {
	Design *netlist.Design

	// seq[d] is the packing order of module indices on die d.
	seq [][]int
	// dir[m] is module m's insertion preference.
	dir []InsertDir
	// rot[m] marks module m as rotated relative to its design footprint.
	rot []bool
	// aspect[m] is the soft-module aspect ratio (W/H); hard modules keep 0.
	aspect []float64
}

// New builds a floorplan with modules dealt round-robin across dies in index
// order. The design is cloned; the caller's design is never mutated.
func New(des *netlist.Design) *Floorplan {
	fp := &Floorplan{Design: des.Clone()}
	fp.seq = make([][]int, fp.Design.Dies)
	fp.dir = make([]InsertDir, len(fp.Design.Modules))
	fp.rot = make([]bool, len(fp.Design.Modules))
	fp.aspect = make([]float64, len(fp.Design.Modules))
	for i, m := range fp.Design.Modules {
		d := i % fp.Design.Dies
		fp.seq[d] = append(fp.seq[d], i)
		if m.Kind == netlist.Soft {
			fp.aspect[i] = m.W / m.H
		}
	}
	return fp
}

// NewRandom builds a floorplan with random die assignment, sequence order,
// directions, and soft aspect ratios.
func NewRandom(des *netlist.Design, rng *rand.Rand) *Floorplan {
	fp := New(des)
	n := len(fp.Design.Modules)
	// Re-deal the dies randomly but balanced by area: shuffle then alternate.
	order := rng.Perm(n)
	for d := range fp.seq {
		fp.seq[d] = fp.seq[d][:0]
	}
	for k, mi := range order {
		fp.seq[k%fp.Design.Dies] = append(fp.seq[k%fp.Design.Dies], mi)
	}
	for i, m := range fp.Design.Modules {
		if rng.Intn(2) == 0 {
			fp.dir[i] = LeftmostFirst
		}
		if m.Kind == netlist.Soft {
			fp.aspect[i] = clamp(0.5+rng.Float64()*1.5, m.MinAspect, m.MaxAspect)
		}
	}
	return fp
}

// Clone returns an independent deep copy.
func (fp *Floorplan) Clone() *Floorplan {
	c := &Floorplan{Design: fp.Design.Clone()}
	c.seq = make([][]int, len(fp.seq))
	for d := range fp.seq {
		c.seq[d] = append([]int(nil), fp.seq[d]...)
	}
	c.dir = append([]InsertDir(nil), fp.dir...)
	c.rot = append([]bool(nil), fp.rot...)
	c.aspect = append([]float64(nil), fp.aspect...)
	return c
}

// SnapshotInto copies fp's sequences, directions, rotations and aspects into
// dst, reusing dst's storage, and returns dst (a nil dst allocates one).
// Unlike Clone the snapshot shares fp's Design: the design is cloned once in
// New and never written afterwards (rotation and aspect live in the
// floorplan, not in the modules), so it is read-only and safe to share. The
// annealing loop snapshots every new best state through this.
func (fp *Floorplan) SnapshotInto(dst *Floorplan) *Floorplan {
	if dst == nil {
		dst = &Floorplan{}
	}
	dst.Design = fp.Design
	if len(dst.seq) != len(fp.seq) {
		dst.seq = make([][]int, len(fp.seq))
	}
	for d := range fp.seq {
		dst.seq[d] = append(dst.seq[d][:0], fp.seq[d]...)
	}
	dst.dir = append(dst.dir[:0], fp.dir...)
	dst.rot = append(dst.rot[:0], fp.rot...)
	dst.aspect = append(dst.aspect[:0], fp.aspect...)
	return dst
}

// DieOf returns the die index currently holding module mi, or -1.
func (fp *Floorplan) DieOf(mi int) int {
	for d, s := range fp.seq {
		for _, m := range s {
			if m == mi {
				return d
			}
		}
	}
	return -1
}

// footprint returns the module's effective W, H after aspect and rotation.
func (fp *Floorplan) footprint(mi int) (float64, float64) {
	m := fp.Design.Modules[mi]
	w, h := m.W, m.H
	if m.Kind == netlist.Soft && fp.aspect[mi] > 0 {
		area := m.Area()
		h = math.Sqrt(area / fp.aspect[mi])
		w = area / h
	}
	if fp.rot[mi] {
		w, h = h, w
	}
	return w, h
}

// Layout is the packed physical result of a floorplan.
type Layout struct {
	Design *netlist.Design

	// Rects[m] is module m's placed footprint on its die.
	Rects []geom.Rect
	// DieOf[m] is module m's die (0 = bottom, closest to package;
	// Dies-1 = top, closest to the heatsink).
	DieOf []int

	OutlineW, OutlineH float64
	Dies               int
}

// Pack generates the physical layout by walking each die's sequence through
// the skyline packer. The result is always overlap-free; modules may exceed
// the fixed outline (cost term) but never overlap each other.
func (fp *Floorplan) Pack() *Layout {
	l := &Layout{
		Design:   fp.Design,
		Rects:    make([]geom.Rect, len(fp.Design.Modules)),
		DieOf:    make([]int, len(fp.Design.Modules)),
		OutlineW: fp.Design.OutlineW,
		OutlineH: fp.Design.OutlineH,
		Dies:     fp.Design.Dies,
	}
	for d := range fp.seq {
		fp.PackDie(l, d)
	}
	return l
}

// PackDie repacks a single die's sequence into an existing layout in place,
// overwriting the Rects and DieOf entries of the modules currently sequenced
// on that die. A die's packing depends only on its own sequence state, so
// repacking exactly the dies named by a Move's Dies list (after the move, or
// after its undo) restores the layout a full Pack would produce — module by
// module, bit for bit. This is the partial-repack primitive behind the
// incremental cost evaluator.
//
// Callers repacking after a cross-die move must repack every die the move
// touched; a module that left die d is only re-homed when its new die packs.
func (fp *Floorplan) PackDie(l *Layout, d int) {
	sky := newSkyline(fp.Design.OutlineW)
	for _, mi := range fp.seq[d] {
		w, h := fp.footprint(mi)
		x, y := sky.place(w, h, fp.dir[mi])
		l.Rects[mi] = geom.Rect{X: x, Y: y, W: w, H: h}
		l.DieOf[mi] = d
	}
}

// DiePacker caches one die's skyline states between repacks so a repack can
// resume from the first changed sequence position instead of position 0. A
// placement depends only on the sequence prefix before it, so replaying from
// the snapshot taken before the first change reproduces the full repack bit
// for bit while skipping the untouched prefix — the second half of the
// incremental evaluator's partial-repack primitive.
type DiePacker struct {
	// xs[i], ys[i] snapshot the skyline steps before placing sequence
	// position i; position 0 is the empty skyline.
	xs, ys [][]float64
	sky    skyline // reusable working skyline

	// Mirror of the last-packed sequence: mods[i] is the module packed at
	// position i, ws/hs its footprint and dirs its insertion preference at
	// pack time. PackDieFromDiff aligns the new sequence tail against this
	// mirror to find where the pre-move snapshots can prove the remaining
	// suffix bit-identical (the early-exit).
	mods                 []int
	ws, hs               []float64
	dirs                 []InsertDir
	mirror               int         // mirror entries [0, mirror) describe the last-packed sequence
	scratchXs, scratchYs [][]float64 // deferred-commit staging for PackDieFromDiff
	spare                [][]float64 // recycled snapshot-row storage
}

// takeRow returns a recycled snapshot row (length 0) or nil (append
// allocates).
func (dp *DiePacker) takeRow() []float64 {
	if n := len(dp.spare); n > 0 {
		r := dp.spare[n-1]
		dp.spare = dp.spare[:n-1]
		return r[:0]
	}
	return nil
}

// recycleRow returns a snapshot row's backing to the spare pool. The pool
// holds up to two rows (xs and ys) per snapshot slot of the die, the most a
// single repack can displace, so even a replay of the whole sequence finds
// every row it needs in the pool instead of reallocating.
func (dp *DiePacker) recycleRow(r []float64) {
	if r != nil && len(dp.spare) < 2*cap(dp.xs) {
		dp.spare = append(dp.spare, r)
	}
}

// growMirror sizes the sequence mirror for n positions, preserving existing
// entries.
func (dp *DiePacker) growMirror(n int) {
	if cap(dp.mods) < n {
		mods := make([]int, n)
		ws := make([]float64, n)
		hs := make([]float64, n)
		dirs := make([]InsertDir, n)
		copy(mods, dp.mods)
		copy(ws, dp.ws)
		copy(hs, dp.hs)
		copy(dirs, dp.dirs)
		dp.mods, dp.ws, dp.hs, dp.dirs = mods, ws, hs, dirs
		return
	}
	dp.mods = dp.mods[:n]
	dp.ws = dp.ws[:n]
	dp.hs = dp.hs[:n]
	dp.dirs = dp.dirs[:n]
}

// skylineEqual reports whether the working skyline's steps are bit-identical
// to a cached snapshot.
func skylineEqual(sky *skyline, xs, ys []float64) bool {
	if len(sky.xs) != len(xs) {
		return false
	}
	for i := range xs {
		//lint:floateq bit-identity against a snapshot is the contract: both sides are copies, not recomputations
		if sky.xs[i] != xs[i] || sky.ys[i] != ys[i] {
			return false
		}
	}
	return true
}

// PackDiff records the exact effect of one PackDieFromDiff call: the modules
// whose placement actually changed (with their pre-move values), how much of
// the sequence was replayed, and the packer-state journal needed to undo the
// call byte-exactly. Exactly one of Commit or Rollback must be called before
// the record is reused; Reset clears it for the next move.
type PackDiff struct {
	// Die is the repacked die.
	Die int
	// Changed lists the modules whose placed rect or die assignment changed,
	// in replay order; OldRects/OldDies hold their pre-move placements.
	// Modules that reproduce their previous placement verbatim — including
	// the whole suffix past a skyline re-convergence — are not listed.
	Changed  []int
	OldRects []geom.Rect
	OldDies  []int
	// From/Exit bound the replayed window [From, Exit) of the new sequence;
	// SeqLen is the new sequence length. Converged reports that the resumed
	// skyline re-converged with a pre-move snapshot at Exit, proving the
	// remaining suffix bit-identical without replaying it.
	From, Exit, SeqLen int
	Converged          bool

	// Rollback record: the displaced snapshot rows and mirror values of old
	// positions [From, oexit), plus the pre-call mirror length.
	dp           *DiePacker
	oldLen       int // mirror length before the call
	delta        int // oldLen - SeqLen
	oldXs, oldYs [][]float64
	jMods        []int
	jWs, jHs     []float64
	jDirs        []InsertDir
	settled      bool // Commit or Rollback already ran
}

// Reset clears the record for reuse, retaining storage.
func (pd *PackDiff) Reset() {
	pd.Changed = pd.Changed[:0]
	pd.OldRects = pd.OldRects[:0]
	pd.OldDies = pd.OldDies[:0]
	pd.oldXs = pd.oldXs[:0]
	pd.oldYs = pd.oldYs[:0]
	pd.jMods = pd.jMods[:0]
	pd.jWs = pd.jWs[:0]
	pd.jHs = pd.jHs[:0]
	pd.jDirs = pd.jDirs[:0]
	pd.dp = nil
	pd.Converged = false
	pd.settled = false
}

// PackDieFromDiff repacks die d into the layout like PackDie and reports an
// exact placement diff. It resumes from the cached skyline snapshot at
// sequence position `from` (clamped to the last-packed and the current
// sequence length): placements before the resume point are untouched — they
// are already correct in l. Two refinements make the dirty-set contract
// exact instead of suffix-pessimistic:
//
//   - Early exit: before placing each position it aligns the remaining new
//     sequence tail against the packer's mirror of the last-packed sequence
//     (same modules, footprints, and insertion preferences, allowing a
//     constant index shift for insertions/removals) and compares the working
//     skyline against the pre-move snapshot at the aligned position. On a
//     bit-identical match the remaining suffix must repack to its previous
//     placements by construction, so the replay stops there.
//   - Exact changed set: pd.Changed lists precisely the modules whose
//     (x, y, w, h) or die assignment differs from before the call — replayed
//     positions that reproduce their previous placement verbatim are not
//     reported.
//
// The packer's snapshot and mirror state is updated under a journal held in
// pd: pd.Rollback restores the packer AND the layout's changed placements
// byte-exactly (the rejected-move path), pd.Commit releases the journal
// (the accepted-move path). pd must be Reset (or zero) on entry.
func (fp *Floorplan) PackDieFromDiff(l *Layout, d, from int, dp *DiePacker, pd *PackDiff) {
	seq := fp.seq[d]
	newLen := len(seq)
	oldLen := dp.mirror
	from = min(from, oldLen, newLen)
	delta := oldLen - newLen

	pd.Die = d
	pd.dp = dp
	pd.oldLen = oldLen
	pd.delta = delta
	pd.From = from
	pd.SeqLen = newLen

	// Tail alignment: t is the smallest new position such that every
	// position i >= t packs the same module with the same footprint and
	// insertion preference as old position i+delta. Only at i >= t can a
	// skyline match prove the remaining suffix identical.
	t := newLen
	for i := newLen - 1; i >= from; i-- {
		o := i + delta
		if o < 0 {
			break
		}
		mi := seq[i]
		w, h := fp.footprint(mi)
		//lint:floateq prefix-resume compares cached inputs for bit-identity; any drift must invalidate the prefix
		if dp.mods[o] != mi || dp.dirs[o] != fp.dir[mi] || dp.ws[o] != w || dp.hs[o] != h {
			break
		}
		t = i
	}

	// Resume and replay, staging new snapshots in scratch so the pre-move
	// snapshots stay readable for the convergence compares (with delta < 0
	// an in-place write at position i would clobber old position i+delta
	// before the replay reads it).
	sky := &dp.sky
	sky.width = fp.Design.OutlineW
	if from == 0 {
		sky.xs = append(sky.xs[:0], 0)
		sky.ys = append(sky.ys[:0], 0)
	} else {
		sky.xs = append(sky.xs[:0], dp.xs[from]...)
		sky.ys = append(sky.ys[:0], dp.ys[from]...)
	}
	dp.scratchXs = dp.scratchXs[:0]
	dp.scratchYs = dp.scratchYs[:0]
	exit := newLen
	converged := false
	for i := from; i < newLen; i++ {
		if i >= t && skylineEqual(sky, dp.xs[i+delta], dp.ys[i+delta]) {
			exit, converged = i, true
			break
		}
		dp.scratchXs = append(dp.scratchXs, append(dp.takeRow(), sky.xs...))
		dp.scratchYs = append(dp.scratchYs, append(dp.takeRow(), sky.ys...))
		mi := seq[i]
		w, h := fp.footprint(mi)
		x, y := sky.place(w, h, fp.dir[mi])
		r := geom.Rect{X: x, Y: y, W: w, H: h}
		if l.Rects[mi] != r || l.DieOf[mi] != d {
			pd.Changed = append(pd.Changed, mi)
			pd.OldRects = append(pd.OldRects, l.Rects[mi])
			pd.OldDies = append(pd.OldDies, l.DieOf[mi])
			l.Rects[mi] = r
			l.DieOf[mi] = d
		}
	}
	if !converged {
		// Final snapshot (state after the last placement).
		dp.scratchXs = append(dp.scratchXs, append(dp.takeRow(), sky.xs...))
		dp.scratchYs = append(dp.scratchYs, append(dp.takeRow(), sky.ys...))
	}
	pd.Exit = exit
	pd.Converged = converged

	// Commit: journal the displaced old state, shift the surviving suffix
	// snapshots/mirror to their new positions, and install the staged rows.
	oexit := exit + delta // first surviving old position (converged only)
	snapHi := oexit       // old snapshot indices [from, snapHi) are displaced
	if !converged {
		// The old final snapshot is displaced too; a fresh or never-packed
		// packer has fewer rows than oldLen+1, so clamp to what exists.
		snapHi = min(oldLen+1, len(dp.xs))
	}
	if snapHi < from {
		snapHi = from
	}
	pd.oldXs = append(pd.oldXs, dp.xs[from:snapHi]...)
	pd.oldYs = append(pd.oldYs, dp.ys[from:snapHi]...)
	pd.jMods = append(pd.jMods, dp.mods[from:min(oexit, oldLen)]...)
	pd.jWs = append(pd.jWs, dp.ws[from:min(oexit, oldLen)]...)
	pd.jHs = append(pd.jHs, dp.hs[from:min(oexit, oldLen)]...)
	pd.jDirs = append(pd.jDirs, dp.dirs[from:min(oexit, oldLen)]...)

	need := newLen + 1
	if cap(dp.xs) < need {
		// Reallocate: direct placement, no overlap concerns.
		nxs := make([][]float64, need)
		nys := make([][]float64, need)
		copy(nxs, dp.xs[:from])
		copy(nys, dp.ys[:from])
		if converged {
			copy(nxs[exit:], dp.xs[oexit:oldLen+1])
			copy(nys[exit:], dp.ys[oexit:oldLen+1])
		}
		dp.xs, dp.ys = nxs, nys
	} else if converged && delta != 0 {
		if delta < 0 { // die grew: shift survivors up, descending
			dp.xs = dp.xs[:need]
			dp.ys = dp.ys[:need]
			for j := newLen; j >= exit; j-- {
				dp.xs[j] = dp.xs[j+delta]
				dp.ys[j] = dp.ys[j+delta]
			}
		} else { // die shrank: shift survivors down, ascending
			for j := exit; j <= newLen; j++ {
				dp.xs[j] = dp.xs[j+delta]
				dp.ys[j] = dp.ys[j+delta]
			}
		}
	}
	if len(dp.xs) > need {
		// Drop vacated trailing headers so a later regrowth cannot
		// resurrect stale rows aliasing surviving backing arrays.
		for j := need; j < len(dp.xs); j++ {
			dp.xs[j] = nil
			dp.ys[j] = nil
		}
	}
	dp.xs = dp.xs[:need]
	dp.ys = dp.ys[:need]
	for k, row := range dp.scratchXs {
		dp.xs[from+k] = row
		dp.ys[from+k] = dp.scratchYs[k]
	}
	dp.scratchXs = dp.scratchXs[:0]
	dp.scratchYs = dp.scratchYs[:0]

	// Mirror: same shift for the surviving values, then the replayed window.
	dp.growMirror(max(newLen, oldLen))
	if converged && delta != 0 {
		if delta < 0 {
			for j := newLen - 1; j >= exit; j-- {
				dp.mods[j], dp.ws[j], dp.hs[j], dp.dirs[j] = dp.mods[j+delta], dp.ws[j+delta], dp.hs[j+delta], dp.dirs[j+delta]
			}
		} else {
			for j := exit; j < newLen; j++ {
				dp.mods[j], dp.ws[j], dp.hs[j], dp.dirs[j] = dp.mods[j+delta], dp.ws[j+delta], dp.hs[j+delta], dp.dirs[j+delta]
			}
		}
	}
	for i := from; i < exit; i++ {
		mi := seq[i]
		w, h := fp.footprint(mi)
		dp.mods[i], dp.ws[i], dp.hs[i], dp.dirs[i] = mi, w, h, fp.dir[mi]
	}
	dp.growMirror(newLen)
	dp.mirror = newLen
}

// Commit releases a PackDiff's rollback journal (the accepted-move path),
// recycling the displaced snapshot rows. Idempotent with Rollback: the first
// of the two settles the record.
func (pd *PackDiff) Commit() {
	if pd.settled || pd.dp == nil {
		return
	}
	pd.settled = true
	for _, r := range pd.oldXs {
		pd.dp.recycleRow(r)
	}
	for _, r := range pd.oldYs {
		pd.dp.recycleRow(r)
	}
}

// Rollback undoes a PackDieFromDiff call byte-exactly: the layout entries of
// pd.Changed revert to their pre-move values, and the packer's snapshots
// and mirror are restored so the next repack resumes from the same state as
// if the move never happened — no suffix replay. Call after the floorplan's
// own undo closure has restored the sequences.
func (pd *PackDiff) Rollback(l *Layout) {
	if pd.settled || pd.dp == nil {
		return
	}
	pd.settled = true
	dp := pd.dp
	for k, m := range pd.Changed {
		l.Rects[m] = pd.OldRects[k]
		l.DieOf[m] = pd.OldDies[k]
	}

	from, exit, newLen, oldLen, delta := pd.From, pd.Exit, pd.SeqLen, pd.oldLen, pd.delta
	oexit := exit + delta
	// Recycle the staged rows installed by the replay.
	hi := exit
	if !pd.Converged {
		hi = newLen + 1 // includes the new final snapshot
	}
	for j := from; j < hi; j++ {
		dp.recycleRow(dp.xs[j])
		dp.recycleRow(dp.ys[j])
		dp.xs[j] = nil
		dp.ys[j] = nil
	}
	// Un-shift the surviving suffix back to its old positions.
	need := oldLen + 1
	if cap(dp.xs) < need { // defensive; commit never shrinks capacity below this
		nxs := make([][]float64, need)
		nys := make([][]float64, need)
		copy(nxs, dp.xs)
		copy(nys, dp.ys)
		dp.xs, dp.ys = nxs, nys
	}
	if pd.Converged && delta != 0 {
		if delta > 0 { // commit shifted down; move back up, descending
			dp.xs = dp.xs[:need]
			dp.ys = dp.ys[:need]
			for j := oldLen; j >= oexit; j-- {
				dp.xs[j] = dp.xs[j-delta]
				dp.ys[j] = dp.ys[j-delta]
			}
		} else { // commit shifted up; move back down, ascending
			for j := oexit; j <= oldLen; j++ {
				dp.xs[j] = dp.xs[j-delta]
				dp.ys[j] = dp.ys[j-delta]
			}
		}
	}
	if len(dp.xs) > need {
		for j := need; j < len(dp.xs); j++ {
			dp.xs[j] = nil
			dp.ys[j] = nil
		}
	}
	dp.xs = dp.xs[:need]
	dp.ys = dp.ys[:need]
	// Reinstate the journaled old rows.
	for k, row := range pd.oldXs {
		dp.xs[from+k] = row
		dp.ys[from+k] = pd.oldYs[k]
	}

	// Mirror values: un-shift survivors, reinstate the journaled window.
	dp.growMirror(max(newLen, oldLen))
	if pd.Converged && delta != 0 {
		if delta > 0 {
			for j := oldLen - 1; j >= oexit; j-- {
				dp.mods[j], dp.ws[j], dp.hs[j], dp.dirs[j] = dp.mods[j-delta], dp.ws[j-delta], dp.hs[j-delta], dp.dirs[j-delta]
			}
		} else {
			for j := oexit; j < oldLen; j++ {
				dp.mods[j], dp.ws[j], dp.hs[j], dp.dirs[j] = dp.mods[j-delta], dp.ws[j-delta], dp.hs[j-delta], dp.dirs[j-delta]
			}
		}
	}
	for k, m := range pd.jMods {
		dp.mods[from+k], dp.ws[from+k], dp.hs[from+k], dp.dirs[from+k] = m, pd.jWs[k], pd.jHs[k], pd.jDirs[k]
	}
	dp.growMirror(oldLen)
	dp.mirror = oldLen
}

// skyline tracks the upper contour of a packing as a list of steps.
type skyline struct {
	width float64
	xs    []float64 // step start positions, xs[0] == 0, ascending
	ys    []float64 // step heights, ys[i] spans [xs[i], xs[i+1]) (last to width)

	// commit scratch, reused across placements to keep packing allocation-lean.
	sxs, sys []float64
}

func newSkyline(width float64) *skyline {
	return &skyline{width: width, xs: []float64{0}, ys: []float64{0}}
}

// end returns the x where step i ends.
func (s *skyline) end(i int) float64 {
	if i+1 < len(s.xs) {
		return s.xs[i+1]
	}
	return s.width
}

// spanFrom returns the max height over [xs[i], x1): the steps start
// strictly ascending, so the span's first step is i itself and the scan
// stops at the first step starting at or past x1.
func (s *skyline) spanFrom(i int, x1 float64) float64 {
	h := 0.0
	for j, x := range s.xs[i:] {
		if x >= x1 {
			break
		}
		if y := s.ys[i+j]; y > h {
			h = y
		}
	}
	return h
}

// place finds a corner for a w x h module per the direction preference,
// commits it to the skyline, and returns the lower-left position.
//
// The candidate corners are the step starts. The scan keeps the running
// best in locals and replaces it only with a strictly better corner, so it
// picks what a candidate list would have picked without allocating one; it
// stops at the first corner whose span overruns the outline, since every
// later corner starts further right.
func (s *skyline) place(w, h float64, dir InsertDir) (float64, float64) {
	var bx, by float64
	found := false
	for i, x := range s.xs {
		if x+w > s.width+1e-9 {
			break
		}
		y := s.spanFrom(i, x+w)
		if !found || better(x, y, bx, by, dir) {
			bx, by, found = x, y, true
		}
	}
	if !found {
		// Module wider than the outline: clamp left.
		bx, by = 0, s.spanFrom(0, math.Min(w, s.width))
	}
	s.commit(bx, w, by+h)
	return bx, by
}

func better(x, y, bx, by float64, dir InsertDir) bool {
	switch dir {
	case LeftmostFirst:
		//lint:floateq deterministic tie-break: candidates at the exact same coordinate fall through to the secondary key
		if x != bx {
			return x < bx
		}
		return y < by
	default: // LowestFirst
		//lint:floateq deterministic tie-break: candidates at the exact same coordinate fall through to the secondary key
		if y != by {
			return y < by
		}
		return x < bx
	}
}

// commit raises the skyline over [x, x+w) to newY.
func (s *skyline) commit(x, w, newY float64) {
	x1 := x + w
	nxs, nys := s.sxs[:0], s.sys[:0]
	// Preserve steps before x.
	for i := range s.xs {
		if s.xs[i] >= x {
			break
		}
		end := s.end(i)
		nxs = append(nxs, s.xs[i])
		nys = append(nys, s.ys[i])
		if end > x {
			// This step straddles x; the part beyond x is replaced below.
			break
		}
	}
	// New raised step.
	nxs = append(nxs, x)
	nys = append(nys, newY)
	// Preserve steps after x1, splitting any straddler.
	for i := range s.xs {
		end := s.end(i)
		if end <= x1 {
			continue
		}
		start := math.Max(s.xs[i], x1)
		if start < end {
			nxs = append(nxs, start)
			nys = append(nys, s.ys[i])
		}
	}
	// Merge duplicate x positions and equal-height neighbours.
	s.xs, s.ys = s.xs[:0], s.ys[:0]
	for i := range nxs {
		if len(s.xs) > 0 {
			lastX := s.xs[len(s.xs)-1]
			lastY := s.ys[len(s.ys)-1]
			if nxs[i] <= lastX+1e-12 {
				// Same start: keep the later (overriding) value.
				s.ys[len(s.ys)-1] = nys[i]
				continue
			}
			//lint:floateq merging only bit-equal neighbour heights is conservative; unequal heights keep their step
			if nys[i] == lastY {
				continue
			}
		}
		s.xs = append(s.xs, nxs[i])
		s.ys = append(s.ys, nys[i])
	}
	if len(s.xs) == 0 || s.xs[0] != 0 {
		s.xs = append([]float64{0}, s.xs...)
		s.ys = append([]float64{0}, s.ys...)
	}
	s.sxs, s.sys = nxs, nys // keep the grown scratch for the next commit
}

// --- Layout queries ---------------------------------------------------------

// Outline returns the fixed per-die outline rectangle.
func (l *Layout) Outline() geom.Rect {
	return geom.Rect{X: 0, Y: 0, W: l.OutlineW, H: l.OutlineH}
}

// OutlineViolation returns the total area (um^2) by which modules exceed the
// fixed outline, summed over dies. Zero means the floorplan is legal.
func (l *Layout) OutlineViolation() float64 {
	out := l.Outline()
	v := 0.0
	for _, r := range l.Rects {
		v += r.Area() - r.OverlapArea(out)
	}
	return v
}

// Legal reports whether every module lies within the fixed outline.
func (l *Layout) Legal() bool { return l.OutlineViolation() <= 1e-6 }

// OverlapArea returns the total pairwise overlap area between modules that
// share a die. The skyline packer produces zero by construction; this is a
// verification hook.
func (l *Layout) OverlapArea() float64 {
	byDie := make([][]int, l.Dies)
	for mi, d := range l.DieOf {
		byDie[d] = append(byDie[d], mi)
	}
	total := 0.0
	for _, mods := range byDie {
		for a := 0; a < len(mods); a++ {
			for b := a + 1; b < len(mods); b++ {
				total += l.Rects[mods[a]].OverlapArea(l.Rects[mods[b]])
			}
		}
	}
	return total
}

// HPWL returns the total half-perimeter wirelength over all nets in um.
// Pins are taken at module centers and terminal positions; a net spanning
// both dies adds the configured via detour vertLen (use 0 to ignore).
func (l *Layout) HPWL(vertLen float64) float64 {
	total := 0.0
	for _, n := range l.Design.Nets {
		total += l.NetHPWL(n, vertLen)
	}
	return total
}

// NetHPWL returns one net's half-perimeter wirelength in um.
func (l *Layout) NetHPWL(n *netlist.Net, vertLen float64) float64 {
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	spansDies := false
	die0 := -1
	add := func(x, y float64) {
		minX = math.Min(minX, x)
		minY = math.Min(minY, y)
		maxX = math.Max(maxX, x)
		maxY = math.Max(maxY, y)
	}
	for _, mi := range n.Modules {
		c := l.Rects[mi].Center()
		add(c.X, c.Y)
		if die0 == -1 {
			die0 = l.DieOf[mi]
		} else if l.DieOf[mi] != die0 {
			spansDies = true
		}
	}
	for _, ti := range n.Terminals {
		t := l.Design.Terminals[ti]
		add(t.X, t.Y)
	}
	if math.IsInf(minX, 1) {
		return 0
	}
	wl := (maxX - minX) + (maxY - minY)
	if spansDies {
		wl += vertLen
	}
	return wl
}

// CrossDieNets returns the indices of nets whose module pins span more than
// one die (each needs at least one signal TSV).
func (l *Layout) CrossDieNets() []int {
	var out []int
	for ni, n := range l.Design.Nets {
		die0 := -1
		for _, mi := range n.Modules {
			if die0 == -1 {
				die0 = l.DieOf[mi]
			} else if l.DieOf[mi] != die0 {
				out = append(out, ni)
				break
			}
		}
	}
	return out
}

// PowerMap rasterizes the given per-module powers (Watts) onto an nx x ny
// grid for die d; cell values are Watts (density = value / cellArea).
func (l *Layout) PowerMap(d, nx, ny int, powers []float64) *geom.Grid {
	return l.PowerMapInto(d, powers, geom.NewGrid(nx, ny))
}

// PowerMapInto is PowerMap rasterizing into g (cleared first), reusing its
// storage instead of allocating. The rasterization order is PowerMap's, so
// the cell values are bit-identical — the incremental evaluator rebuilds
// dirty-die maps through this to stay exactly on the full path's floats
// (an additive patch would accumulate round-off, which the discontinuous
// nested-means entropy classification can amplify past any epsilon).
func (l *Layout) PowerMapInto(d int, powers []float64, g *geom.Grid) *geom.Grid {
	for i := range g.Data {
		g.Data[i] = 0
	}
	out := l.Outline()
	for mi, r := range l.Rects {
		if l.DieOf[mi] != d {
			continue
		}
		g.RasterizeDensity(out, r, powers[mi])
	}
	return g
}

// NominalPowers returns the design's nominal per-module powers in Watts.
func (l *Layout) NominalPowers() []float64 {
	p := make([]float64, len(l.Design.Modules))
	for i, m := range l.Design.Modules {
		p[i] = m.Power
	}
	return p
}

// ModulesOnDie returns the module indices placed on die d, sorted.
func (l *Layout) ModulesOnDie(d int) []int {
	var out []int
	for mi, dd := range l.DieOf {
		if dd == d {
			out = append(out, mi)
		}
	}
	sort.Ints(out)
	return out
}

// Deadspace returns the fraction of die d's outline not covered by modules
// (whitespace). Modules overhanging the outline contribute only their
// inside portion.
func (l *Layout) Deadspace(d int) float64 {
	out := l.Outline()
	covered := 0.0
	for mi, r := range l.Rects {
		if l.DieOf[mi] != d {
			continue
		}
		covered += r.OverlapArea(out)
	}
	area := out.Area()
	if area <= 0 {
		return 0
	}
	return 1 - covered/area
}

// AdjacentModules returns, for each module, the modules whose placed
// rectangles abut or overlap it — on the same die, or vertically on a
// neighbouring die (footprint overlap). This drives voltage-volume growth.
//
// Candidate pairs come from an X-interval sweep per die (and per die pair)
// instead of the all-pairs scan: two rects can only be adjacent when their
// X intervals overlap or touch, so each module is tested only against the
// modules whose interval starts before its own ends. The collected pairs
// are ordered exactly as the all-pairs scan would order them, keeping the
// voltage-volume growth (which is sensitive to neighbour order) identical.
func (l *Layout) AdjacentModules() [][]int {
	return l.AdjacentModulesInto(&AdjacencyScratch{})
}

// AdjacencyScratch recycles the working memory of AdjacentModulesInto
// across calls. The zero value is ready to use; the returned adjacency
// aliases the scratch and is overwritten by the next call with the same
// scratch.
type AdjacencyScratch struct {
	byDie [][]int
	pairs [][2]int
	deg   []int
	flat  []int
	rows  [][]int
}

// AdjacentModulesInto is AdjacentModules writing into a reusable scratch —
// the voltage-assignment engine re-sweeps adjacency on every stride refresh
// of the annealing loop, where the per-call row allocations would dominate
// the sweep itself. The result is value-identical to AdjacentModules.
func (l *Layout) AdjacentModulesInto(s *AdjacencyScratch) [][]int {
	n := len(l.Rects)
	if cap(s.byDie) < l.Dies {
		s.byDie = make([][]int, l.Dies)
	}
	byDie := s.byDie[:l.Dies]
	for d := range byDie {
		byDie[d] = byDie[d][:0]
	}
	for mi, d := range l.DieOf {
		byDie[d] = append(byDie[d], mi)
	}
	s.byDie = byDie
	// Sort each die's population by X once, in place (the lists are rebuilt
	// above on every call, so the previous call's order never leaks in).
	for d := range byDie {
		mods := byDie[d]
		sort.Slice(mods, func(i, j int) bool { return l.Rects[mods[i]].X < l.Rects[mods[j]].X })
	}
	// margin exceeds Adjacent's relative tolerance at any realistic die
	// coordinate, so the sweep never prunes a pair Adjacent would accept.
	const margin = 1e-3
	pairs := s.pairs[:0]
	record := func(a, b int) {
		if a > b {
			a, b = b, a
		}
		pairs = append(pairs, [2]int{a, b})
	}
	for d := 0; d < l.Dies; d++ {
		order := byDie[d]
		for i, a := range order {
			ra := l.Rects[a]
			maxX := ra.MaxX() + margin
			maxY := ra.MaxY() + margin
			for _, b := range order[i+1:] {
				rb := l.Rects[b]
				if rb.X > maxX {
					break
				}
				// Y pre-filter, same margin argument as the X window:
				// disjoint-beyond-margin Y spans can neither overlap nor
				// abut, so Adjacent cannot accept the pair.
				if rb.Y > maxY || ra.Y > rb.MaxY()+margin {
					continue
				}
				if ra.Adjacent(rb) {
					record(a, b)
				}
			}
		}
		// Vertical adjacency against the die above.
		if d+1 >= l.Dies {
			continue
		}
		above := byDie[d+1]
		for _, a := range order {
			ra := l.Rects[a]
			for _, b := range above {
				rb := l.Rects[b]
				if rb.X >= ra.MaxX() {
					break
				}
				if rb.MaxX() <= ra.X {
					continue
				}
				// Footprint overlap needs open Y-interval overlap too.
				if rb.Y >= ra.MaxY() || ra.Y >= rb.MaxY() {
					continue
				}
				if ra.OverlapArea(rb) > 0 {
					record(a, b)
				}
			}
		}
	}
	// Emit in the all-pairs order: ascending (a, b).
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i][0] != pairs[j][0] {
			return pairs[i][0] < pairs[j][0]
		}
		return pairs[i][1] < pairs[j][1]
	})
	s.pairs = pairs
	// Carve the rows out of one flat backing array sized by degree, filling
	// in pair order — the same per-row neighbour order the historical
	// append-per-pair emission produced.
	if cap(s.deg) < n {
		s.deg = make([]int, n)
		s.rows = make([][]int, n)
	}
	deg := s.deg[:n]
	for i := range deg {
		deg[i] = 0
	}
	for _, p := range pairs {
		deg[p[0]]++
		deg[p[1]]++
	}
	if cap(s.flat) < 2*len(pairs) {
		s.flat = make([]int, 2*len(pairs))
	}
	flat := s.flat[:2*len(pairs)]
	rows := s.rows[:n]
	off := 0
	for m := 0; m < n; m++ {
		rows[m] = flat[off : off : off+deg[m]]
		off += deg[m]
	}
	for _, p := range pairs {
		rows[p[0]] = append(rows[p[0]], p[1])
		rows[p[1]] = append(rows[p[1]], p[0])
	}
	return rows
}

// Clone returns a deep copy of the layout sharing the design.
func (l *Layout) Clone() *Layout {
	c := *l
	c.Rects = append([]geom.Rect(nil), l.Rects...)
	c.DieOf = append([]int(nil), l.DieOf...)
	return &c
}

func (l *Layout) String() string {
	return fmt.Sprintf("Layout(%s: %d modules, %d dies, %.0fx%.0f um)",
		l.Design.Name, len(l.Rects), l.Dies, l.OutlineW, l.OutlineH)
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
