package core

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/floorplan"
	"repro/internal/geom"
	"repro/internal/leakage"
	"repro/internal/netlist"
	"repro/internal/timing"
	"repro/internal/volt"
)

// incrState holds the caches behind the incremental cost evaluator. The
// contract with the annealer's Perturb/Cost/undo protocol:
//
//   - a floorplan.Move touches only the dies it names, so only those dies
//     are repacked (floorplan.PackDie); every other module's rect is
//     untouched, bit for bit;
//   - per-net wirelength and Elmore delay are recomputed only for nets with
//     a pin on a module whose placement actually changed — the values are
//     recomputed from scratch (not accumulated), so they are identical to a
//     full recompute;
//   - per-die power maps are re-rasterized from scratch for exactly the
//     dies a changed module left or entered (PowerMapInto, bit-identical to
//     the full path's PowerMap — an additive subtract/re-add patch would
//     leave ulp-level round-off that the discontinuous nested-means entropy
//     classification can amplify past the 1e-9 contract), and the fast
//     estimator's per-source blur responses are recomputed only for dies
//     whose map changed;
//   - per-die spatial entropies (TSC mode) are served by
//     leakage.EntropyCache: the cache diffs each dirty die's map against
//     its own value mirror and patches the nested-means sort and the
//     per-class histogram sums, reproducing the from-scratch
//     SpatialEntropy bit for bit (see the entCaches field for the rollback
//     story);
//   - both STA passes (the reference analysis feeding voltage refreshes and
//     the delay-scaled one behind the critical-delay term) run in full over
//     the cached net delays, into pooled analyses;
//   - every mutation this evaluation makes to the caches is journaled; the
//     undo closure returned by Perturb rolls the journal back, so rejected
//     moves restore the caches exactly (byte for byte — rejected moves
//     restore cloned pre-move maps, not re-derived ones).
//
// Voltage scales are deliberately NOT journaled: the full evaluator keeps
// scales computed during a rejected evaluation too (they are not part of the
// floorplan undo), and the incremental path mirrors that — a refresh during
// a rejected move instead marks every map dirty for the next evaluation.
// The voltage-assigner caches (the dirty-module set feeding volt.Assigner)
// ARE journaled, because unlike the scales they must track the floorplan
// exactly; see the volt fields below.
type incrState struct {
	lay *floorplan.Layout

	// modNets[m] lists the nets with a pin on module m.
	modNets [][]int

	netLen   []float64 // per-net HPWL in um, without the vertical detour
	netCross []bool    // whether the net spans dies
	netWL    []float64 // per-net HPWL including the detour (the cost term)
	netDelay []float64 // per-net Elmore delay in ns

	maps      []*geom.Grid   // per-die voltage-scaled power maps
	resp      [][]*geom.Grid // resp[s] = fast.Response(maps[s], s)
	entropy   []float64      // per-die spatial entropy (TSC mode only)
	mapsValid bool           // maps/resp/entropy reflect lay under current scales

	// entCaches[d] incrementally maintains die d's spatial entropy (TSC
	// mode). The caches are self-synchronizing — each Update diffs the grid
	// against the cache's own value mirror — so rejected moves need no
	// cache rollback: the journal restores the map bytes and the entropy
	// values, and the next Update on a die re-converges exactly. Only the
	// VALUES are journaled (oldEntropy).
	entCaches []*leakage.EntropyCache

	pending *floorplan.Move // applied to fp but not yet to the caches
	journal *moveJournal    // rollback record of the last evaluated move
	dirty   []int           // dies whose maps need patching this evaluation

	// spareJournal is the settled journal of the previous move (superseded
	// by perturb or unwound by rollback), kept so the next move refills its
	// slices instead of regrowing them from zero.
	spareJournal *moveJournal

	// packers[d] caches die d's skyline states so repacks resume from the
	// move's first changed sequence position. diffPool recycles the
	// floorplan.PackDiff records that journal each repack (one or two per
	// move, settled when the journal is superseded or rolled back).
	packers  []*floorplan.DiePacker
	diffPool []*floorplan.PackDiff

	// Incremental voltage refresh: vasg caches the voltage-volume
	// candidate trees between stride refreshes; voltDirty marks the modules
	// whose placement changed since the assigner last saw the layout
	// (voltDirtyList is the same set in insertion order, handed to
	// Refresh). voltAllDirty forces a full rebuild when the caches were
	// dropped wholesale (reset rollback). The dirty-set mutations are
	// journaled like every other cache: a rejected move unmarks exactly the
	// modules it marked, and a rejected move whose evaluation refreshed the
	// assignment re-derives the set from the rollback diff (the assigner saw
	// the rejected geometry, so after the undo precisely the reverted
	// modules differ from its snapshot).
	vasg          *volt.Assigner
	voltDirty     []bool
	voltDirtyList []int
	voltAllDirty  bool

	// Scratch, sized once.
	netStamp []int
	stamp    int
	dieMark  []bool

	// Check-path placement mirror (evaluator.check only): the layout as of
	// the last verified evaluation. Every cross-checked eval pins the
	// modules that differ from it against the journal's exact changed set —
	// the end-to-end proof that the diff contract reports precisely the
	// real churn. movedEval marks that the current evaluation applied a
	// move (vs a cache-only re-eval, whose diff must be empty).
	checkRects []geom.Rect
	checkDies  []int
	movedEval  bool

	// Recycled buffers: the annealing loop runs one evaluation per move, so
	// per-eval allocations are worth pooling. staRef/staScaled hold the
	// reference and delay-scaled STA passes. pool holds superseded map and
	// response grids, respPool the per-source response slices that held
	// them, and blurTmp is the fast estimator's intermediate blur pass.
	staRef    *timing.Analysis
	staScaled *timing.Analysis
	temps     []*geom.Grid
	powers    []float64
	pool      []*geom.Grid
	respPool  [][]*geom.Grid
	blurTmp   *geom.Grid
}

// poolCap bounds the grid and response-slice pools: the steady-state working
// set is a handful of each; anything beyond that is left to the garbage
// collector.
const poolCap = 64

// grabGrid returns a pooled grid of the cache's dimensions (contents
// undefined) or allocates one.
func (ic *incrState) grabGrid(nx, ny int) *geom.Grid {
	for n := len(ic.pool); n > 0; n = len(ic.pool) {
		g := ic.pool[n-1]
		ic.pool = ic.pool[:n-1]
		if g.NX == nx && g.NY == ny {
			return g
		}
	}
	return geom.NewGrid(nx, ny)
}

// releaseGrid returns a superseded grid to the bounded pool. Only call when
// dropping the last reference.
func (ic *incrState) releaseGrid(g *geom.Grid) {
	if g != nil && len(ic.pool) < poolCap {
		ic.pool = append(ic.pool, g)
	}
}

// grabResp returns a per-target response slice of pooled n x n grids
// (contents undefined), reusing a released slice when one is available.
func (ic *incrState) grabResp(dies, n int) []*geom.Grid {
	var r []*geom.Grid
	if k := len(ic.respPool); k > 0 {
		r = ic.respPool[k-1]
		ic.respPool = ic.respPool[:k-1]
	}
	for t := 0; t < dies; t++ {
		r = append(r, ic.grabGrid(n, n))
	}
	return r
}

// releaseResp returns a superseded response's grids, and the slice that
// held them, to the bounded pools. Only call when dropping the last
// reference.
func (ic *incrState) releaseResp(r []*geom.Grid) {
	if r == nil {
		return
	}
	for _, g := range r {
		ic.releaseGrid(g)
	}
	if len(ic.respPool) < poolCap {
		ic.respPool = append(ic.respPool, r[:0])
	}
}

// response blurs die s's current power map into pooled grids through the
// fast estimator, bit-identical to fast.Response(ic.maps[s], s).
func (ic *incrState) response(e *evaluator, s, n int) []*geom.Grid {
	if ic.blurTmp == nil || ic.blurTmp.NX != n || ic.blurTmp.NY != n {
		ic.blurTmp = geom.NewGrid(n, n)
	}
	r := ic.grabResp(ic.lay.Dies, n)
	e.fast.ResponseInto(ic.maps[s], s, r, ic.blurTmp)
	return r
}

// grabDiff returns a cleared pack-diff record from the pool or allocates one.
func (ic *incrState) grabDiff() *floorplan.PackDiff {
	if n := len(ic.diffPool); n > 0 {
		pd := ic.diffPool[n-1]
		ic.diffPool = ic.diffPool[:n-1]
		pd.Reset()
		return pd
	}
	return &floorplan.PackDiff{}
}

// releaseDiff returns a settled pack-diff record to the pool (bounded — a
// move journals at most two).
func (ic *incrState) releaseDiff(pd *floorplan.PackDiff) {
	const diffPoolCap = 8
	if len(ic.diffPool) < diffPoolCap {
		ic.diffPool = append(ic.diffPool, pd)
	}
}

// moveJournal records every cache mutation of one evaluated move so a
// rejected move can be rolled back exactly.
type moveJournal struct {
	// reset marks a journal whose rollback must drop all caches (the move
	// was folded into a full rebuild and has no itemized record).
	reset bool
	// refreshed marks that the voltage assignment re-ran during this
	// evaluation; the new scales survive rollback (full-path parity), so
	// the maps must be rebuilt instead of restored.
	refreshed bool
	// mapsRebuilt marks that updateMaps fully rebuilt the maps during this
	// evaluation (they were invalid coming in) instead of journaling
	// per-die patches; rollback must invalidate them, not restore them.
	mapsRebuilt bool

	// mods lists exactly the modules whose placement the move changed
	// (concatenated from the per-die pack diffs — the exact set, not a
	// touched-die snapshot), with their pre-move placements in rects/dies.
	mods  []int
	rects []geom.Rect
	dies  []int

	// packDiffs journal the per-die repacks: Rollback restores the layout
	// and the packer's skyline snapshots byte-exactly (no invalidation, no
	// suffix replay on the next move), Commit releases them when the move
	// is accepted.
	packDiffs []*floorplan.PackDiff

	nets     []int
	netLen   []float64
	netCross []bool
	netWL    []float64
	netDelay []float64

	mapDies    []int
	oldMaps    []*geom.Grid
	oldResp    [][]*geom.Grid
	oldEntropy []float64

	// voltAdded lists the modules this move newly marked volt-dirty, so a
	// rollback can unmark exactly them (unless refreshed, which re-derives
	// the set instead — see incrState.voltDirty).
	voltAdded []int
}

// grabJournal returns the recycled journal, cleared but keeping its slice
// storage, or a fresh one.
func (ic *incrState) grabJournal() *moveJournal {
	j := ic.spareJournal
	if j == nil {
		return &moveJournal{}
	}
	ic.spareJournal = nil
	j.reset, j.refreshed, j.mapsRebuilt = false, false, false
	j.mods, j.rects, j.dies, j.packDiffs = j.mods[:0], j.rects[:0], j.dies[:0], j.packDiffs[:0]
	j.nets, j.netLen, j.netCross = j.nets[:0], j.netLen[:0], j.netCross[:0]
	j.netWL, j.netDelay = j.netWL[:0], j.netDelay[:0]
	j.mapDies, j.oldMaps, j.oldResp, j.oldEntropy = j.mapDies[:0], j.oldMaps[:0], j.oldResp[:0], j.oldEntropy[:0]
	j.voltAdded = j.voltAdded[:0]
	return j
}

// newIncrState allocates an empty cache set; everything is built lazily on
// the first Cost call.
func newIncrState() *incrState { return &incrState{} }

// perturb applies one floorplan move, remembers it for the next Cost call,
// and returns an undo closure that reverts both the floorplan and the
// caches.
func (ic *incrState) perturb(e *evaluator, rng *rand.Rand) func() {
	if ic.pending != nil {
		panic("core: Perturb while a move is pending (each Perturb needs a Cost or undo first)")
	}
	mv, undo := e.fp.PerturbMove(rng)
	// The previous move's journal is superseded: once the annealer moves
	// on without undoing, that move is committed and its pre-move grid
	// snapshots and pack-diff journals can be recycled.
	if j := ic.journal; j != nil {
		for _, g := range j.oldMaps {
			ic.releaseGrid(g)
		}
		for _, r := range j.oldResp {
			ic.releaseResp(r)
		}
		for _, pd := range j.packDiffs {
			pd.Commit()
			ic.releaseDiff(pd)
		}
		ic.journal = nil
		ic.spareJournal = j
	}
	ic.pending = &mv
	return func() {
		undo()
		ic.rollback()
	}
}

// rollback reverts the cache mutations of the last evaluated move. Called
// after the floorplan undo has already restored the sequences.
func (ic *incrState) rollback() {
	ic.pending = nil
	ic.dirty = ic.dirty[:0]
	ic.movedEval = false
	j := ic.journal
	ic.journal = nil
	if j == nil {
		return // undone before any Cost ran: caches never saw the move
	}
	// Every path below settles the journal; recycle it for the next move.
	defer func() { ic.spareJournal = j }()
	if j.reset {
		ic.lay = nil
		ic.mapsValid = false
		ic.packers = nil
		ic.checkRects, ic.checkDies = nil, nil
		// The caches are gone wholesale; the assigner's snapshot no longer
		// corresponds to anything we can diff against.
		ic.voltAllDirty = true
		ic.clearVoltDirty()
		return
	}
	if j.refreshed {
		// The assigner refreshed on the rejected geometry: relative to its
		// snapshot, exactly the modules this rollback is about to revert
		// are dirty — and j.mods IS that set (every listed module changed,
		// by the exact-diff contract).
		ic.clearVoltDirty()
		for _, m := range j.mods {
			ic.markVoltDirty(m)
		}
	}
	// Pack-diff rollback restores both the layout entries of j.mods and the
	// packers' skyline snapshots byte-exactly (in reverse order, so a
	// cross-die move unwinds destination before source) — the next repack
	// resumes from live snapshots instead of replaying the whole suffix.
	for i := len(j.packDiffs) - 1; i >= 0; i-- {
		j.packDiffs[i].Rollback(ic.lay)
	}
	for _, pd := range j.packDiffs {
		ic.releaseDiff(pd)
	}
	if ic.checkRects != nil {
		for i, m := range j.mods {
			ic.checkRects[m] = j.rects[i]
			ic.checkDies[m] = j.dies[i]
		}
	}
	if !j.refreshed {
		// No refresh saw the move: unmark exactly what it marked.
		for _, m := range j.voltAdded {
			ic.voltDirty[m] = false
		}
		if len(j.voltAdded) > 0 {
			w := 0
			for _, m := range ic.voltDirtyList {
				if ic.voltDirty[m] {
					ic.voltDirtyList[w] = m
					w++
				}
			}
			ic.voltDirtyList = ic.voltDirtyList[:w]
		}
	}
	for i, ni := range j.nets {
		ic.netLen[ni] = j.netLen[i]
		ic.netCross[ni] = j.netCross[i]
		ic.netWL[ni] = j.netWL[i]
		ic.netDelay[ni] = j.netDelay[i]
	}
	if j.refreshed || j.mapsRebuilt {
		// Either the scales changed (and survive rollback) or the maps were
		// rebuilt wholesale under the now-undone geometry; both ways they
		// must be rebuilt on the next evaluation rather than restored.
		ic.mapsValid = false
		return
	}
	// TSC mode journals one entropy per map die; power-aware mode none.
	entropyJournaled := len(j.oldEntropy) == len(j.mapDies)
	for i, d := range j.mapDies {
		ic.releaseResp(ic.resp[d])
		ic.releaseGrid(ic.maps[d])
		ic.maps[d] = j.oldMaps[i]
		ic.resp[d] = j.oldResp[i]
		if entropyJournaled {
			ic.entropy[d] = j.oldEntropy[i]
		}
	}
}

// incrementalCost is Cost over the caches: apply the pending move (if any),
// then assemble the terms from cached per-net and per-die state.
func (e *evaluator) incrementalCost() float64 {
	ic := e.incr
	e.stats.Evals++
	switch {
	case ic.lay == nil:
		ic.initGeometry(e)
		e.stats.FullEvals++
	case ic.pending != nil:
		ic.applyMove(e)
		e.stats.IncrementalEvals++
	default:
		e.stats.IncrementalEvals++
	}

	t := &normTerms{}
	t.viol = ic.lay.OutlineViolation()
	wl := 0.0
	for _, v := range ic.netWL {
		wl += v
	}
	t.wl = wl

	if refreshed := e.refreshVoltage(ic.lay, func() *timing.Analysis {
		ic.staRef = timing.AnalyzeFromNetDelaysInto(ic.lay.Design, ic.netDelay, nil, ic.staRef)
		return ic.staRef
	}); refreshed {
		ic.mapsValid = false
		if ic.journal != nil {
			ic.journal.refreshed = true
		}
	}
	ic.staScaled = timing.AnalyzeFromNetDelaysInto(ic.lay.Design, ic.netDelay, e.delayScale, ic.staScaled)
	t.delay = ic.staScaled.Critical
	t.power = e.scaledPower
	t.volumes = float64(e.nVolumes)

	powers := ic.scaledPowers(e)
	ic.updateMaps(e, powers)
	ic.temps = e.fast.CombineInto(ic.resp, ic.temps)
	t.peak = peakOf(ic.temps)

	if e.cfg.Mode == TSCAware {
		corr, entropy := 0.0, 0.0
		for d := 0; d < ic.lay.Dies; d++ {
			corr += math.Abs(leakage.Pearson(ic.maps[d], ic.temps[d]))
			entropy += ic.entropy[d]
		}
		t.corr = corr / float64(ic.lay.Dies)
		t.entropy = entropy / float64(ic.lay.Dies)
	}
	t.rule = designRuleTerm(ic.lay, powers)

	cost := e.finishCost(ic.lay, t)
	if e.check {
		e.crossCheck(cost)
	}
	return cost
}

// crossCheck re-evaluates the current floorplan through the full-recompute
// path (using the same voltage scales) and panics if the incremental cost
// drifted past the epsilon contract. It also pins the packer diff contract
// at zero tolerance: the cached layout must equal a from-scratch Pack bit
// for bit, and the modules that moved since the last verified evaluation
// must be exactly the journal's changed set — no module missing from the
// diff, none reported spuriously. Debug aid: it forfeits the entire
// speedup, so it is only enabled by Config.CostCrossCheck and in tests.
func (e *evaluator) crossCheck(got float64) {
	e.stats.CrossChecks++
	ic := e.incr
	l := e.fp.Pack()
	want := e.finishCost(l, e.staticTerms(l))
	diff := math.Abs(got - want)
	if diff > e.stats.MaxCrossCheckError {
		e.stats.MaxCrossCheckError = diff
	}
	if diff > 1e-9*math.Max(1, math.Abs(want)) {
		panic(fmt.Sprintf("core: incremental cost %v diverged from full recompute %v (|diff| %g)",
			got, want, diff))
	}

	// Placement pin, zero tolerance: the incrementally maintained layout is
	// the full Pack, byte for byte.
	moved := ic.movedEval
	ic.movedEval = false
	for m := range l.Rects {
		if ic.lay.Rects[m] != l.Rects[m] || ic.lay.DieOf[m] != l.DieOf[m] {
			panic(fmt.Sprintf("core: incremental placement of module %d (%+v die %d) != full pack (%+v die %d)",
				m, ic.lay.Rects[m], ic.lay.DieOf[m], l.Rects[m], l.DieOf[m]))
		}
	}
	// Exact-changed-set pin: diff the layout against the last verified
	// mirror; the differing modules must be precisely the journal's mods
	// when this eval applied a move, and nothing otherwise.
	if ic.checkRects == nil || len(ic.checkRects) != len(l.Rects) {
		ic.checkRects = append(ic.checkRects[:0], ic.lay.Rects...)
		ic.checkDies = append(ic.checkDies[:0], ic.lay.DieOf...)
		return
	}
	expected := make(map[int]bool)
	if moved {
		for _, m := range ic.journal.mods {
			expected[m] = true
		}
	}
	for m := range ic.lay.Rects {
		changed := ic.lay.Rects[m] != ic.checkRects[m] || ic.lay.DieOf[m] != ic.checkDies[m]
		if changed != expected[m] {
			panic(fmt.Sprintf("core: exact-diff contract broken for module %d: placement changed=%v but journal reports changed=%v",
				m, changed, expected[m]))
		}
		if changed {
			ic.checkRects[m] = ic.lay.Rects[m]
			ic.checkDies[m] = ic.lay.DieOf[m]
		}
	}
}

// initGeometry builds the layout and per-net caches from scratch. The power
// maps are built by updateMaps once the voltage scales are known.
func (ic *incrState) initGeometry(e *evaluator) {
	ic.lay = e.fp.Pack()
	des := ic.lay.Design
	nMods, nNets := len(des.Modules), len(des.Nets)

	ic.modNets = make([][]int, nMods)
	for ni, n := range des.Nets {
		for _, m := range n.Modules {
			ic.modNets[m] = append(ic.modNets[m], ni)
		}
	}
	ic.netLen = make([]float64, nNets)
	ic.netCross = make([]bool, nNets)
	ic.netWL = make([]float64, nNets)
	ic.netDelay = make([]float64, nNets)
	for ni, n := range des.Nets {
		ic.refreshNet(ni, n, e.cfg.TimingParams)
	}
	ic.maps = make([]*geom.Grid, ic.lay.Dies)
	ic.resp = make([][]*geom.Grid, ic.lay.Dies)
	ic.entropy = make([]float64, ic.lay.Dies)
	ic.mapsValid = false
	if e.cfg.Mode == TSCAware && ic.entCaches == nil {
		ic.entCaches = make([]*leakage.EntropyCache, ic.lay.Dies)
		for d := range ic.entCaches {
			c, err := leakage.NewEntropyCache(leakage.EntropyOptions{})
			if err != nil {
				panic(fmt.Sprintf("core: default entropy options rejected: %v", err))
			}
			ic.entCaches[d] = c
		}
	}

	ic.netStamp = make([]int, nNets)
	ic.dieMark = make([]bool, ic.lay.Dies)

	if ic.voltDirty == nil {
		ic.voltDirty = make([]bool, nMods)
	}

	if ic.pending != nil {
		// The move is folded into this full build; there is no itemized
		// rollback record, so an undo must drop the caches entirely.
		ic.pending = nil
		ic.journal = ic.grabJournal()
		ic.journal.reset = true
	}
}

// scaledPowers fills the reusable per-module voltage-scaled power buffer,
// value-identical to the package-level scaledPowers helper.
func (ic *incrState) scaledPowers(e *evaluator) []float64 {
	des := ic.lay.Design
	if cap(ic.powers) < len(des.Modules) {
		ic.powers = make([]float64, len(des.Modules))
	}
	p := ic.powers[:len(des.Modules)]
	for m, mod := range des.Modules {
		p[m] = mod.Power
	}
	if e.powerScale != nil {
		for m := range p {
			p[m] *= e.powerScale[m]
		}
	}
	return p
}

// refreshNet recomputes one net's cached geometry and delay from the current
// layout. The values are recomputed exactly as the full path would, so
// unchanged nets keep bit-identical cached values.
func (ic *incrState) refreshNet(ni int, n *netlist.Net, p *timing.Params) {
	if n.Degree() < 2 {
		// Degenerate nets (single-pin, empty) carry no wire: WL and delay
		// are zero in both evaluators, matching the layout's HPWL (a
		// one-point bounding box) and the guarded ElmoreDelay, and the STA
		// pass skips them entirely.
		ic.netLen[ni], ic.netCross[ni], ic.netWL[ni], ic.netDelay[ni] = 0, false, 0, 0
		return
	}
	ln := ic.lay.NetHPWL(n, 0)
	cross := false
	die0 := -1
	for _, mi := range n.Modules {
		if die0 == -1 {
			die0 = ic.lay.DieOf[mi]
		} else if ic.lay.DieOf[mi] != die0 {
			cross = true
			break
		}
	}
	wl := ln
	if cross {
		wl = ln + p.VertLen
	}
	ic.netLen[ni] = ln
	ic.netCross[ni] = cross
	ic.netWL[ni] = wl
	ic.netDelay[ni] = timing.ElmoreDelay(ln, cross, n.Degree(), *p)
}

// applyMove repacks the dies the pending move touched through the
// diff-producing packer, journals the exact changed set, and patches the
// per-net caches from it. Map patching is deferred to updateMaps (the
// voltage scales of this evaluation must be known first).
func (ic *incrState) applyMove(e *evaluator) {
	mv := ic.pending
	ic.pending = nil
	j := ic.grabJournal()
	ic.journal = j
	ic.movedEval = true

	// Partial repack: only the touched dies, each resuming from the move's
	// first changed sequence position via the cached skyline snapshots.
	// PackDieFromDiff stops as soon as the skyline re-converges with the
	// pre-move snapshot and reports exactly the modules whose placement
	// changed — j.mods is that set, not a touched-die population snapshot.
	if ic.packers == nil {
		ic.packers = make([]*floorplan.DiePacker, ic.lay.Dies)
	}
	for i, d := range mv.Dies {
		if ic.packers[d] == nil {
			ic.packers[d] = &floorplan.DiePacker{}
		}
		pd := ic.grabDiff()
		e.fp.PackDieFromDiff(ic.lay, d, mv.Starts[i], ic.packers[d], pd)
		j.packDiffs = append(j.packDiffs, pd)
		j.mods = append(j.mods, pd.Changed...)
		j.rects = append(j.rects, pd.OldRects...)
		j.dies = append(j.dies, pd.OldDies...)
		e.stats.PackDieDiffs++
		if pd.Converged {
			e.stats.PackEarlyExits++
		}
		e.stats.PackReplayedPositions += pd.Exit - pd.From
	}
	e.stats.PackMoves++
	e.stats.recordPackChanged(len(j.mods))
	e.stats.DiesRepacked += len(mv.Dies)
	e.stats.DiesReused += ic.lay.Dies - len(mv.Dies)

	// Accumulate the changed modules into the voltage-assigner dirty set,
	// journaling the newly marked ones for rollback.
	for _, m := range j.mods {
		if !ic.voltDirty[m] {
			ic.markVoltDirty(m)
			j.voltAdded = append(j.voltAdded, m)
		}
	}

	// Patch the nets touching a changed module; mark their dies map-dirty.
	ic.stamp++
	recomputed := 0
	for i := range ic.dieMark {
		ic.dieMark[i] = false
	}
	for i, m := range j.mods {
		ic.dieMark[j.dies[i]] = true       // old die
		ic.dieMark[ic.lay.DieOf[m]] = true // new die
		for _, ni := range ic.modNets[m] {
			if ic.netStamp[ni] == ic.stamp {
				continue
			}
			ic.netStamp[ni] = ic.stamp
			j.nets = append(j.nets, ni)
			j.netLen = append(j.netLen, ic.netLen[ni])
			j.netCross = append(j.netCross, ic.netCross[ni])
			j.netWL = append(j.netWL, ic.netWL[ni])
			j.netDelay = append(j.netDelay, ic.netDelay[ni])
			ic.refreshNet(ni, ic.lay.Design.Nets[ni], e.cfg.TimingParams)
			recomputed++
		}
	}
	e.stats.NetsRecomputed += recomputed
	e.stats.NetsReused += len(ic.netWL) - recomputed

	ic.dirty = ic.dirty[:0]
	for d, marked := range ic.dieMark {
		if marked {
			ic.dirty = append(ic.dirty, d)
		}
	}
}

// updateMaps brings the per-die power maps, fast-estimator responses, and
// entropy cache in line with the current layout and voltage scales: a full
// rebuild when the scales changed (or on first use), otherwise a patch of
// only the dirty dies.
func (ic *incrState) updateMaps(e *evaluator, powers []float64) {
	n := e.cfg.GridN
	tsc := e.cfg.Mode == TSCAware
	if !ic.mapsValid {
		for d := 0; d < ic.lay.Dies; d++ {
			ic.releaseGrid(ic.maps[d])
			ic.releaseResp(ic.resp[d])
			ic.maps[d] = ic.lay.PowerMapInto(d, powers, ic.grabGrid(n, n))
		}
		for s := 0; s < ic.lay.Dies; s++ {
			ic.resp[s] = ic.response(e, s, n)
			if tsc {
				ic.entropy[s] = ic.dieEntropy(e, s)
			}
		}
		ic.mapsValid = true
		ic.dirty = ic.dirty[:0]
		if ic.journal != nil {
			ic.journal.mapsRebuilt = true
		}
		e.stats.ResponsesComputed += ic.lay.Dies
		return
	}
	if len(ic.dirty) == 0 {
		e.stats.ResponsesReused += ic.lay.Dies
		return
	}
	j := ic.journal
	for _, d := range ic.dirty {
		j.mapDies = append(j.mapDies, d)
		snap := ic.grabGrid(n, n)
		copy(snap.Data, ic.maps[d].Data)
		j.oldMaps = append(j.oldMaps, snap)
		// Re-rasterize the dirty die from scratch rather than subtracting
		// the moved modules' old footprints and re-adding the new ones: the
		// additive patch leaves a few ulps of round-off on every touched
		// cell, and the nested-means classification behind the spatial
		// entropy is DISCONTINUOUS in the cell values — one ulp can flip a
		// bin across a class boundary and shift the entropy term by far
		// more than the 1e-9 contract (observed on small designs). The
		// rebuild reproduces the full path's floats bit for bit and its
		// cost is dominated by the per-dirty-die blur response below.
		ic.lay.PowerMapInto(d, powers, ic.maps[d])
	}
	for _, d := range ic.dirty {
		j.oldResp = append(j.oldResp, ic.resp[d])
		ic.resp[d] = ic.response(e, d, n)
		if tsc {
			j.oldEntropy = append(j.oldEntropy, ic.entropy[d])
			ic.entropy[d] = ic.dieEntropy(e, d)
		}
	}
	e.stats.ResponsesComputed += len(ic.dirty)
	e.stats.ResponsesReused += ic.lay.Dies - len(ic.dirty)
	ic.dirty = ic.dirty[:0]
}

// dieEntropy returns die d's spatial entropy under the current maps, served
// by the incremental entropy cache. With the cross-check active every cached
// value is pinned against the from-scratch Eq. 3 evaluation at 1e-9
// (relative).
func (ic *incrState) dieEntropy(e *evaluator, d int) float64 {
	ent, patched := ic.entCaches[d].Update(ic.maps[d])
	if patched {
		e.stats.EntropyPatched++
	} else {
		e.stats.EntropyRebuilt++
	}
	if e.check {
		e.stats.EntropyCrossChecks++
		want := leakage.SpatialEntropy(ic.maps[d], leakage.EntropyOptions{})
		if diff := math.Abs(ent - want); diff > 1e-9*math.Max(1, math.Abs(want)) {
			panic(fmt.Sprintf("core: incremental entropy %v diverged from full recompute %v on die %d (|diff| %g)",
				ent, want, d, diff))
		}
	}
	return ent
}

// markVoltDirty records module m as changed since the voltage assigner's
// snapshot (idempotent).
func (ic *incrState) markVoltDirty(m int) {
	if !ic.voltDirty[m] {
		ic.voltDirty[m] = true
		ic.voltDirtyList = append(ic.voltDirtyList, m)
	}
}

// clearVoltDirty empties the dirty set in O(dirty).
func (ic *incrState) clearVoltDirty() {
	for _, m := range ic.voltDirtyList {
		ic.voltDirty[m] = false
	}
	ic.voltDirtyList = ic.voltDirtyList[:0]
}

// refreshVoltAssignment serves one stride voltage refresh from the cached
// volt.Assigner: only the candidate trees that depend on a module whose
// placement (accumulated here from the move journal since the last refresh)
// or feasible-level mask (diffed inside the assigner from ref) changed are
// regrown. Consumes the dirty set; the result is value-identical to a fresh
// volt.Assign on the current layout, which the check path verifies.
func (ic *incrState) refreshVoltAssignment(e *evaluator, ref *timing.Analysis) *volt.Assignment {
	if ic.vasg == nil {
		ic.vasg = volt.NewAssigner(e.voltConfig())
	}
	if ic.voltAllDirty {
		ic.vasg.Invalidate()
		ic.voltAllDirty = false
	}
	asg := ic.vasg.Refresh(ic.lay, ref, ic.voltDirtyList)
	ic.clearVoltDirty()
	st := ic.vasg.Stats()
	e.stats.VoltIncrementalRefreshes = st.Refreshes
	e.stats.VoltCandidatesReused = st.CandidatesReused
	e.stats.VoltCandidatesRegrown = st.CandidatesRegrown
	if e.check {
		e.crossCheckVolt(ic.lay, ref, asg)
	}
	return asg
}

// crossCheckVolt pins an incremental voltage refresh against a from-scratch
// volt.Assign on the same layout and reference timing: identical volumes and
// per-module levels, TotalPower within the 1e-9 contract. Debug aid behind
// Config.CostCrossCheck, like crossCheck.
func (e *evaluator) crossCheckVolt(l *floorplan.Layout, ref *timing.Analysis, got *volt.Assignment) {
	e.stats.VoltCrossChecks++
	want := volt.Assign(l, ref, e.voltConfig())
	if err := volt.Equivalent(got, want, 1e-9); err != nil {
		panic(fmt.Sprintf("core: incremental voltage assignment diverged from full volt.Assign: %v", err))
	}
}
