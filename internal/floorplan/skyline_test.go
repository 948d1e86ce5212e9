package floorplan

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/netlist"
)

// TestSkylineSequentialPlacements drives the packer directly through a
// scripted sequence and checks every invariant after each step.
func TestSkylineSequentialPlacements(t *testing.T) {
	s := newSkyline(100)
	type placed struct{ x, y, w, h float64 }
	var all []placed
	rng := rand.New(rand.NewSource(9))
	for step := 0; step < 200; step++ {
		w := 1 + rng.Float64()*30
		h := 1 + rng.Float64()*30
		dir := InsertDir(rng.Intn(2))
		x, y := s.place(w, h, dir)
		p := placed{x, y, w, h}
		// Never placed left of the origin or beyond the strip width when
		// it fits.
		if x < 0 {
			t.Fatalf("step %d: x=%v", step, x)
		}
		if w <= 100 && x+w > 100+1e-9 {
			t.Fatalf("step %d: module sticks out right: x=%v w=%v", step, x, w)
		}
		// No overlap with anything placed before.
		for i, q := range all {
			if x < q.x+q.w && q.x < x+w && y < q.y+q.h && q.y < y+h {
				t.Fatalf("step %d overlaps placement %d: %+v vs %+v", step, i, p, q)
			}
		}
		all = append(all, p)
	}
}

// TestSkylineSupportInvariant: every module must rest either on the floor
// or on top of at least one previously placed module (no floating blocks).
func TestSkylineSupportInvariant(t *testing.T) {
	s := newSkyline(50)
	type placed struct{ x, y, w, h float64 }
	var all []placed
	rng := rand.New(rand.NewSource(10))
	for step := 0; step < 100; step++ {
		w := 1 + rng.Float64()*20
		h := 1 + rng.Float64()*10
		x, y := s.place(w, h, LowestFirst)
		if y > 0 {
			supported := false
			for _, q := range all {
				if math.Abs(q.y+q.h-y) < 1e-9 && q.x < x+w && x < q.x+q.w {
					supported = true
					break
				}
			}
			if !supported {
				t.Fatalf("step %d: module at (%v,%v) floats", step, x, y)
			}
		}
		all = append(all, placed{x, y, w, h})
	}
}

// TestSkylineWiderThanStrip: modules wider than the strip clamp to x=0 and
// still never overlap previously placed modules.
func TestSkylineWiderThanStrip(t *testing.T) {
	s := newSkyline(10)
	x0, y0 := s.place(25, 5, LowestFirst)
	if x0 != 0 || y0 != 0 {
		t.Fatalf("oversize module should clamp to origin: (%v,%v)", x0, y0)
	}
	x1, y1 := s.place(25, 5, LowestFirst)
	if x1 != 0 || y1 < 5 {
		t.Fatalf("second oversize module must stack: (%v,%v)", x1, y1)
	}
}

// TestPackPropertyRandomDesigns: quick-generated designs always pack
// without overlap and preserve areas.
func TestPackPropertyRandomDesigns(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(20)
		d := &netlist.Design{Name: "q", OutlineW: 200, OutlineH: 200, Dies: 1 + rng.Intn(3)}
		for i := 0; i < n; i++ {
			kind := netlist.Hard
			if rng.Intn(2) == 0 {
				kind = netlist.Soft
			}
			m := &netlist.Module{
				Name: "m" + string(rune('a'+i)), Kind: kind,
				W: 5 + rng.Float64()*40, H: 5 + rng.Float64()*40,
				MinAspect: 0.25, MaxAspect: 4, Power: rng.Float64(),
			}
			d.Modules = append(d.Modules, m)
		}
		d.Nets = append(d.Nets, &netlist.Net{Name: "n0", Modules: []int{0, 1}})
		fp := NewRandom(d, rng)
		for k := 0; k < 30; k++ {
			fp.Perturb(rng)
		}
		l := fp.Pack()
		if l.OverlapArea() > 1e-9 {
			return false
		}
		for mi, m := range fp.Design.Modules {
			if math.Abs(l.Rects[mi].Area()-m.Area()) > 1e-6*m.Area() {
				return false
			}
		}
		return fp.CheckInvariants()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestPerturbOpsCoverage: over many perturbations every operator fires.
func TestPerturbOpsCoverage(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	fp := NewRandom(tinyDesign(), rng)
	seen := map[Op]int{}
	for i := 0; i < 2000; i++ {
		op, undo := fp.Perturb(rng)
		seen[op]++
		_ = undo
	}
	for op := OpSwap; op < numOps; op++ {
		if seen[op] == 0 {
			t.Fatalf("operator %v never fired", op)
		}
	}
}

func TestOpStrings(t *testing.T) {
	for op := OpSwap; op < numOps; op++ {
		if op.String() == "op?" {
			t.Fatalf("op %d missing name", op)
		}
	}
}

func TestDeadspace(t *testing.T) {
	d := &netlist.Design{
		Name: "ds",
		Modules: []*netlist.Module{
			{Name: "a", Kind: netlist.Hard, W: 50, H: 100, Power: 1},
		},
		Nets:      []*netlist.Net{{Name: "n", Modules: []int{0}, Terminals: []int{0}}},
		Terminals: []*netlist.Terminal{{Name: "p", X: 0, Y: 0}},
		OutlineW:  100, OutlineH: 100, Dies: 1,
	}
	l := New(d).Pack()
	if got := l.Deadspace(0); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("deadspace %v, want 0.5", got)
	}
}

func TestDeadspaceEmptyDie(t *testing.T) {
	d := tinyDesign()
	l := New(d).Pack()
	for mi := range l.DieOf {
		l.DieOf[mi] = 0
	}
	if got := l.Deadspace(1); got != 1 {
		t.Fatalf("empty die deadspace %v, want 1", got)
	}
}

// TestSkylinePlaceAllocationFree pins the packer's inner step at zero
// allocations once the skyline's step and scratch storage are warm: the
// corner scan keeps its running best in locals instead of collecting a
// candidate list. The sequence includes a module wider than the strip, so
// the clamp-left branch is covered too.
func TestSkylinePlaceAllocationFree(t *testing.T) {
	type mod struct {
		w, h float64
		dir  InsertDir
	}
	rng := rand.New(rand.NewSource(12))
	mods := make([]mod, 60)
	for i := range mods {
		mods[i] = mod{5 + rng.Float64()*40, 5 + rng.Float64()*40, InsertDir(rng.Intn(2))}
	}
	mods[len(mods)/2].w = 250 // wider than the strip
	s := newSkyline(200)
	allocs := testing.AllocsPerRun(20, func() {
		s.xs = append(s.xs[:0], 0)
		s.ys = append(s.ys[:0], 0)
		for _, m := range mods {
			s.place(m.w, m.h, m.dir)
		}
	})
	if allocs != 0 {
		t.Fatalf("skyline placement allocated %v times per %d-module pass, want 0", allocs, len(mods))
	}
}

// refSpanHeight is the reference span query for the corner scan: the max
// height over [x, x+w), its first step found by binary search.
func refSpanHeight(s *skyline, x, w float64) float64 {
	h := 0.0
	i := sort.SearchFloat64s(s.xs, x)
	if i > 0 && s.end(i-1) > x {
		i--
	}
	for ; i < len(s.xs); i++ {
		if s.end(i) <= x {
			continue
		}
		if s.xs[i] >= x+w {
			break
		}
		if s.ys[i] > h {
			h = s.ys[i]
		}
	}
	return h
}

// refCorner is the reference corner choice: every step start that fits,
// scored by refSpanHeight, and the clamp-left fallback for a module wider
// than the strip. It does not commit.
func refCorner(s *skyline, w float64, dir InsertDir) (float64, float64) {
	var bx, by float64
	found := false
	for i := range s.xs {
		x := s.xs[i]
		if x+w > s.width+1e-9 {
			continue
		}
		y := refSpanHeight(s, x, w)
		if !found || better(x, y, bx, by, dir) {
			bx, by, found = x, y, true
		}
	}
	if !found {
		bx, by = 0, refSpanHeight(s, 0, math.Min(w, s.width))
	}
	return bx, by
}

// randomSkyline draws a skyline in the packer's invariant form: xs[0] == 0,
// step starts strictly ascending and inside the strip, heights from a few
// levels so that corners tie.
func randomSkyline(rng *rand.Rand, width float64, steps int) *skyline {
	s := newSkyline(width)
	for k := 1; k < steps; k++ {
		if x := rng.Float64() * width; x > 0 && x < width {
			s.xs = append(s.xs, x)
		}
	}
	sort.Float64s(s.xs)
	s.xs = slices.Compact(s.xs)
	s.ys = s.ys[:0]
	for range s.xs {
		s.ys = append(s.ys, float64(rng.Intn(4))*width/8)
	}
	return s
}

// checkPlaceMatchesRef places one w x h module and requires the same corner,
// compared with ==, as the reference choice on the same skyline.
func checkPlaceMatchesRef(t *testing.T, s *skyline, w, h float64, dir InsertDir) {
	t.Helper()
	wx, wy := refCorner(s, w, dir)
	if x, y := s.place(w, h, dir); x != wx || y != wy {
		t.Fatalf("w=%v dir=%v on skyline %v/%v: placed at (%v, %v), reference (%v, %v)",
			w, dir, s.xs, s.ys, x, y, wx, wy)
	}
}

// TestSkylinePlaceMatchesReference pins the search-free corner scan to the
// binary-search reference on random step sets and on the skylines real
// placement sequences grow, including modules wider than the strip (the
// clamp path).
func TestSkylinePlaceMatchesReference(t *testing.T) {
	// A span that overruns the strip by less than the 1e-9 tolerance still
	// fits: the low right-hand corner must win over the high left one.
	edge := newSkyline(100)
	edge.xs, edge.ys = []float64{0, 50}, []float64{10, 0}
	checkPlaceMatchesRef(t, edge, 50+5e-10, 1, LowestFirst)

	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 2000; trial++ {
		width := 10 + rng.Float64()*200
		s := randomSkyline(rng, width, 1+rng.Intn(20))
		for step := 0; step < 8; step++ {
			w := 1e-3 + rng.Float64()*width*1.3 // about one in four is wider than the strip
			if n := len(s.xs); n > 1 && rng.Intn(8) == 0 {
				w = s.xs[1+rng.Intn(n-1)] // from x = 0 the span ends exactly on a step start
			}
			checkPlaceMatchesRef(t, s, w, 1+rng.Float64()*width/4, InsertDir(rng.Intn(2)))
		}
	}
}
