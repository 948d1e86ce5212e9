package netlist

import (
	"math"
	"testing"
	"testing/quick"
)

func smallDesign() *Design {
	return &Design{
		Name: "t",
		Modules: []*Module{
			{Name: "a", Kind: Hard, W: 10, H: 20, Power: 0.5},
			{Name: "b", Kind: Soft, W: 10, H: 10, MinAspect: 0.5, MaxAspect: 2, Power: 0.25},
			{Name: "c", Kind: Soft, W: 20, H: 5, MinAspect: 0.25, MaxAspect: 4, Power: 1.0},
		},
		Nets: []*Net{
			{Name: "n0", Modules: []int{0, 1}},
			{Name: "n1", Modules: []int{0, 1, 2}},
			{Name: "n2", Modules: []int{2}, Terminals: []int{0}},
		},
		Terminals: []*Terminal{{Name: "p0", X: 0, Y: 15}},
		OutlineW:  100, OutlineH: 100, Dies: 2,
	}
}

func TestValidateOK(t *testing.T) {
	if err := smallDesign().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesDuplicateNames(t *testing.T) {
	d := smallDesign()
	d.Modules[1].Name = "a"
	if err := d.Validate(); err == nil {
		t.Fatal("expected duplicate-name error")
	}
}

func TestValidateCatchesBadOutline(t *testing.T) {
	d := smallDesign()
	d.OutlineW = 0
	if err := d.Validate(); err == nil {
		t.Fatal("expected outline error")
	}
}

func TestValidateCatchesNoModules(t *testing.T) {
	d := smallDesign()
	d.Modules, d.Nets = nil, nil
	if err := d.Validate(); err == nil {
		t.Fatal("expected empty-module-list error")
	}
}

func TestValidateCatchesDanglingNet(t *testing.T) {
	d := smallDesign()
	d.Nets[0].Modules = []int{7, 1}
	if err := d.Validate(); err == nil {
		t.Fatal("expected out-of-range module reference error")
	}
}

func TestValidateCatchesLowDegreeNet(t *testing.T) {
	d := smallDesign()
	d.Nets[0].Modules = []int{0}
	if err := d.Validate(); err == nil {
		t.Fatal("expected degree error")
	}
}

func TestValidateCatchesOffBoundaryTerminal(t *testing.T) {
	d := smallDesign()
	d.Terminals[0].X, d.Terminals[0].Y = 50, 50
	if err := d.Validate(); err == nil {
		t.Fatal("expected terminal placement error")
	}
}

// TestValidateCatchesModulesThatCannotFit covers the two ways a module can
// be unplaceable inside a 100x60 outline — a hard module too large in both
// orientations, a soft module with no aspect ratio within its bounds that
// fits — and the near misses that must still validate: a hard module that
// fits only rotated, and soft modules that fit only at one end of their
// aspect range.
func TestValidateCatchesModulesThatCannotFit(t *testing.T) {
	// A soft 200x20 module (area 4000) fits 100x60 unrotated for aspect
	// ratios in [1.11, 2.5] and rotated for [0.4, 0.9].
	soft := func(lo, hi float64) Module {
		return Module{Kind: Soft, W: 200, H: 20, MinAspect: lo, MaxAspect: hi}
	}
	for _, tc := range []struct {
		name string
		mod  Module
		ok   bool
	}{
		{"hard too wide", Module{Kind: Hard, W: 1e6, H: 5}, false},
		{"hard too tall both ways", Module{Kind: Hard, W: 70, H: 70}, false},
		{"hard fits only rotated", Module{Kind: Hard, W: 50, H: 90}, true},
		{"hard exactly the outline", Module{Kind: Hard, W: 100, H: 60}, true},
		{"soft area beyond the outline", Module{Kind: Soft, W: 110, H: 110, MinAspect: 0.5, MaxAspect: 2}, false},
		{"soft bounds above every fit", soft(8, 12), false},
		{"soft bounds between the fitting ranges", soft(0.95, 1.05), false},
		{"soft fits at its lowest aspect", soft(2.5, 12), true},
		{"soft fits rotated at its highest aspect", soft(0.01, 0.4), true},
	} {
		d := smallDesign()
		d.OutlineH = 60
		m := tc.mod
		m.Name, m.Power = "x", 0.1
		d.Modules[0] = &m
		err := d.Validate()
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: expected a does-not-fit error", tc.name)
		}
	}
}

func TestModuleAreaAndDensity(t *testing.T) {
	m := &Module{Name: "x", W: 10, H: 20, Power: 2}
	if m.Area() != 200 {
		t.Fatal("area")
	}
	if m.PowerDensity() != 0.01 {
		t.Fatal("density")
	}
}

func TestSoftResizePreservesArea(t *testing.T) {
	m := &Module{Name: "s", Kind: Soft, W: 10, H: 10, MinAspect: 0.25, MaxAspect: 4}
	area := m.Area()
	for _, ar := range []float64{0.25, 0.5, 1, 2, 4} {
		m.Resize(ar)
		if math.Abs(m.Area()-area) > 1e-6 {
			t.Fatalf("aspect %v: area drifted to %v", ar, m.Area())
		}
		if math.Abs(m.W/m.H-ar) > 1e-6 {
			t.Fatalf("aspect %v: got ratio %v", ar, m.W/m.H)
		}
	}
}

func TestSoftResizeClamps(t *testing.T) {
	m := &Module{Name: "s", Kind: Soft, W: 10, H: 10, MinAspect: 0.5, MaxAspect: 2}
	m.Resize(100)
	if math.Abs(m.W/m.H-2) > 1e-9 {
		t.Fatalf("ratio %v not clamped to 2", m.W/m.H)
	}
	m.Resize(0.001)
	if math.Abs(m.W/m.H-0.5) > 1e-9 {
		t.Fatalf("ratio %v not clamped to 0.5", m.W/m.H)
	}
}

func TestHardResizeIsNoop(t *testing.T) {
	m := &Module{Name: "h", Kind: Hard, W: 10, H: 20}
	m.Resize(1)
	if m.W != 10 || m.H != 20 {
		t.Fatal("hard module must not resize")
	}
}

func TestRotate(t *testing.T) {
	m := &Module{Name: "h", Kind: Hard, W: 10, H: 20}
	m.Rotate()
	if m.W != 20 || m.H != 10 {
		t.Fatal("rotate failed")
	}
}

func TestDesignAggregates(t *testing.T) {
	d := smallDesign()
	if math.Abs(d.TotalPower()-1.75) > 1e-12 {
		t.Fatalf("power %v", d.TotalPower())
	}
	if d.TotalModuleArea() != 200+100+100 {
		t.Fatalf("area %v", d.TotalModuleArea())
	}
	if d.OutlineArea() != 20000 {
		t.Fatalf("outline area %v", d.OutlineArea())
	}
	if math.Abs(d.Utilization()-0.02) > 1e-12 {
		t.Fatalf("utilization %v", d.Utilization())
	}
	if d.HardCount() != 1 || d.SoftCount() != 2 {
		t.Fatal("hard/soft counts")
	}
}

func TestModuleIndex(t *testing.T) {
	d := smallDesign()
	if d.ModuleIndex("b") != 1 {
		t.Fatal("index of b")
	}
	if d.ModuleIndex("zz") != -1 {
		t.Fatal("missing module should be -1")
	}
}

func TestNetsOfModule(t *testing.T) {
	d := smallDesign()
	nets := d.NetsOfModule(0)
	if len(nets) != 2 || nets[0] != 0 || nets[1] != 1 {
		t.Fatalf("got %v", nets)
	}
	if got := d.NetsOfModule(2); len(got) != 2 {
		t.Fatalf("got %v", got)
	}
}

func TestAdjacencyCount(t *testing.T) {
	d := smallDesign()
	adj := d.AdjacencyCount()
	if adj[[2]int{0, 1}] != 2 {
		t.Fatalf("pair (0,1): %d", adj[[2]int{0, 1}])
	}
	if adj[[2]int{0, 2}] != 1 || adj[[2]int{1, 2}] != 1 {
		t.Fatal("pairs with c")
	}
}

func TestDegreeHistogram(t *testing.T) {
	d := smallDesign()
	h := d.DegreeHistogram()
	if h[2] != 2 || h[3] != 1 {
		t.Fatalf("got %v", h)
	}
}

func TestCloneIsDeep(t *testing.T) {
	d := smallDesign()
	c := d.Clone()
	c.Modules[0].W = 99 // still fits the 100x100 outline, so c validates
	c.Nets[0].Modules[0] = 2
	c.Terminals[0].X = 100
	if d.Modules[0].W == 99 || d.Nets[0].Modules[0] == 2 || d.Terminals[0].X == 100 {
		t.Fatal("clone aliases source")
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSortedModuleNames(t *testing.T) {
	d := smallDesign()
	names := d.SortedModuleNames()
	if len(names) != 3 || names[0] != "a" || names[2] != "c" {
		t.Fatalf("got %v", names)
	}
}

func TestPropertyResizeAreaInvariant(t *testing.T) {
	f := func(w, h, aspect float64) bool {
		w = 1 + math.Mod(math.Abs(w), 100)
		h = 1 + math.Mod(math.Abs(h), 100)
		aspect = 0.1 + math.Mod(math.Abs(aspect), 10)
		if math.IsNaN(w) || math.IsNaN(h) || math.IsNaN(aspect) {
			return true
		}
		m := &Module{Name: "s", Kind: Soft, W: w, H: h, MinAspect: 0.1, MaxAspect: 10.1}
		before := m.Area()
		m.Resize(aspect)
		return math.Abs(m.Area()-before) < 1e-6*before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
