// Package volt implements the paper's floorplanning-centric voltage
// assignment (Sec. 6.1): voltage volumes — the 3D generalization of voltage
// domains, spanning dies — are grown by breadth-first search over spatially
// adjacent modules, keeping track of the set of voltages feasible for every
// member under the timing constraints; a selection pass then partitions the
// design into volumes optimizing either for minimal power and volume count
// (power-aware mode) or for uniform power densities within and across
// volumes (TSC-aware mode).
//
// The three voltage options and their scalings are the paper's 90 nm values:
// 0.8 V (0.817x power, 1.56x delay), 1.0 V (reference), and 1.2 V
// (1.496x power, 0.83x delay).
package volt

import (
	"math"

	"repro/internal/floorplan"
	"repro/internal/timing"
)

// Level is one voltage option with its power and delay scaling.
type Level struct {
	V          float64
	PowerScale float64
	DelayScale float64
}

// Levels90nm are the paper's simulated options for the 90 nm node.
func Levels90nm() []Level {
	return []Level{
		{V: 0.8, PowerScale: 0.817, DelayScale: 1.56},
		{V: 1.0, PowerScale: 1.0, DelayScale: 1.0},
		{V: 1.2, PowerScale: 1.496, DelayScale: 0.83},
	}
}

// Mode selects the volume-selection objective.
type Mode int

const (
	// PowerAware minimizes overall power and the number of volumes
	// (the paper's baseline setup (i)).
	PowerAware Mode = iota
	// TSCAware minimizes the number of volumes and the standard deviation
	// of power densities within and across volumes (setup (ii)).
	TSCAware
)

// Config tunes the assignment.
type Config struct {
	Levels []Level
	Mode   Mode
	// TargetFactor relaxes the timing target: target = critical(1.0V) *
	// TargetFactor. Default 1.15 — modules with slack may be slowed for
	// power or uniformity.
	TargetFactor float64
	// MaxVolumeSize caps BFS growth (keeps volumes local; default 24).
	MaxVolumeSize int
	// DensityTolerance bounds, in TSC-aware mode, how far (relative to the
	// design's mean power density) a neighbour's density may sit from the
	// growing volume's mean before it is refused. Uniform volumes are the
	// paper's objective (i); the refusal fragments the partition, which is
	// why TSC-aware floorplanning ends up with many more volumes
	// (Table 2: +87%). Default 0.5.
	DensityTolerance float64
}

func (c *Config) defaults() {
	if c.Levels == nil {
		c.Levels = Levels90nm()
	}
	if c.TargetFactor == 0 {
		c.TargetFactor = 1.15
	}
	if c.MaxVolumeSize == 0 {
		c.MaxVolumeSize = 24
	}
	if c.DensityTolerance == 0 {
		c.DensityTolerance = 0.5
	}
}

// Volume is one selected voltage volume.
type Volume struct {
	Modules []int
	Level   Level
}

// Assignment is the result of Assign.
type Assignment struct {
	Volumes []Volume
	// LevelOf[m] is the selected level for module m.
	LevelOf []Level
	// PowerScale[m] and DelayScale[m] are the per-module scalings.
	PowerScale []float64
	DelayScale []float64
	// TotalPower is the scaled design power in W.
	TotalPower float64
	// Target is the timing target used for feasibility, ns.
	Target float64
}

// Assign computes voltage volumes for a placed layout. The timing analysis
// must have been produced at the 1.0 V reference (delayScale nil).
//
// Assign is the one-shot form of the engine: it builds a throwaway Assigner
// and runs a full rebuild. Callers refreshing the assignment
// repeatedly over small layout changes (the annealing loop) should hold an
// Assigner and use Refresh, which reuses every candidate tree whose inputs
// did not change.
func Assign(l *floorplan.Layout, ref *timing.Analysis, cfg Config) *Assignment {
	return NewAssigner(cfg).Assign(l, ref)
}

// scoreVolume ranks a candidate for the greedy partition. levels is the
// candidate's feasible-level bitmask; power holds the per-module nominal
// powers in W.
func scoreVolume(mods []int, levels uint32, cfg Config, dens []float64, globalMean float64, power []float64) float64 {
	size := float64(len(mods))
	switch cfg.Mode {
	case TSCAware:
		// Prefer larger volumes of uniform density (low intra-volume
		// spread), weighted toward the global mean (low inter-volume
		// gradients).
		sd := stdDensity(mods, dens)
		meanD := meanDensity(mods, dens)
		return size - 50*sd/(globalMean+1e-18) - 10*math.Abs(meanD-globalMean)/(globalMean+1e-18)
	default:
		// Power-aware: prefer volumes that can run at low voltage and are
		// large (fewer volumes overall).
		saving := 0.0
		lv := lowestLevel(levels, cfg.Levels)
		if lv != nil {
			for _, m := range mods {
				saving += power[m] * (1 - lv.PowerScale)
			}
		}
		return size + 100*saving
	}
}

// pickLevel selects the volume's voltage from its feasible set (a level
// bitmask).
func pickLevel(mods []int, levels uint32, cfg Config, dens []float64, globalMean float64) Level {
	// A level mask has at most 32 bits, so the feasible set fits on the
	// stack; the voltage refresh runs inside the annealing loop.
	var buf [32]Level
	feas := feasibleLevels(buf[:0], levels, cfg.Levels)
	if len(feas) == 0 {
		// Fall back to the reference level.
		for _, lv := range cfg.Levels {
			if lv.DelayScale == 1.0 {
				return lv
			}
		}
		return cfg.Levels[0]
	}
	if cfg.Mode == PowerAware {
		// Minimal power: lowest feasible voltage.
		best := feas[0]
		for _, lv := range feas[1:] {
			if lv.PowerScale < best.PowerScale {
				best = lv
			}
		}
		return best
	}
	// TSC-aware: choose the level that moves the volume's power density
	// closest to the global mean, smoothing inter-volume gradients — but
	// penalize power-raising levels, since injecting extra power is exactly
	// what the paper's approach avoids (its critique of the noise-injection
	// prior art; Table 2 reports only +5.4% power for TSC-aware runs).
	meanD := meanDensity(mods, dens)
	score := func(lv Level) float64 {
		gap := math.Abs(meanD*lv.PowerScale-globalMean) / (globalMean + 1e-18)
		if lv.PowerScale > 1 {
			gap += 5 * (lv.PowerScale - 1)
		}
		return gap
	}
	best := feas[0]
	bestGap := score(best)
	for _, lv := range feas[1:] {
		if gap := score(lv); gap < bestGap {
			best, bestGap = lv, gap
		}
	}
	return best
}

// Verify recomputes timing with the assignment applied and reports whether
// the scaled critical delay meets the target. Callers should bump volumes
// to the reference level and re-verify on failure; Repair does this.
func Verify(l *floorplan.Layout, asg *Assignment, p timing.Params) (*timing.Analysis, bool) {
	a := timing.Analyze(l, asg.DelayScale, p)
	return a, a.Critical <= asg.Target+1e-9
}

// Repair raises volumes to the 1.0 V reference, slowest-hop first, until the
// scaled timing meets the target. Returns the final analysis.
func Repair(l *floorplan.Layout, asg *Assignment, p timing.Params, cfg Config) *timing.Analysis {
	cfg.defaults()
	ref := refLevel(cfg.Levels)
	for iter := 0; iter <= len(asg.Volumes); iter++ {
		a, ok := Verify(l, asg, p)
		if ok {
			return a
		}
		// Find the volume containing the worst offender and reset it. On a
		// degenerate (empty) design there is no offender to blame — return
		// the analysis unchanged instead of indexing an empty slice.
		offenders := a.WorstPaths(1)
		if len(offenders) == 0 {
			return a
		}
		worst := offenders[0]
		fixed := false
		for vi := range asg.Volumes {
			for _, m := range asg.Volumes[vi].Modules {
				if m == worst && asg.Volumes[vi].Level.DelayScale > 1.0 {
					asg.setVolumeLevel(vi, ref, l)
					fixed = true
					break
				}
			}
			if fixed {
				break
			}
		}
		if !fixed {
			// Offender already at (or faster than) reference: timing is
			// limited by the floorplan, not the assignment.
			return a
		}
	}
	a, _ := Verify(l, asg, p)
	return a
}

func (asg *Assignment) setVolumeLevel(vi int, lv Level, l *floorplan.Layout) {
	asg.Volumes[vi].Level = lv
	for _, m := range asg.Volumes[vi].Modules {
		old := asg.PowerScale[m]
		asg.LevelOf[m] = lv
		asg.PowerScale[m] = lv.PowerScale
		asg.DelayScale[m] = lv.DelayScale
		asg.TotalPower += l.Design.Modules[m].Power * (lv.PowerScale - old)
	}
}

// IntraVolumeDensityStdDev returns the average within-volume power-density
// standard deviation — the paper's uniformity objective (i).
func (asg *Assignment) IntraVolumeDensityStdDev(l *floorplan.Layout) float64 {
	dens := make([]float64, len(l.Design.Modules))
	for m, mod := range l.Design.Modules {
		dens[m] = mod.PowerDensity() * asg.PowerScale[m]
	}
	s, cnt := 0.0, 0
	for _, v := range asg.Volumes {
		if len(v.Modules) < 2 {
			continue
		}
		s += stdDensity(v.Modules, dens)
		cnt++
	}
	if cnt == 0 {
		return 0
	}
	return s / float64(cnt)
}

// InterVolumeDensityStdDev returns the standard deviation of per-volume mean
// power densities — the paper's gradient objective (ii).
func (asg *Assignment) InterVolumeDensityStdDev(l *floorplan.Layout) float64 {
	dens := make([]float64, len(l.Design.Modules))
	for m, mod := range l.Design.Modules {
		dens[m] = mod.PowerDensity() * asg.PowerScale[m]
	}
	means := make([]float64, 0, len(asg.Volumes))
	for _, v := range asg.Volumes {
		means = append(means, meanDensity(v.Modules, dens))
	}
	return stdOf(means)
}

// --- helpers -----------------------------------------------------------------

// feasibleLevels expands a level bitmask (bit k = levels[k] feasible) into
// the corresponding levels, in level order, appending them to dst.
func feasibleLevels(dst []Level, mask uint32, levels []Level) []Level {
	for i := range levels {
		if mask&(1<<i) != 0 {
			dst = append(dst, levels[i])
		}
	}
	return dst
}

// lowestLevel returns the mask's level with the lowest power scale (nil for
// an empty mask); earlier levels win ties.
func lowestLevel(mask uint32, levels []Level) *Level {
	var best *Level
	for i := range levels {
		if mask&(1<<i) == 0 {
			continue
		}
		if best == nil || levels[i].PowerScale < best.PowerScale {
			best = &levels[i]
		}
	}
	return best
}

func refLevel(levels []Level) Level {
	for _, lv := range levels {
		if lv.DelayScale == 1.0 {
			return lv
		}
	}
	return levels[0]
}

func meanDensity(mods []int, dens []float64) float64 {
	if len(mods) == 0 {
		return 0
	}
	s := 0.0
	for _, m := range mods {
		s += dens[m]
	}
	return s / float64(len(mods))
}

func stdDensity(mods []int, dens []float64) float64 {
	if len(mods) < 2 {
		return 0
	}
	mean := meanDensity(mods, dens)
	ss := 0.0
	for _, m := range mods {
		d := dens[m] - mean
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(mods)))
}

func meanOf(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

func stdOf(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	mean := meanOf(v)
	ss := 0.0
	for _, x := range v {
		d := x - mean
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(v)))
}
