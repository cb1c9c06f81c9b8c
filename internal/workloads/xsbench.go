package workloads

import (
	"math/rand"
	"sort"

	"mosaic/internal/core"
	"mosaic/internal/rng"
	"mosaic/internal/trace"
)

// Sub-stream salts: the ASCII spellings "xsbench" and "lookups", preserving
// the seeding convention (and therefore the exact reference streams) of the
// pre-rng construction.
const (
	xsbenchGridSalt   = 0x787362656E6368
	xsbenchLookupSalt = 0x6C6F6F6B757073
)

// XSBenchConfig parameterizes the XSBench workload.
type XSBenchConfig struct {
	// TargetBytes sizes the unionized energy grid. Ignored if GridPoints
	// is set.
	TargetBytes uint64
	// Nuclides is the number of nuclides (XSBench's large problem uses 68
	// fuel nuclides plus cladding/moderator isotopes; default 68).
	Nuclides int
	// GridPoints is the number of energy gridpoints per nuclide.
	GridPoints int
	// Lookups is the number of macroscopic cross-section lookups.
	Lookups int
	// Seed drives energies and material sampling.
	Seed uint64
}

// XSBench is the paper's fourth workload: the Monte Carlo neutron-transport
// cross-section lookup kernel. Each lookup binary-searches the unionized
// energy grid, then gathers two bracketing gridpoints of cross-section data
// for every nuclide in the sampled material — a scatter of dependent reads
// across a multi-gigabyte (here scaled-down) table, which is what makes the
// real application TLB-bound.
type XSBench struct {
	cfg   XSBenchConfig
	arena *Arena

	unionized int // total unionized gridpoints = Nuclides × GridPoints

	egrid *F64Array // sorted unionized energies [unionized]
	index *U32Array // unionized → per-nuclide gridpoint index [unionized × Nuclides]
	grids *F64Array // per-nuclide data [Nuclides × GridPoints × xsValues]

	materials [][]int // nuclide lists per material
}

// xsValues is the number of cross-section channels per gridpoint (total,
// elastic, absorption, fission, nu-fission) plus the energy itself.
const xsValues = 6

// numMaterials matches XSBench's 12 reactor materials.
const numMaterials = 12

// NewXSBench builds the workload, including the (silent) initialization of
// the grids — XSBench times only the lookup kernel, so initialization does
// not emit references.
func NewXSBench(cfg XSBenchConfig) *XSBench {
	if cfg.Nuclides == 0 {
		cfg.Nuclides = 68
	}
	if cfg.GridPoints == 0 {
		if cfg.TargetBytes == 0 {
			cfg.TargetBytes = 32 << 20
		}
		// Bytes per gridpoint across all structures: index grid N×4 per
		// unionized point × N points per gridpoint, egrid N×8, data 48×N.
		per := uint64(cfg.Nuclides*cfg.Nuclides*4 + cfg.Nuclides*8 + cfg.Nuclides*48)
		cfg.GridPoints = int(cfg.TargetBytes / per)
		if cfg.GridPoints < 16 {
			cfg.GridPoints = 16
		}
	}
	x := &XSBench{cfg: cfg, arena: NewArena(0)}
	x.unionized = cfg.Nuclides * cfg.GridPoints
	x.egrid = NewF64Array(x.arena, x.unionized)
	x.index = NewU32Array(x.arena, x.unionized*cfg.Nuclides)
	x.grids = NewF64Array(x.arena, cfg.Nuclides*cfg.GridPoints*xsValues)
	if cfg.Lookups == 0 {
		// Enough lookups to sweep the index grid (the footprint's bulk)
		// several times — XSBench's particle counts similarly dwarf the
		// grid size.
		pages := int(x.arena.Size() >> core.PageShift)
		cfg.Lookups = 5 * pages
		if cfg.Lookups < 2*cfg.GridPoints {
			cfg.Lookups = 2 * cfg.GridPoints
		}
	}
	x.cfg = cfg
	x.initialize(rng.Derive(cfg.Seed, xsbenchGridSalt))
	return x
}

// initialize fills the grids the way XSBench's generate_grids does, without
// emitting references (XSBench measures only the lookup kernel). rnd drives
// grid energies and material composition.
func (x *XSBench) initialize(rnd *rand.Rand) {
	n, gp := x.cfg.Nuclides, x.cfg.GridPoints

	// Per-nuclide energy grids: sorted uniform randoms.
	nucEnergy := make([][]float64, n)
	for i := range nucEnergy {
		es := make([]float64, gp)
		for j := range es {
			es[j] = rnd.Float64()
		}
		sort.Float64s(es)
		nucEnergy[i] = es
		for j := 0; j < gp; j++ {
			base := (i*gp + j) * xsValues
			x.grids.Data[base] = es[j]
			for k := 1; k < xsValues; k++ {
				x.grids.Data[base+k] = rnd.Float64()
			}
		}
	}

	// Unionized grid: merge of all nuclide energies (here: concatenate and
	// sort, identical result).
	type point struct {
		e   float64
		nuc int
		idx int
	}
	pts := make([]point, 0, x.unionized)
	for i, es := range nucEnergy {
		for j, e := range es {
			pts = append(pts, point{e, i, j})
		}
	}
	sort.Slice(pts, func(a, b int) bool { return pts[a].e < pts[b].e })
	// For each unionized point, record each nuclide's current gridpoint
	// index (the XSBench acceleration structure).
	cursor := make([]int, n)
	for u, p := range pts {
		x.egrid.Data[u] = p.e
		cursor[p.nuc] = p.idx
		for i := 0; i < n; i++ {
			x.index.Data[u*n+i] = uint32(cursor[i])
		}
	}

	// Materials: XSBench's 12 reactor materials with descending nuclide
	// counts (fuel is by far the largest).
	counts := []int{34, 27, 21, 21, 21, 21, 21, 9, 9, 5, 4, 4}
	x.materials = make([][]int, numMaterials)
	for m := range x.materials {
		c := counts[m]
		if c > n {
			c = n
		}
		perm := rnd.Perm(n)[:c]
		x.materials[m] = perm
	}
}

// Name implements Workload.
func (x *XSBench) Name() string { return "xsbench" }

// FootprintBytes implements Workload.
func (x *XSBench) FootprintBytes() uint64 { return x.arena.Size() }

// GridPoints is the per-nuclide gridpoint count.
func (x *XSBench) GridPoints() int { return x.cfg.GridPoints }

// Run implements Workload: the XSBench lookup kernel. Each lookup samples
// an energy and a material, binary-searches the unionized grid, and gathers
// the bracketing cross-section data of every nuclide in the material.
func (x *XSBench) Run(b *trace.Batcher) {
	rnd := rng.Derive(x.cfg.Seed, xsbenchLookupSalt)
	macro := make([]float64, xsValues-1)
	for i := 0; i < x.cfg.Lookups && !b.Done(); i++ {
		e := rnd.Float64()
		mat := rnd.Intn(numMaterials)
		x.lookup(b, e, mat, macro)
	}
}

// lookup computes the macroscopic cross section for (energy, material).
func (x *XSBench) lookup(sink *trace.Batcher, e float64, mat int, macro []float64) {
	n, gp := x.cfg.Nuclides, x.cfg.GridPoints
	for k := range macro {
		macro[k] = 0
	}
	// Binary search the unionized energy grid, emitting each probe.
	lo, hi := 0, x.unionized
	for lo < hi {
		mid := (lo + hi) / 2
		if x.egrid.Get(sink, mid) < e {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	u := lo
	if u >= x.unionized {
		u = x.unionized - 1
	}
	for _, nuc := range x.materials[mat] {
		// One index-grid read locates this nuclide's bracketing gridpoint.
		j := int(x.index.Get(sink, u*n+nuc))
		j2 := j + 1
		if j2 >= gp {
			j2 = gp - 1
		}
		base1 := (nuc*gp + j) * xsValues
		base2 := (nuc*gp + j2) * xsValues
		e1 := x.grids.Get(sink, base1)
		e2 := x.grids.Get(sink, base2)
		f := 0.5
		if e2 != e1 {
			f = (e - e1) / (e2 - e1)
		}
		// Gather and interpolate all five cross-section channels.
		for k := 1; k < xsValues; k++ {
			lo := x.grids.Get(sink, base1+k)
			hi := x.grids.Get(sink, base2+k)
			macro[k-1] += lo + f*(hi-lo)
		}
	}
}
