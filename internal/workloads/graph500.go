package workloads

import (
	"fmt"
	"math/rand"

	"mosaic/internal/rng"
	"mosaic/internal/trace"
)

// Graph500Config parameterizes the Graph500 workload.
type Graph500Config struct {
	// TargetBytes sizes the graph so the total footprint (edge list + CSR +
	// BFS state) lands near this. Ignored if Scale or Vertices is set.
	TargetBytes uint64
	// Scale is log2 of the vertex count (Graph500 SCALE). Zero derives the
	// vertex count from TargetBytes instead. The benchmark spec uses
	// power-of-two scales; TargetBytes sizing uses an exact vertex count
	// so footprint ladders (Tables 3/4) are not quantized to 2× steps.
	Scale int
	// Vertices sets the vertex count directly (overrides TargetBytes).
	Vertices int
	// EdgeFactor is edges per vertex (Graph500 default 16).
	EdgeFactor int
	// Roots is the number of BFS traversals (Graph500 runs 64; default 4
	// keeps simulation time proportionate).
	Roots int
	// Seed drives the Kronecker generator and root selection.
	Seed uint64
}

// Graph500 is the paper's first workload: the Graph500 benchmark in its
// seq-csr flavour — Kronecker (R-MAT) edge generation, CSR construction
// (kernel 1), and queue-based breadth-first search (kernel 2). Graph
// traversal is the canonical TLB-hostile pattern: pointer chasing over a
// working set far larger than TLB reach, with strong virtual locality in
// the CSR arrays but none in the visit order.
type Graph500 struct {
	cfg      Graph500Config
	arena    *Arena
	vertices int
	edges    int
	bits     int // R-MAT recursion depth: ceil(log2(vertices))

	// Simulated-heap arrays (Graph500 seq-csr layout).
	edgeSrc *U64Array // edge list, kernel-1 input
	edgeDst *U64Array
	xadj    *U64Array // CSR row offsets (V+1)
	adjncy  *U64Array // CSR adjacency (2E, both directions)
	parent  *U64Array // BFS tree
	queue   *U64Array // BFS frontier queue
}

// NewGraph500 builds the workload (allocating its simulated heap but not
// yet generating the graph; generation happens in Run and is part of the
// emitted reference stream, as in the real benchmark).
func NewGraph500(cfg Graph500Config) *Graph500 {
	if cfg.EdgeFactor == 0 {
		cfg.EdgeFactor = 16
	}
	if cfg.Roots == 0 {
		cfg.Roots = 4
	}
	switch {
	case cfg.Vertices != 0:
		// explicit
	case cfg.Scale != 0:
		if cfg.Scale < 4 || cfg.Scale > 30 {
			panic(fmt.Sprintf("workloads: graph500 scale %d out of range [4,30]", cfg.Scale))
		}
		cfg.Vertices = 1 << cfg.Scale
	default:
		// Bytes per vertex: edge list 2×8×EF, adjncy 2×8×EF, xadj 8,
		// parent 8, queue 8.
		perVertex := uint64(cfg.EdgeFactor*32 + 24)
		if cfg.TargetBytes == 0 {
			cfg.TargetBytes = 32 << 20
		}
		if v := cfg.TargetBytes / perVertex; v < 1<<32 {
			cfg.Vertices = int(v)
		} else {
			// A 4G-vertex graph is far beyond any simulated footprint;
			// clamping keeps the narrowing safe for absurd targets.
			cfg.Vertices = 1 << 32
		}
	}
	if cfg.Vertices < 16 {
		cfg.Vertices = 16
	}
	g := &Graph500{cfg: cfg, arena: NewArena(0)}
	g.vertices = cfg.Vertices
	for 1<<g.bits < g.vertices {
		g.bits++
	}
	g.edges = g.vertices * cfg.EdgeFactor
	g.edgeSrc = NewU64Array(g.arena, g.edges)
	g.edgeDst = NewU64Array(g.arena, g.edges)
	g.xadj = NewU64Array(g.arena, g.vertices+1)
	g.adjncy = NewU64Array(g.arena, 2*g.edges)
	g.parent = NewU64Array(g.arena, g.vertices)
	g.queue = NewU64Array(g.arena, g.vertices)
	return g
}

// Name implements Workload.
func (g *Graph500) Name() string { return "graph500" }

// FootprintBytes implements Workload.
func (g *Graph500) FootprintBytes() uint64 { return g.arena.Size() }

// Vertices is the vertex count (2^Scale).
func (g *Graph500) Vertices() int { return g.vertices }

// Run implements Workload: edge generation, kernel 1 (CSR construction),
// then Roots× kernel 2 (BFS). Every phase stops once the budget is spent,
// so the later phases fall through without emitting.
func (g *Graph500) Run(b *trace.Batcher) {
	rnd := rng.Derive(g.cfg.Seed, 0x6772617068353030) // "graph500"
	g.generateEdges(b, rnd)
	g.buildCSR(b)
	for r := 0; r < g.cfg.Roots && !b.Done(); r++ {
		root := rnd.Intn(g.vertices)
		g.bfs(b, root)
	}
}

// rmatParams are the standard Graph500 Kronecker probabilities.
const (
	rmatA = 0.57
	rmatB = 0.19
	rmatC = 0.19
	// rmatD = 0.05 (implicit remainder)
)

// generateEdges fills the edge list with R-MAT samples, writing each edge
// endpoint to the simulated heap. Endpoints ≥ the vertex count (possible
// when it is not a power of two) are rejected and resampled.
func (g *Graph500) generateEdges(sink *trace.Batcher, rng *rand.Rand) {
	for i := 0; i < g.edges && !sink.Done(); i++ {
		var src, dst int
		for {
			src, dst = 0, 0
			for bit := g.bits - 1; bit >= 0; bit-- {
				p := rng.Float64()
				switch {
				case p < rmatA:
					// top-left: no bits set
				case p < rmatA+rmatB:
					dst |= 1 << bit
				case p < rmatA+rmatB+rmatC:
					src |= 1 << bit
				default:
					src |= 1 << bit
					dst |= 1 << bit
				}
			}
			if src < g.vertices && dst < g.vertices {
				break
			}
		}
		g.edgeSrc.Set(sink, i, uint64(src))
		g.edgeDst.Set(sink, i, uint64(dst))
	}
}

// buildCSR is Graph500 kernel 1: degree counting, prefix sum, and edge
// scattering, all over the simulated heap. Each undirected edge is stored
// in both directions.
func (g *Graph500) buildCSR(sink *trace.Batcher) {
	// Degree count (into xadj[1..V]).
	for i := 0; i < g.edges && !sink.Done(); i++ {
		s := int(g.edgeSrc.Get(sink, i))
		d := int(g.edgeDst.Get(sink, i))
		g.xadj.Set(sink, s+1, g.xadj.Get(sink, s+1)+1)
		g.xadj.Set(sink, d+1, g.xadj.Get(sink, d+1)+1)
	}
	// Prefix sum.
	for v := 1; v <= g.vertices && !sink.Done(); v++ {
		g.xadj.Set(sink, v, g.xadj.Get(sink, v)+g.xadj.Get(sink, v-1))
	}
	// Scatter, using parent[] as a temporary cursor array (as seq-csr does
	// with a scratch array).
	for v := 0; v < g.vertices && !sink.Done(); v++ {
		g.parent.Set(sink, v, g.xadj.Get(sink, v))
	}
	for i := 0; i < g.edges && !sink.Done(); i++ {
		s := int(g.edgeSrc.Get(sink, i))
		d := int(g.edgeDst.Get(sink, i))
		cs := g.parent.Get(sink, s)
		g.adjncy.Set(sink, g.adjOff(cs), uint64(d))
		g.parent.Set(sink, s, cs+1)
		cd := g.parent.Get(sink, d)
		g.adjncy.Set(sink, g.adjOff(cd), uint64(s))
		g.parent.Set(sink, d, cd+1)
	}
}

// adjOff converts a stored adjacency offset — a kernel-1 write cursor or an
// xadj prefix entry, both at most len(adjncy) — back to an int index.
// Offsets are in range by construction; it panics on a corrupted arena
// value rather than narrowing it silently.
func (g *Graph500) adjOff(x uint64) int {
	if x > uint64(g.adjncy.Len()) {
		panic(fmt.Sprintf("workloads: adjacency offset %d exceeds %d", x, g.adjncy.Len()))
	}
	return int(x)
}

// noParent marks unvisited vertices.
const noParent = ^uint64(0)

// bfs is Graph500 kernel 2: queue-based breadth-first search from root.
func (g *Graph500) bfs(sink *trace.Batcher, root int) {
	for v := 0; v < g.vertices && !sink.Done(); v++ {
		g.parent.Set(sink, v, noParent)
	}
	g.parent.Set(sink, root, uint64(root))
	g.queue.Set(sink, 0, uint64(root))
	head, tail := 0, 1
	for head < tail && !sink.Done() {
		u := int(g.queue.Get(sink, head))
		head++
		start := g.adjOff(g.xadj.Get(sink, u))
		end := g.adjOff(g.xadj.Get(sink, u+1))
		for k := start; k < end; k++ {
			v := int(g.adjncy.Get(sink, k))
			if g.parent.Get(sink, v) == noParent {
				g.parent.Set(sink, v, uint64(u))
				g.queue.Set(sink, tail, uint64(v))
				tail++
			}
		}
	}
}

// Validate checks BFS-tree invariants after a Run (test hook): every
// visited vertex's parent is itself visited, and the root is its own
// parent.
func (g *Graph500) Validate() error {
	visited := 0
	for v := 0; v < g.vertices; v++ {
		p := g.parent.Data[v]
		if p == noParent {
			continue
		}
		visited++
		if p >= uint64(g.vertices) {
			return fmt.Errorf("graph500: vertex %d has out-of-range parent %d", v, p)
		}
		if g.parent.Data[p] == noParent {
			return fmt.Errorf("graph500: vertex %d's parent %d is unvisited", v, p)
		}
	}
	if visited == 0 {
		return fmt.Errorf("graph500: BFS visited no vertices")
	}
	return nil
}
