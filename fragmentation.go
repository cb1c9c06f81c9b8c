package mosaic

import (
	"context"
	"fmt"
	"math/rand"

	"mosaic/internal/alloc"
	"mosaic/internal/buddy"
	"mosaic/internal/core"
	"mosaic/internal/obs"
	"mosaic/internal/sweep"
	"mosaic/internal/xxhash"
)

// The fragmentation experiment makes the paper's motivation executable
// (§1): huge pages and other contiguity-based reach techniques degrade as
// physical memory fragments — the paper cites a Redis workload whose 29%
// huge-page gain turns into an 11% loss at 50% fragmentation — while
// mosaic needs no contiguity at all.
//
// Fragmentation severity is modeled by the granularity at which the
// previous tenants' memory was freed: a fresh machine frees whole 2 MiB
// chunks (order 9), a long-running one frees scattered 4 KiB pages
// (order 0). At each severity we free the same fraction of memory and ask
// both allocators to back a new region of that size.

// FragmentationOptions parameterizes the experiment.
type FragmentationOptions struct {
	// Frames is the physical memory size (default 1<<14 frames = 64 MiB),
	// a whole number of 2 MiB huge pages.
	Frames int
	// FreeFrac is the fraction of memory freed before the new region
	// faults in (default 0.5 — the paper's "50% fragmented" point).
	FreeFrac float64
	// ChunkOrders are the severities: memory was freed in aligned chunks
	// of 2^order frames (default 9, 6, 4, 2, 0; 9 = unfragmented).
	ChunkOrders []int
	// Seed drives the fragmentation pattern.
	Seed uint64
	// Workers bounds the severity fan-out (0 = GOMAXPROCS, 1 = the exact
	// sequential path); each severity derives its RNG from Seed and its
	// index, so rows are independent.
	Workers int
	// Progress, when non-nil, receives a live status line per severity.
	Progress *obs.Progress
}

// FragmentationRow is one severity level's outcome.
type FragmentationRow struct {
	// ChunkOrder is the contiguity of the freed memory (2^order frames).
	ChunkOrder int
	// UnusableIndex is Linux's fragmentation metric at huge-page order:
	// the fraction of free memory unusable for 2 MiB allocations.
	UnusableIndex float64
	// HugeBackedPct is the share of the new region 2 MiB pages can back.
	HugeBackedPct float64
	// CompactionCopies is the page migrations needed to back the region
	// fully with huge pages (-1 if compaction cannot succeed).
	CompactionCopies int
	// MosaicBackedPct is the share of the same region the mosaic allocator
	// places in an equally occupied memory (conflicts excluded).
	MosaicBackedPct float64
	// MosaicCopies is the page migrations mosaic needs — always zero; the
	// column exists to make the comparison explicit.
	MosaicCopies int
	// HugeTLBEntries is the number of TLB entries needed to map the new
	// region with the huge pages obtained plus 4 KiB pages for the rest.
	HugeTLBEntries int
	// MosaicTLBEntries is the number of Mosaic-4 TLB entries for the same
	// region — constant regardless of fragmentation.
	MosaicTLBEntries int
}

// Fragmentation runs the experiment: at each severity it fragments a
// buddy-managed memory, tries to back a new region with huge pages
// (counting the compaction bill for full backing), and runs the mosaic
// allocator at identical occupancy for comparison.
func Fragmentation(opt FragmentationOptions) ([]FragmentationRow, error) {
	if opt.Frames == 0 {
		opt.Frames = 1 << 14
	}
	if opt.Frames < 1<<buddy.MaxOrder || opt.Frames%(1<<buddy.MaxOrder) != 0 {
		return nil, fmt.Errorf("mosaic: fragmentation experiment needs a positive multiple of %d frames, got %d", 1<<buddy.MaxOrder, opt.Frames)
	}
	if opt.FreeFrac == 0 {
		opt.FreeFrac = 0.5
	}
	if !(opt.FreeFrac > 0 && opt.FreeFrac <= 1) {
		return nil, fmt.Errorf("mosaic: free fraction %v out of (0,1]", opt.FreeFrac)
	}
	if len(opt.ChunkOrders) == 0 {
		opt.ChunkOrders = []int{9, 6, 4, 2, 0}
	}
	for _, chunk := range opt.ChunkOrders {
		if chunk < 0 || chunk > buddy.MaxOrder {
			return nil, fmt.Errorf("mosaic: chunk order %d out of [0,%d]", chunk, buddy.MaxOrder)
		}
	}
	// Severities are independent — each derives its RNG and placement seed
	// from (Seed, index) alone — so they fan out across Options.Workers
	// goroutines and fold back in submission order.
	return sweep.Run(context.Background(), opt.ChunkOrders,
		func(_ context.Context, i, chunk int) (FragmentationRow, error) {
			rng := rand.New(rand.NewSource(int64(opt.Seed)*31 + int64(i)))
			row := FragmentationRow{ChunkOrder: chunk}

			// --- Contiguity side: fill memory, then free FreeFrac of it in
			// aligned 2^chunk-frame runs at random positions.
			freeRuns := fragmentBuddy(opt.Frames, opt.FreeFrac, chunk, rng)
			bd := rebuildFragmented(opt.Frames, freeRuns, chunk)
			row.UnusableIndex = bd.UnusableIndex(buddy.MaxOrder)

			// Fault a region the size of free memory, preferring huge pages.
			regionPages := bd.FreeFrames()
			hugeWanted := regionPages >> buddy.MaxOrder
			hugeGot := 0
			for h := 0; h < hugeWanted; h++ {
				if _, ok := bd.Alloc(buddy.MaxOrder); !ok {
					break
				}
				hugeGot++
			}
			if hugeWanted > 0 {
				row.HugeBackedPct = 100 * float64(hugeGot<<buddy.MaxOrder) / float64(regionPages)
			}
			row.HugeTLBEntries = hugeGot + (regionPages - hugeGot<<buddy.MaxOrder)
			row.MosaicTLBEntries = (regionPages + 3) / 4 // arity-4 ToCs
			// Price full huge backing on the pre-trial state.
			pre := rebuildFragmented(opt.Frames, freeRuns, chunk)
			copies, feasible := pre.CompactionCost(buddy.MaxOrder, hugeWanted)
			if feasible {
				row.CompactionCopies = copies
			} else {
				row.CompactionCopies = -1
			}

			// --- Mosaic side: same occupancy, no contiguity needed.
			mem := alloc.NewMemory(opt.Frames, core.DefaultGeometry, xxhash.NewPlacement(opt.Seed+uint64(i)))
			occupied := mem.NumFrames() - int(opt.FreeFrac*float64(mem.NumFrames()))
			vpn := core.VPN(0)
			for mem.Used() < occupied {
				if _, err := mem.Place(1, vpn, 1, 0); err != nil {
					return FragmentationRow{}, fmt.Errorf("mosaic: background fill conflicted at %.1f%% utilization", 100*mem.Utilization())
				}
				vpn++
			}
			region := int(opt.FreeFrac * float64(mem.NumFrames()))
			placed := 0
			for p := 0; p < region; p++ {
				if _, err := mem.Place(2, core.VPN(p), 1, 0); err == nil {
					placed++
				}
			}
			row.MosaicBackedPct = 100 * float64(placed) / float64(region)
			row.MosaicCopies = 0
			return row, nil
		},
		sweep.Options{Workers: opt.Workers, Progress: opt.Progress, Name: "fragmentation"})
}

// fragmentBuddy picks which aligned 2^chunk runs end up free when freeFrac
// of memory is released at that granularity.
func fragmentBuddy(frames int, freeFrac float64, chunk int, rng *rand.Rand) []core.PFN {
	runFrames := 1 << chunk
	numRuns := frames / runFrames
	bases := make([]core.PFN, numRuns)
	for r := range bases {
		bases[r] = core.PFN(r * runFrames)
	}
	rng.Shuffle(len(bases), func(a, b int) { bases[a], bases[b] = bases[b], bases[a] })
	wantFree := int(freeFrac * float64(frames))
	var free []core.PFN
	for _, b := range bases {
		if len(free)*runFrames >= wantFree {
			break
		}
		free = append(free, b)
	}
	return free
}

// rebuildFragmented constructs a buddy allocator whose free memory is
// exactly the given runs: fill everything with single pages, then free the
// runs page by page (coalescing restores each run).
func rebuildFragmented(frames int, freeRuns []core.PFN, chunk int) *buddy.Allocator {
	bd := buddy.New(frames)
	for {
		if _, ok := bd.Alloc(0); !ok {
			break
		}
	}
	runFrames := uint64(1) << chunk
	for _, base := range freeRuns {
		for p := uint64(0); p < runFrames; p++ {
			bd.Free(base.Add(p))
		}
	}
	return bd
}
