package vm

// Differential testing of the VM against an executable reference model of
// demand-paging semantics. The model knows nothing about iceberg buckets,
// ghosts, watermarks, or LRU lists — only the invariants any correct
// paging implementation must satisfy:
//
//   - a page is in exactly one of three states: unmapped, resident, swapped;
//   - the first touch of an unmapped page is a minor fault, a touch of a
//     swapped page is a major fault, a touch of a resident page is a hit;
//   - resident pages never exceed physical frames;
//   - page-outs and page-ins match the device's counters;
//   - a resident page's translation is stable between evictions
//     (stability: mosaic never migrates resident pages).

import (
	"math/rand"
	"testing"

	"mosaic/internal/core"
)

type modelState uint8

const (
	mUnmapped modelState = iota
	mResident
	mSwapped
)

type pageModel struct {
	state modelState
	pfn   core.PFN
}

func runDifferential(t *testing.T, sys *System, ops int, seed int64, vpnSpace int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	model := map[core.VPN]*pageModel{}
	var expectedOuts uint64

	syncEvictions := func() {
		// Reconcile evictions: any model-resident page that is no longer
		// resident in the system must have been paged out.
		for vpn, pm := range model {
			if pm.state != mResident {
				continue
			}
			if !sys.Resident(1, vpn) {
				if !swappedRecord(sys, vpn) {
					t.Fatalf("page %#x vanished: not resident, not swapped", vpn)
				}
				pm.state = mSwapped
				expectedOuts++
			}
		}
	}

	for i := 0; i < ops; i++ {
		vpn := core.VPN(rng.Intn(vpnSpace))
		pm, ok := model[vpn]
		if !ok {
			pm = &pageModel{}
			model[vpn] = pm
		}

		if rng.Intn(20) == 0 && pm.state != mUnmapped {
			// Occasionally unmap.
			if !sys.Unmap(1, vpn) {
				t.Fatalf("op %d: Unmap of mapped page %#x returned false", i, vpn)
			}
			pm.state = mUnmapped
			continue
		}

		write := rng.Intn(3) == 0
		res := sys.Touch(1, vpn, write)
		switch pm.state {
		case mUnmapped:
			if res != MinorFault {
				t.Fatalf("op %d: touch of unmapped %#x = %v, want minor-fault", i, vpn, res)
			}
		case mResident:
			if res != Hit {
				t.Fatalf("op %d: touch of resident %#x = %v, want hit", i, vpn, res)
			}
			// Stability: the translation must not have moved.
			if got, _ := sys.Translate(1, vpn); got != pm.pfn {
				t.Fatalf("op %d: resident page %#x migrated from frame %d to %d", i, vpn, pm.pfn, got)
			}
		case mSwapped:
			if res != MajorFault {
				t.Fatalf("op %d: touch of swapped %#x = %v, want major-fault", i, vpn, res)
			}
		}
		pfn, resident := sys.Translate(1, vpn)
		if !resident {
			t.Fatalf("op %d: page %#x not resident after touch", i, vpn)
		}
		pm.state = mResident
		pm.pfn = pfn

		// The touch may have evicted other pages; reconcile.
		syncEvictions()

		// Global invariants.
		if sys.Used() > sys.NumFrames() {
			t.Fatalf("op %d: %d resident pages exceed %d frames", i, sys.Used(), sys.NumFrames())
		}
		if outs := sys.Device().PageOuts(); outs != expectedOuts {
			t.Fatalf("op %d: device reports %d page-outs, model %d", i, outs, expectedOuts)
		}
	}

	// Final full reconciliation: every model state matches the system.
	resident, swapped := 0, 0
	for vpn, pm := range model {
		sysResident := sys.Resident(1, vpn)
		sysSwapped := swappedRecord(sys, vpn)
		switch pm.state {
		case mUnmapped:
			if sysResident || sysSwapped {
				t.Fatalf("unmapped page %#x: resident=%v swapped=%v", vpn, sysResident, sysSwapped)
			}
		case mResident:
			if !sysResident || sysSwapped {
				t.Fatalf("resident page %#x: resident=%v swapped=%v", vpn, sysResident, sysSwapped)
			}
			resident++
		case mSwapped:
			if sysResident || !sysSwapped {
				t.Fatalf("swapped page %#x: resident=%v swapped=%v", vpn, sysResident, sysSwapped)
			}
			swapped++
		}
	}
	if resident != sys.Used() {
		t.Fatalf("model counts %d resident, system %d", resident, sys.Used())
	}
	if got := len(records(t, sys, 1, pageSwapped)); swapped != got {
		t.Fatalf("model counts %d swapped, system %d", swapped, got)
	}
}

// swappedRecord reports whether ASID 1's record of vpn is swapped out.
func swappedRecord(sys *System, vpn core.VPN) bool {
	c, i := sys.Space(1).lookup(vpn)
	return c != nil && c.state[i] == pageSwapped
}

func TestDifferentialModelMosaic(t *testing.T) {
	// Oversubscribed mosaic memory: plenty of evictions, ghost reclaims,
	// conflicts, and major faults.
	s, err := New(Config{Frames: 512, Mode: ModeMosaic, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	runDifferential(t, s, 40000, 3, 800)
	if s.Metrics().CounterValue("vm.conflict") == 0 {
		t.Error("differential run exercised no associativity conflicts")
	}
}

func TestDifferentialModelMosaicNoHorizon(t *testing.T) {
	s, err := New(Config{Frames: 512, Mode: ModeMosaic, Seed: 4, DisableHorizon: true})
	if err != nil {
		t.Fatal(err)
	}
	runDifferential(t, s, 30000, 4, 800)
}

func TestDifferentialModelVanillaTwoList(t *testing.T) {
	s, err := New(Config{Frames: 512, Mode: ModeVanilla})
	if err != nil {
		t.Fatal(err)
	}
	runDifferential(t, s, 40000, 5, 800)
	if s.Device().PageOuts() == 0 {
		t.Error("differential run exercised no reclaim")
	}
}

func TestDifferentialModelUnderubscribed(t *testing.T) {
	// Fits in memory: no evictions may occur at all.
	s, err := New(Config{Frames: 2048, Mode: ModeMosaic, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	runDifferential(t, s, 20000, 7, 1500)
	if s.Device().TotalIO() != 0 {
		t.Errorf("swap I/O %d despite fitting in memory", s.Device().TotalIO())
	}
}
