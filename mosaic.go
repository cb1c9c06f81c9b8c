// Package mosaic is a from-scratch reproduction of "Mosaic Pages: Big TLB
// Reach with Small Pages" (Gosakan, Han, et al., ASPLOS 2023).
//
// Mosaic pages increase TLB reach by compressing translations: hashing
// constrains each virtual page to h = 104 candidate physical frames, so a
// placement fits in a 7-bit compressed physical frame number (CPFN) and a
// single TLB entry holds the CPFNs of several virtually-contiguous pages.
// The constrained allocator is an Iceberg hash table over physical memory
// (stable, utilization ≈ 98% before the first conflict), and eviction under
// memory pressure uses Horizon LRU, which tracks ghost pages to match a
// fully-associative global LRU's behaviour.
//
// This package is the public facade over the subsystems in internal/:
//
//   - NewSystem gives the OS view — address spaces, demand paging, mosaic
//     or Linux-like vanilla memory management, swap accounting.
//   - NewSimulator gives the hardware view — the dual-TLB memory-system
//     simulator with radix page-table walkers and optional caches.
//   - NewWorkload builds the paper's four evaluation workloads.
//   - Figure6, Table3, Table4, Table5, IcebergDelta, and the Ablate*
//     functions regenerate every table and figure of the paper's
//     evaluation; Fragmentation and Multiprogram run the extension
//     experiments (see EXPERIMENTS.md).
//
// All configuration is seeded and deterministic.
package mosaic

import (
	"mosaic/internal/core"
	"mosaic/internal/hw"
	"mosaic/internal/memsim"
	"mosaic/internal/tlb"
	"mosaic/internal/trace"
	"mosaic/internal/vm"
	"mosaic/internal/workloads"
)

// Address and geometry types.
type (
	// VPN is a virtual page number.
	VPN = core.VPN
	// PFN is a physical frame number.
	PFN = core.PFN
	// MVPN is a mosaic virtual page number (VPN / arity).
	MVPN = core.MVPN
	// ASID identifies an address space.
	ASID = core.ASID
	// CPFN is a compressed physical frame number.
	CPFN = core.CPFN
	// Geometry is the iceberg bucket geometry (frontyard, backyard, choices).
	Geometry = core.Geometry
)

// PageSize is the base page size (4 KiB).
const PageSize = core.PageSize

// CPFNInvalid marks an unmapped sub-page in a table of contents.
const CPFNInvalid = core.CPFNInvalid

// DefaultGeometry is the paper's prototype configuration: frontyard bins of
// 56 frames, backyard bins of 8, 6 backyard choices — associativity 104,
// 7-bit CPFNs.
var DefaultGeometry = core.DefaultGeometry

// OS-level types (internal/vm).
type (
	// System is the simulated virtual-memory subsystem.
	System = vm.System
	// SystemConfig parameterizes a System.
	SystemConfig = vm.Config
	// AccessResult classifies a Touch: Hit, MinorFault, or MajorFault.
	AccessResult = vm.AccessResult
	// Mode selects mosaic or vanilla memory management.
	Mode = vm.Mode
)

// Memory-management modes and access results, re-exported for callers.
const (
	ModeMosaic  = vm.ModeMosaic
	ModeVanilla = vm.ModeVanilla
	Hit         = vm.Hit
	MinorFault  = vm.MinorFault
	MajorFault  = vm.MajorFault
)

// NewSystem creates a simulated virtual-memory subsystem.
func NewSystem(cfg SystemConfig) (*System, error) { return vm.New(cfg) }

// Hardware-simulation types (internal/memsim, internal/tlb).
type (
	// Simulator is the dual-TLB memory-system simulator (the repo's gem5
	// substitute). It implements BatchSink, so workloads run straight into
	// it.
	Simulator = memsim.Simulator
	// SimConfig parameterizes a Simulator.
	SimConfig = memsim.Config
	// TLBSpec names one TLB design point (geometry + mosaic arity).
	TLBSpec = memsim.TLBSpec
	// TLBGeometry is a TLB's entry count and associativity.
	TLBGeometry = tlb.Geometry
	// SimResult is the per-design-point outcome of a simulation.
	SimResult = memsim.Result
)

// NewSimulator creates a memory-system simulator.
func NewSimulator(cfg SimConfig) (*Simulator, error) { return memsim.New(cfg) }

// Workload and trace types (internal/workloads, internal/trace).
type (
	// Workload is a runnable benchmark emitting its reference stream into
	// a Batcher.
	Workload = workloads.Workload
	// Batcher packs a workload's references into batches and carries the
	// run's reference budget (see RunBatch).
	Batcher = trace.Batcher
	// Ref is one packed reference (VA<<1 | writeBit).
	Ref = trace.Ref
	// Batch is a run of packed references in stream order.
	Batch = trace.Batch
	// BatchSink consumes the reference stream in whole batches; the
	// Simulator implements it.
	BatchSink = trace.BatchSink
)

// NewWorkload builds one of the paper's four workloads ("graph500",
// "btree", "gups", "xsbench") or the extension KV store ("kvstore"),
// sized near footprintBytes.
func NewWorkload(name string, footprintBytes uint64, seed uint64) (Workload, error) {
	return workloads.ByName(name, footprintBytes, seed)
}

// WorkloadNames lists the paper's workloads in Table 2 order.
func WorkloadNames() []string { return workloads.Names() }

// Hardware-model types (internal/hw).
type (
	// CircuitSpec describes a tabulation-hash circuit instance.
	CircuitSpec = hw.CircuitSpec
	// FPGAReport mirrors Table 5's columns.
	FPGAReport = hw.FPGAReport
	// ASICReport mirrors the paper's 28nm synthesis summary.
	ASICReport = hw.ASICReport
)

// SynthesizeFPGA estimates Artix-7 resources/timing for a hash circuit.
func SynthesizeFPGA(spec CircuitSpec) (FPGAReport, error) { return hw.SynthesizeFPGA(spec) }

// SynthesizeASIC estimates 28nm CMOS area/timing for a hash circuit.
func SynthesizeASIC(spec CircuitSpec) (ASICReport, error) { return hw.SynthesizeASIC(spec) }
