package mosaic

// Benchmarks of the experiments the repository benchmark (bench/, run with
// `bash bench/run.sh`) does not cover, at benchmark-friendly scale; each
// reports the experiment's headline quantity as a custom metric. Figure 6
// and Table 4 are measured end to end by bench/.
//
//	Table 3   → BenchmarkTable3 (first-conflict utilization)
//	Table 5   → BenchmarkTable5 (circuit synthesis model)
//	§4.2 δ    → BenchmarkIcebergDelta
//	Ablations → BenchmarkAblate*
//
// Microbenchmarks of the substrates (hash throughput, TLB lookup latency,
// allocator placement, …) live in their internal packages and run under
// `go test -bench=. ./...`.

import (
	"bytes"
	"testing"

	"mosaic/internal/trace"
)

func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := Table3(Table3Options{
			Workloads:      []string{"btree"},
			MemoryMiB:      8,
			FootprintFracs: []float64{1.05},
			Runs:           1,
			MaxRefs:        4_000_000,
			Seed:           uint64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(rows[0].FirstConflict*100, "first-conflict-%")
			b.ReportMetric(rows[0].Steady*100, "steady-%")
		}
	}
}

func BenchmarkTable5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := Table5()
		asic := Table5ASIC()
		if i == b.N-1 {
			b.ReportMetric(float64(rows[3].LUTs), "H8-LUTs")
			b.ReportMetric(rows[3].LatencyNs, "H8-latency-ns")
			b.ReportMetric(asic[3].AreaKGE, "H8-area-KGE")
		}
	}
}

func BenchmarkIcebergDelta(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := IcebergDelta(IcebergDeltaOptions{Slots: 1 << 14, Trials: 2, Seed: uint64(i)})
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(res.Mean*100, "load-at-conflict-%")
		}
	}
}

func BenchmarkAblateChoices(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := AblateChoices([]int{1, 6}, 1<<13, 1, uint64(i), 0)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(rows[0].FirstConflict*100, "d1-%")
			b.ReportMetric(rows[1].FirstConflict*100, "d6-%")
		}
	}
}

func BenchmarkAblateEviction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := AblateEviction("btree", 8, []float64{1.15}, 3_000_000, uint64(i), 0)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(rows[0].HorizonKIO, "horizon-kIO")
			b.ReportMetric(rows[0].NaiveKIO, "naive-kIO")
		}
	}
}

func BenchmarkFragmentation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := Fragmentation(FragmentationOptions{Frames: 1 << 13, Seed: uint64(i)})
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(rows[0].HugeBackedPct, "fresh-huge-%")
			b.ReportMetric(rows[len(rows)-1].HugeBackedPct, "worst-huge-%")
			b.ReportMetric(rows[len(rows)-1].MosaicBackedPct, "worst-mosaic-%")
		}
	}
}

func BenchmarkMultiprogram(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, _, err := Multiprogram(MultiprogramOptions{
			Workloads:      []string{"gups", "kvstore"},
			FootprintBytes: 4 << 20,
			MaxRefsPerProc: 300_000,
			Seed:           uint64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, r := range res {
				if r.Label == "Mosaic-4" {
					b.ReportMetric(r.InterferencePct, "mosaic4-interference-%")
				}
			}
		}
	}
}

// streamWorkload emits a fixed number of sequential references — the
// cheapest possible workload, for tests of the harness's budget handling.
type streamWorkload struct{ n uint64 }

func (s streamWorkload) Name() string           { return "stream" }
func (s streamWorkload) FootprintBytes() uint64 { return s.n * 64 }
func (s streamWorkload) Run(b *trace.Batcher) {
	for i := uint64(0); i < s.n && !b.Done(); i++ {
		b.Access(i*64, false)
	}
}

// batchCountSink is the minimal terminal sink: one interface call and one
// length add per batch.
type batchCountSink struct{ n uint64 }

func (s *batchCountSink) ProcessBatch(b trace.Batch) { s.n += uint64(len(b)) }

// BenchmarkBatchDecode measures v2 frame decoding alone — the trace-replay
// bound when the simulator is out of the picture.
func BenchmarkBatchDecode(b *testing.B) {
	var buf bytes.Buffer
	bw, err := trace.NewBatchWriter(&buf)
	if err != nil {
		b.Fatal(err)
	}
	const refs = 1 << 20
	batch := make(trace.Batch, trace.DefaultBatchSize)
	for off := 0; off < refs; off += len(batch) {
		for i := range batch {
			batch[i] = trace.MakeRef(uint64(off+i)*64, i%7 == 0)
		}
		if err := bw.WriteBatch(batch); err != nil {
			b.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := trace.NewBatchReader(bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		var s batchCountSink
		n, err := r.ReplayBatches(&s)
		if err != nil {
			b.Fatal(err)
		}
		if n != refs {
			b.Fatalf("decoded %d refs, want %d", n, refs)
		}
	}
	b.ReportMetric(float64(refs)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mrefs/s")
}

func BenchmarkAblateTimestamps(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := AblateTimestamps("btree", 8, 1.15, []uint64{0, 4096}, 2_000_000, uint64(i), 0)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(rows[0].MosaicKIO, "exact-kIO")
			b.ReportMetric(rows[1].MosaicKIO, "scan-kIO")
		}
	}
}
