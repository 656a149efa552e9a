package sparseconv

import (
	"math/rand"
	"testing"

	"waco/internal/generate"
	"waco/internal/nn"
	"waco/internal/tensor"
)

// benchSink keeps the measured call's result live.
var benchSink []float32

// BenchmarkColdExtract is a cold micro-benchmark: every iteration converts a
// fresh pattern and extracts it once, so rulebook building is paid in full
// each time, as for an unseen matrix on the serving path. Network shape and
// matrix shapes follow the cold_spmv_large workload (1024², ~40k nnz;
// Channels 4, Depth 3, 5x5 first kernel).
func BenchmarkColdExtract(b *testing.B) {
	const dim, nnz = 1024, 40000
	families := []struct {
		name string
		gen  func(*rand.Rand) *tensor.COO
	}{
		{"uniform", func(r *rand.Rand) *tensor.COO { return generate.Uniform(r, dim, dim, nnz) }},
		{"powerlaw", func(r *rand.Rand) *tensor.COO { return generate.PowerLawRows(r, dim, dim, nnz, 1.2) }},
		{"banded", func(r *rand.Rand) *tensor.COO {
			half := nnz*10/(dim*12) + 2
			return generate.Banded(r, dim, dim, half, float64(nnz)/float64(dim*(2*half+1)))
		}},
		{"rmat", func(r *rand.Rand) *tensor.COO { return generate.RMAT(r, 10, nnz, 0.57, 0.19, 0.19) }},
	}
	cfg := Config{Dim: 2, Channels: 4, Depth: 3, FirstKernel: 5, OutDim: 16}
	net := NewWACONet(cfg, rand.New(rand.NewSource(1)))
	for _, fam := range families {
		b.Run(fam.name, func(b *testing.B) {
			c := fam.gen(rand.New(rand.NewSource(2)))
			var a nn.Arena
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sm, err := FromCOO(c)
				if err != nil {
					b.Fatal(err)
				}
				a.Reset()
				benchSink = net.ExtractInfer(&a, sm)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(c.NNZ()), "ns/nnz")
		})
	}
}
