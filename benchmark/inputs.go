package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"

	"waco/internal/generate"
	"waco/internal/serve"
	"waco/internal/tensor"
)

// families are the generator families every input stream cycles through, so
// each seed sees the same mixture and only the draws differ.
var families = []string{"uniform", "powerlaw", "banded", "blockdense", "rmat", "clustered"}

// shape is the size of one class of inputs. Dim is a power of two (R-MAT
// needs one).
type shape struct {
	Dim int
	NNZ int
}

// input is one generated matrix and what the benchmark knows about it.
type input struct {
	Family      string
	COO         *tensor.COO
	Fingerprint string
	// Body is the request body for the one endpoint the matrix is sent to,
	// made only for workloads that go over HTTP. A stream alternates
	// COO-JSON and MatrixMarket by position.
	Body         []byte
	MatrixMarket bool
}

// generator draws matrices from the -seed flag. Each matrix has its own
// random stream keyed by (seed, stream name, position), so a stream is a
// pure function of the seed whatever else is generated, and the program
// under test only ever sees the matrices.
type generator struct {
	seed int64
	seen map[string]bool
}

func newGenerator(seed int64) *generator {
	return &generator{seed: seed, seen: make(map[string]bool)}
}

// matrix draws the i-th matrix of a stream.
func (g *generator) matrix(stream string, i int, sh shape) (*input, error) {
	h := int64(0)
	for _, c := range stream {
		h = h*131 + int64(c)
	}
	rng := rand.New(rand.NewSource(g.seed*1_000_003 + h*7919 + int64(i)))
	family := families[i%len(families)]
	nnz := sh.NNZ*9/10 + rng.Intn(sh.NNZ/5+1)
	coo := fromFamily(rng, family, sh.Dim, nnz)
	in := &input{Family: family, COO: coo, Fingerprint: serve.Fingerprint(coo)}
	if coo.NNZ() == 0 {
		return nil, fmt.Errorf("benchmark: %s[%d] (%s) is empty", stream, i, family)
	}
	// A repeated pattern would be answered from the cache and the operation
	// would not be the cold one it claims to be.
	if g.seen[in.Fingerprint] {
		return nil, fmt.Errorf("benchmark: %s[%d] (%s) repeats an earlier fingerprint", stream, i, family)
	}
	g.seen[in.Fingerprint] = true
	return in, nil
}

// endpoint says which request body, if any, a stream's matrices need.
type endpoint uint8

const (
	noBody endpoint = iota
	tuneBody
	predictBody
)

// stream draws n matrices and encodes the request bodies they need.
func (g *generator) stream(name string, n int, sh shape, ep endpoint) ([]*input, error) {
	out := make([]*input, n)
	for i := range out {
		in, err := g.matrix(name, i, sh)
		if err != nil {
			return nil, err
		}
		if ep != noBody {
			if err := in.encodeBody(ep, i%2 == 1); err != nil {
				return nil, err
			}
		}
		out[i] = in
	}
	return out, nil
}

func fromFamily(rng *rand.Rand, family string, dim, nnz int) *tensor.COO {
	switch family {
	case "powerlaw":
		return generate.PowerLawRows(rng, dim, dim, nnz, 1.0+0.4*rng.Float64())
	case "banded":
		// Fill stays near 0.6: a full band would be the same pattern on every draw.
		half := nnz*10/(dim*12) + 1 + rng.Intn(3)
		return generate.Banded(rng, dim, dim, half, float64(nnz)/float64(dim*(2*half+1)))
	case "blockdense":
		bs := []int{4, 8, 16}[rng.Intn(3)]
		return generate.BlockDense(rng, dim, dim, bs, nnz*10/(bs*bs*9)+1, 0.9)
	case "rmat":
		scale := 0
		for 1<<(scale+1) <= dim {
			scale++
		}
		return generate.RMAT(rng, scale, nnz, 0.57, 0.19, 0.19)
	case "clustered":
		per := 64 + rng.Intn(192)
		return generate.Clustered(rng, dim, dim, nnz/per+1, per, 3+8*rng.Float64())
	default:
		return generate.Uniform(rng, dim, dim, nnz)
	}
}

// encodeBody fills the request body, as MatrixMarket text or as
// pattern-only COO-JSON (the server tunes the pattern, not the values).
func (in *input) encodeBody(ep endpoint, matrixMarket bool) error {
	req := serve.PredictRequest{} // a tune body is a predict body without k
	if ep == predictBody {
		req.K = predictK
	}
	in.MatrixMarket = matrixMarket
	if matrixMarket {
		var sb strings.Builder
		if err := tensor.WriteMatrixMarket(&sb, in.COO); err != nil {
			return err
		}
		req.MatrixMarket = sb.String()
	} else {
		req.Matrix = &serve.MatrixJSON{Dims: in.COO.Dims, Coords: in.COO.Coords}
	}
	var err error
	in.Body, err = json.Marshal(req)
	return err
}
