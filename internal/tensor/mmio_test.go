package tensor

import (
	"bytes"
	"io"
	"math/rand"
	"strings"
	"testing"
)

func TestReadMatrixMarketGeneral(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate real general
% a comment
3 4 3
1 1 2.5
3 4 -1
2 2 7
`
	c, err := ReadMatrixMarket(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if c.Dims[0] != 3 || c.Dims[1] != 4 || c.NNZ() != 3 {
		t.Fatalf("dims %v nnz %d", c.Dims, c.NNZ())
	}
	// Sorted row-major: (0,0)=2.5, (1,1)=7, (2,3)=-1.
	if c.Vals[0] != 2.5 || c.Vals[1] != 7 || c.Vals[2] != -1 {
		t.Fatalf("values %v", c.Vals)
	}
}

func TestReadMatrixMarketSymmetric(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate real symmetric
3 3 2
2 1 5
3 3 1
`
	c, err := ReadMatrixMarket(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if c.NNZ() != 3 { // (1,0), (0,1) mirrored, (2,2) diagonal not duplicated
		t.Fatalf("NNZ = %d, want 3", c.NNZ())
	}
}

func TestReadMatrixMarketPattern(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate pattern general
2 2 2
1 2
2 1
`
	c, err := ReadMatrixMarket(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if c.NNZ() != 2 || c.Vals[0] != 1 || c.Vals[1] != 1 {
		t.Fatalf("pattern read gave nnz=%d vals=%v", c.NNZ(), c.Vals)
	}
}

func TestReadMatrixMarketErrors(t *testing.T) {
	cases := map[string]string{
		"empty":         "",
		"bad header":    "%%NotMM matrix coordinate real general\n1 1 0\n",
		"array format":  "%%MatrixMarket matrix array real general\n1 1\n",
		"bad size":      "%%MatrixMarket matrix coordinate real general\n1 1\n",
		"out of range":  "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n",
		"short entry":   "%%MatrixMarket matrix coordinate real general\n2 2 1\n1\n",
		"bad value":     "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 xyz\n",
		"bad field":     "%%MatrixMarket matrix coordinate complex general\n1 1 0\n",
		"bad symmetry":  "%%MatrixMarket matrix coordinate real hermitian\n1 1 0\n",
		"no size line":  "%%MatrixMarket matrix coordinate real general\n% only comments\n",
		"bad row index": "%%MatrixMarket matrix coordinate real general\n2 2 1\nx 1 1.0\n",
	}
	for name, in := range cases {
		if _, err := ReadMatrixMarket(strings.NewReader(in)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestMatrixMarketRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	c := randomCOO(rng, 40, 30, 200)
	var buf bytes.Buffer
	if err := WriteMatrixMarket(&buf, c); err != nil {
		t.Fatal(err)
	}
	back, err := ReadMatrixMarket(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NNZ() != c.NNZ() {
		t.Fatalf("round trip NNZ %d, want %d", back.NNZ(), c.NNZ())
	}
	for p := 0; p < c.NNZ(); p++ {
		if back.Coords[0][p] != c.Coords[0][p] || back.Coords[1][p] != c.Coords[1][p] {
			t.Fatalf("coordinate mismatch at %d", p)
		}
		d := back.Vals[p] - c.Vals[p]
		if d > 1e-6 || d < -1e-6 {
			t.Fatalf("value mismatch at %d: %g vs %g", p, back.Vals[p], c.Vals[p])
		}
	}
}

func TestWriteMatrixMarketWrongOrder(t *testing.T) {
	c := NewCOO([]int{2, 2, 2}, 0)
	if err := WriteMatrixMarket(&bytes.Buffer{}, c); err == nil {
		t.Fatal("accepted order-3 tensor")
	}
}

// TestReadMatrixMarketHostileHeader: the size line is a claim, not a size.
// A tiny body that declares 4·10¹² nonzeros must be refused without
// allocating for them, and negative or out-of-int32 sizes are refused.
func TestReadMatrixMarketHostileHeader(t *testing.T) {
	bodies := map[string]string{
		"huge nnz":     "%%MatrixMarket matrix coordinate real general\n1 1 4000000000000\n1 1 1.0\n",
		"negative nnz": "%%MatrixMarket matrix coordinate real general\n2 2 -1\n1 1 1.0\n",
		"negative dim": "%%MatrixMarket matrix coordinate real general\n-2 2 1\n1 1 1.0\n",
		"dim > int32":  "%%MatrixMarket matrix coordinate real general\n4294967297 2 1\n1 1 1.0\n",
		"short stream": "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n",
		"long stream":  "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1.0\n2 2 1.0\n",
	}
	for name, body := range bodies {
		if len(body) > 80 {
			t.Fatalf("%s: body is %d bytes, meant to be tiny", name, len(body))
		}
		if _, err := ReadMatrixMarket(strings.NewReader(body)); err == nil {
			t.Errorf("%s: accepted %q", name, body)
		}
		// A reader of unknown length takes the same path.
		if _, err := ReadMatrixMarket(struct{ io.Reader }{strings.NewReader(body)}); err == nil {
			t.Errorf("%s (unsized reader): accepted %q", name, body)
		}
	}
}
