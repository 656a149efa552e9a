package tensor

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// minEntryBytes is the shortest MatrixMarket entry line ("1 1\n", pattern
// field); a stream of L bytes holds at most L/minEntryBytes entries.
const minEntryBytes = 4

// unsizedEntries caps the initial entry capacity when the stream's length
// is unknown; the COO grows past it by append.
const unsizedEntries = 1 << 16

// ReadMatrixMarket parses a MatrixMarket "coordinate" stream into a COO
// tensor. It supports the real, integer and pattern fields and the general
// and symmetric symmetry modes (symmetric entries are mirrored). Pattern
// entries get value 1. Coordinates in the file are 1-based, as per the
// format; the returned tensor is 0-based, sorted row-major and deduplicated.
func ReadMatrixMarket(r io.Reader) (*COO, error) {
	capHint := unsizedEntries
	if l, ok := r.(interface{ Len() int }); ok {
		capHint = l.Len() / minEntryBytes
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<24)

	if !sc.Scan() {
		return nil, fmt.Errorf("tensor: empty MatrixMarket stream")
	}
	header := strings.Fields(strings.ToLower(sc.Text()))
	if len(header) < 5 || header[0] != "%%matrixmarket" || header[1] != "matrix" {
		return nil, fmt.Errorf("tensor: bad MatrixMarket header %q", sc.Text())
	}
	if header[2] != "coordinate" {
		return nil, fmt.Errorf("tensor: unsupported MatrixMarket format %q (only coordinate)", header[2])
	}
	field, symmetry := header[3], header[4]
	switch field {
	case "real", "integer", "pattern":
	default:
		return nil, fmt.Errorf("tensor: unsupported MatrixMarket field %q", field)
	}
	switch symmetry {
	case "general", "symmetric":
	default:
		return nil, fmt.Errorf("tensor: unsupported MatrixMarket symmetry %q", symmetry)
	}

	// Skip comments, read the size line.
	var sizeLine string
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		sizeLine = line
		break
	}
	if sizeLine == "" {
		return nil, fmt.Errorf("tensor: missing MatrixMarket size line")
	}
	sizes := strings.Fields(sizeLine)
	if len(sizes) != 3 {
		return nil, fmt.Errorf("tensor: bad MatrixMarket size line %q", sizeLine)
	}
	rows, err := strconv.Atoi(sizes[0])
	if err != nil {
		return nil, fmt.Errorf("tensor: bad row count: %w", err)
	}
	cols, err := strconv.Atoi(sizes[1])
	if err != nil {
		return nil, fmt.Errorf("tensor: bad column count: %w", err)
	}
	nnz, err := strconv.Atoi(sizes[2])
	if err != nil {
		return nil, fmt.Errorf("tensor: bad nnz count: %w", err)
	}
	if rows < 0 || cols < 0 || nnz < 0 {
		return nil, fmt.Errorf("tensor: negative MatrixMarket size %dx%d, %d nonzeros", rows, cols, nnz)
	}
	if rows > math.MaxInt32 || cols > math.MaxInt32 {
		return nil, fmt.Errorf("tensor: MatrixMarket dims %dx%d exceed int32 coordinates", rows, cols)
	}

	// The header is only a claim: size the first allocation by what the
	// stream can still hold, not by the declared count.
	out := NewCOO([]int{rows, cols}, min(nnz, capHint))
	entries := 0
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		fields := strings.Fields(line)
		want := 3
		if field == "pattern" {
			want = 2
		}
		if len(fields) < want {
			return nil, fmt.Errorf("tensor: short MatrixMarket entry %q", line)
		}
		i, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("tensor: bad row index %q: %w", fields[0], err)
		}
		j, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("tensor: bad column index %q: %w", fields[1], err)
		}
		v := 1.0
		if field != "pattern" {
			v, err = strconv.ParseFloat(fields[2], 64)
			if err != nil {
				return nil, fmt.Errorf("tensor: bad value %q: %w", fields[2], err)
			}
		}
		if i < 1 || i > rows || j < 1 || j > cols {
			return nil, fmt.Errorf("tensor: entry (%d,%d) outside %dx%d", i, j, rows, cols)
		}
		if entries++; entries > nnz {
			return nil, fmt.Errorf("tensor: MatrixMarket header declares %d entries, stream has more", nnz)
		}
		out.Append(float32(v), int32(i-1), int32(j-1))
		if symmetry == "symmetric" && i != j {
			out.Append(float32(v), int32(j-1), int32(i-1))
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("tensor: reading MatrixMarket: %w", err)
	}
	if entries != nnz {
		return nil, fmt.Errorf("tensor: MatrixMarket header declares %d entries, stream has %d", nnz, entries)
	}
	out.SortRowMajor()
	out.Dedup()
	return out, nil
}

// WriteMatrixMarket serializes an order-2 COO in MatrixMarket coordinate real
// general format.
func WriteMatrixMarket(w io.Writer, c *COO) error {
	if c.Order() != 2 {
		return fmt.Errorf("%w: WriteMatrixMarket on order-%d tensor", ErrOrderMismatch, c.Order())
	}
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%%%%MatrixMarket matrix coordinate real general\n%d %d %d\n",
		c.Dims[0], c.Dims[1], c.NNZ()); err != nil {
		return err
	}
	for p := 0; p < c.NNZ(); p++ {
		if _, err := fmt.Fprintf(bw, "%d %d %g\n", c.Coords[0][p]+1, c.Coords[1][p]+1, c.Vals[p]); err != nil {
			return err
		}
	}
	return bw.Flush()
}
