package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"strconv"
	"strings"

	"waco/internal/format"
	"waco/internal/schedule"
	"waco/internal/tensor"
)

// MatrixJSON is the COO-JSON wire form of a sparse tensor: dims plus
// mode-major coordinate arrays (coords[m][p] is point p's coordinate along
// mode m), mirroring tensor.COO. Values are optional — WACO tunes the
// sparsity pattern — and default to 1.
type MatrixJSON struct {
	Dims   []int     `json:"dims"`
	Coords [][]int32 `json:"coords"`
	Vals   []float32 `json:"vals,omitempty"`
}

// TuneRequest is the /v1/tune body: exactly one matrix, as COO-JSON or as
// Matrix Market text.
type TuneRequest struct {
	Matrix       *MatrixJSON `json:"matrix,omitempty"`
	MatrixMarket string      `json:"matrix_market,omitempty"`
}

// PredictRequest is the /v1/predict body.
type PredictRequest struct {
	Matrix       *MatrixJSON `json:"matrix,omitempty"`
	MatrixMarket string      `json:"matrix_market,omitempty"`
	K            int         `json:"k,omitempty"`
}

// PredictResponse is the /v1/predict answer.
type PredictResponse struct {
	Schedules []Predicted `json:"schedules"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// maxBodyBytes bounds request bodies; a 100M-nonzero COO-JSON matrix is far
// larger than anything the reduced-scale kernels handle.
const maxBodyBytes = 64 << 20

// Refusal reasons of admitMatrix, the reason label of waco_refused_total.
const (
	refuseNNZ          = "nnz"
	refuseOperandBytes = "operand_bytes"
)

// admitMatrix refuses a decoded matrix whose work would outgrow the request
// that carried it. A body is at most maxBodyBytes, but a few dims in it can
// ask for far more: tuning allocates a dense operand of dim x denseN float32
// entries for every mode (one entry per row or column for SpMV). The sum of
// those bytes may not pass maxBodyBytes, which also caps every dim, and nnz
// may not pass the assembly budget. On refusal it also returns the reason.
func admitMatrix(coo *tensor.COO, alg schedule.Algorithm, denseN int) (string, error) {
	if nnz := int64(coo.NNZ()); nnz > format.DefaultMaxEntries {
		return refuseNNZ, fmt.Errorf("matrix has %d nonzeros, over the %d-entry budget", nnz, format.DefaultMaxEntries)
	}
	n := int64(denseN)
	if alg == schedule.SpMV || n < 1 {
		n = 1
	}
	var need int64
	for _, d := range coo.Dims {
		// Clamped so the sum cannot overflow; one clamped dim already fails.
		need += 4 * min(int64(d), maxBodyBytes) * n
	}
	if need > maxBodyBytes {
		return refuseOperandBytes, fmt.Errorf("dims %v need more than %d bytes of dense operands", coo.Dims, maxBodyBytes)
	}
	return "", nil
}

// decodeMatrix turns either wire form into a validated COO.
func decodeMatrix(m *MatrixJSON, mm string) (*tensor.COO, error) {
	switch {
	case m != nil && mm != "":
		return nil, errors.New("provide either matrix or matrix_market, not both")
	case m != nil:
		return m.ToCOO()
	case mm != "":
		coo, err := tensor.ReadMatrixMarket(strings.NewReader(mm))
		if err != nil {
			return nil, err
		}
		return coo, nil
	default:
		return nil, errors.New("missing matrix: provide matrix (COO-JSON) or matrix_market")
	}
}

// ToCOO converts the wire form, validating shape consistency.
func (m *MatrixJSON) ToCOO() (*tensor.COO, error) {
	if len(m.Dims) < 2 || len(m.Dims) > 3 {
		return nil, fmt.Errorf("matrix must have 2 or 3 dims, got %d", len(m.Dims))
	}
	if len(m.Coords) != len(m.Dims) {
		return nil, fmt.Errorf("coords has %d modes, dims has %d", len(m.Coords), len(m.Dims))
	}
	nnz := len(m.Coords[0])
	for mode, cs := range m.Coords {
		if len(cs) != nnz {
			return nil, fmt.Errorf("coords mode %d has %d points, mode 0 has %d", mode, len(cs), nnz)
		}
	}
	if nnz == 0 {
		return nil, errors.New("matrix has no nonzeros")
	}
	if m.Vals != nil && len(m.Vals) != nnz {
		return nil, fmt.Errorf("vals has %d entries for %d nonzeros", len(m.Vals), nnz)
	}
	coo := tensor.NewCOO(m.Dims, nnz)
	point := make([]int32, len(m.Dims))
	for p := 0; p < nnz; p++ {
		for mode := range m.Coords {
			point[mode] = m.Coords[mode][p]
		}
		v := float32(1)
		if m.Vals != nil {
			v = m.Vals[p]
		}
		coo.Append(v, point...)
	}
	if err := coo.Validate(); err != nil {
		return nil, err
	}
	return coo, nil
}

// Handler returns the service's HTTP mux:
//
//	POST /v1/tune          — tune one matrix, returns TuneResult
//	POST /v1/predict       — top-k schedules by predicted cost, no measurement
//	GET  /healthz          — liveness (also /v1/healthz, the legacy path)
//	GET  /readyz           — readiness: artifact loaded and not draining;
//	                         what a load balancer's health check must watch
//	POST /admin/reload     — hot-swap the sealed artifact (body: optional
//	                         {"artifact": path}, default Options.ArtifactPath)
//	GET  /v1/stats         — counter snapshot (Stats)
//	GET  /metrics          — Prometheus text exposition of the same counters
//	                         plus latency/stage histograms
//
// Every endpoint runs under the instrument middleware (request counters,
// latency histograms, structured access log).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/tune", s.instrument("tune", s.handleTune))
	mux.HandleFunc("/v1/predict", s.instrument("predict", s.handlePredict))
	mux.HandleFunc("/v1/healthz", s.instrument("healthz", s.handleHealthz))
	mux.HandleFunc("/healthz", s.instrument("healthz", s.handleHealthz))
	mux.HandleFunc("/readyz", s.instrument("readyz", s.handleReadyz))
	mux.HandleFunc("/admin/reload", s.instrument("reload", s.handleReload))
	mux.HandleFunc("/v1/stats", s.instrument("stats", s.handleStats))
	mux.HandleFunc("/metrics", s.instrument("metrics", s.metrics.reg.Handler().ServeHTTP))
	return mux
}

// logf reports serving-path faults that have no response channel left (the
// status line is already gone by the time encoding fails). Swapped out in
// tests.
var logf = log.Printf

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		logf("serve: encoding %T response: %v", v, err)
	}
}

func writeError(w http.ResponseWriter, status int, err error) {
	// Every 503 carries a Retry-After so shed/drained clients have a
	// backoff signal instead of a bare rejection. Handlers that can
	// estimate the queue drain set a better value first; "1" is the floor.
	if status == http.StatusServiceUnavailable && w.Header().Get("Retry-After") == "" {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, status, errorResponse{Error: err.Error()})
}

// writeServiceError is writeError with the server's queue-depth-derived
// Retry-After estimate on 503s.
func (s *Server) writeServiceError(w http.ResponseWriter, err error) {
	status := statusFor(err)
	if status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
	}
	writeError(w, status, err)
}

// statusFor maps service errors to HTTP statuses.
func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrShuttingDown), errors.Is(err, ErrOverloaded):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

func decodeBody[T any](w http.ResponseWriter, r *http.Request) (*T, bool) {
	defer r.Body.Close()
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	var req T
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("malformed request body: %w", err))
		return nil, false
	}
	return &req, true
}

// decodeRequestMatrix turns a tune or predict body's matrix into a COO this
// server will work on, or writes the refusal: 400 for a malformed matrix or
// the wrong order, 413 for one admitMatrix refuses.
func (s *Server) decodeRequestMatrix(w http.ResponseWriter, m *MatrixJSON, mm string) (*tensor.COO, bool) {
	coo, err := decodeMatrix(m, mm)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return nil, false
	}
	cfg := s.tuner.Load().Cfg
	if coo.Order() != cfg.Alg.SparseOrder() {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("order-%d tensor for a %v tuner", coo.Order(), cfg.Alg))
		return nil, false
	}
	if reason, err := admitMatrix(coo, cfg.Alg, cfg.Collect.DenseN); err != nil {
		s.metrics.refused[reason].Inc()
		writeError(w, http.StatusRequestEntityTooLarge, err)
		return nil, false
	}
	return coo, true
}

func (s *Server) handleTune(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, errors.New("POST required"))
		return
	}
	req, ok := decodeBody[TuneRequest](w, r)
	if !ok {
		return
	}
	coo, ok := s.decodeRequestMatrix(w, req.Matrix, req.MatrixMarket)
	if !ok {
		return
	}
	res, err := s.Tune(r.Context(), coo)
	if err != nil {
		s.writeServiceError(w, err)
		return
	}
	annotate(r.Context(), res.Fingerprint, res.Cached, res.Deduped)
	writeJSON(w, http.StatusOK, res)
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, errors.New("POST required"))
		return
	}
	req, ok := decodeBody[PredictRequest](w, r)
	if !ok {
		return
	}
	coo, ok := s.decodeRequestMatrix(w, req.Matrix, req.MatrixMarket)
	if !ok {
		return
	}
	scheds, err := s.Predict(r.Context(), coo, req.K)
	if err != nil {
		s.writeServiceError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, PredictResponse{Schedules: scheds})
}

// handleHealthz is liveness: the process is up and answering. It stays 200
// through a drain — the process is alive; it is just not ready.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, http.StatusMethodNotAllowed, errors.New("GET required"))
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok", "alg": s.tuner.Load().Cfg.Alg.String()})
}

// handleReadyz is readiness: the artifact is loaded and the server is not
// draining. Load balancers health-check this endpoint, not /healthz — a
// draining replica must stop receiving new work while it finishes old work.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, http.StatusMethodNotAllowed, errors.New("GET required"))
		return
	}
	if s.Draining() {
		writeError(w, http.StatusServiceUnavailable, errors.New("draining"))
		return
	}
	art := s.Artifact()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":           "ready",
		"artifact_version": art.Version,
		"artifact_stamp":   art.Stamp,
	})
}

// reloadRequest is the optional /admin/reload body.
type reloadRequest struct {
	Artifact string `json:"artifact,omitempty"`
}

// handleReload hot-swaps the sealed artifact. A failed load leaves the old
// artifact serving and reports 500 — reload is all-or-nothing.
func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, errors.New("POST required"))
		return
	}
	var req reloadRequest
	if r.ContentLength != 0 {
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("malformed reload body: %w", err))
			return
		}
	}
	info, err := s.ReloadFromFile(req.Artifact)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, http.StatusMethodNotAllowed, errors.New("GET required"))
		return
	}
	writeJSON(w, http.StatusOK, s.Snapshot())
}
