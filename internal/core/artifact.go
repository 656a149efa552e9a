package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"fmt"
	"io"
	"os"

	"waco/internal/costmodel"
	"waco/internal/hnsw"
	"waco/internal/schedule"
	"waco/internal/search"
)

// A sealed tuner artifact bundles everything a serving process needs to
// answer tuning queries without retraining or re-indexing: the pipeline
// configuration (including the SuperSchedule space and machine profile), the
// trained cost model, the HNSW graph with its frozen program embeddings, and
// the indexed SuperSchedules in graph-id order. waco-train writes one with
// -artifact; waco-tune and waco-serve load it for O(read) startup.
const (
	artifactMagic   = "WACOTUNR"
	artifactVersion = uint32(1)
)

// artifactDisk is the gob payload following the magic + version header. The
// model and graph keep their own self-describing encodings (costmodel
// snapshot, hnsw versioned format) so their layouts can evolve independently
// of the envelope.
type artifactDisk struct {
	Cfg          Config
	ModelBytes   []byte
	GraphBytes   []byte
	Schedules    []*schedule.SuperSchedule
	BuildSeconds float64
}

// SaveTuner seals the tuner into w. Cfg.Train.Verbose (a func) is dropped by
// gob; everything else round-trips.
func SaveTuner(w io.Writer, t *Tuner) error {
	if t.Model == nil || t.Index == nil {
		return fmt.Errorf("core: cannot seal a tuner without a model and an index")
	}
	if len(t.Index.Schedules) != t.Index.Graph.Len() {
		return fmt.Errorf("core: index has %d schedules but graph has %d vectors",
			len(t.Index.Schedules), t.Index.Graph.Len())
	}
	var model bytes.Buffer
	if err := t.Model.Save(&model); err != nil {
		return err
	}
	var graph bytes.Buffer
	if err := t.Index.Graph.Save(&graph); err != nil {
		return err
	}
	if _, err := io.WriteString(w, artifactMagic); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, artifactVersion); err != nil {
		return err
	}
	return gob.NewEncoder(w).Encode(artifactDisk{
		Cfg:          t.Cfg,
		ModelBytes:   model.Bytes(),
		GraphBytes:   graph.Bytes(),
		Schedules:    t.Index.Schedules,
		BuildSeconds: t.BuildSeconds,
	})
}

// LoadTuner reconstructs a tuner sealed by SaveTuner. The returned tuner's
// BuildSeconds is the original (offline) construction cost, preserved so
// callers can report the startup speedup of the cached path. ArtifactStamp
// is set to the SHA-256 of the bytes read, so two processes (or one process
// across a hot reload) can tell whether they serve the same sealed artifact
// without re-reading the file.
func LoadTuner(r io.Reader) (*Tuner, error) {
	digest := sha256.New()
	r = io.TeeReader(r, digest)
	magic := make([]byte, len(artifactMagic))
	if _, err := io.ReadFull(r, magic); err != nil {
		return nil, fmt.Errorf("core: reading artifact magic: %w", err)
	}
	if string(magic) != artifactMagic {
		return nil, fmt.Errorf("core: bad magic %q (not a sealed tuner artifact)", magic)
	}
	var version uint32
	if err := binary.Read(r, binary.LittleEndian, &version); err != nil {
		return nil, fmt.Errorf("core: reading artifact version: %w", err)
	}
	if version != artifactVersion {
		return nil, fmt.Errorf("core: artifact version %d, this build reads only %d (re-seal it with waco-train -artifact)",
			version, artifactVersion)
	}
	var d artifactDisk
	if err := gob.NewDecoder(r).Decode(&d); err != nil {
		return nil, fmt.Errorf("core: decoding artifact: %w", err)
	}
	model, err := costmodel.LoadModel(bytes.NewReader(d.ModelBytes))
	if err != nil {
		return nil, err
	}
	graph, err := hnsw.Load(bytes.NewReader(d.GraphBytes))
	if err != nil {
		return nil, err
	}
	if graph.Len() != len(d.Schedules) {
		return nil, fmt.Errorf("core: artifact graph has %d vectors but %d schedules",
			graph.Len(), len(d.Schedules))
	}
	for i, ss := range d.Schedules {
		if ss == nil {
			return nil, fmt.Errorf("core: artifact schedule %d is nil", i)
		}
		if err := ss.Validate(); err != nil {
			return nil, fmt.Errorf("core: artifact schedule %d: %w", i, err)
		}
	}
	return &Tuner{
		Cfg:           d.Cfg,
		Model:         model,
		Index:         &search.Index{Model: model, Schedules: d.Schedules, Graph: graph},
		BuildSeconds:  d.BuildSeconds,
		ArtifactStamp: hex.EncodeToString(digest.Sum(nil)),
	}, nil
}

// LoadTunerFile loads a sealed artifact from disk — the waco-serve startup
// and hot-reload path in one place, so both report the same errors.
func LoadTunerFile(path string) (*Tuner, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	t, err := LoadTuner(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	return t, nil
}
