// Command waco-retrain closes the online learning loop: it replays a
// serving-written measurement log (waco-serve -obslog) into training triples,
// fine-tunes the incumbent sealed artifact's cost model, and — only when the
// candidate passes the rank-quality promotion gate on a held-out log slice —
// rotates it into a versioned model directory and optionally POSTs
// /admin/reload so serving replicas pick it up without dropping a request.
//
// Modes:
//
//	waco-retrain -log obs.log -artifact spmm.tuner -modeldir models/
//	    full retrain: every weight adapts, the HNSW index is rebuilt
//	waco-retrain -log obs.log -artifact spmm.tuner -modeldir models/ -transfer -budget 64
//	    COGNATE-style few-shot transfer: the extractor and embedder freeze,
//	    only the predictor head adapts from the most recent 64 measurements,
//	    and the incumbent index is reused (frozen embedder = valid embeddings)
//
// Exit status: 0 when the candidate promoted (or passed a dry run), 2 when a
// gate rejected it (the incumbent keeps serving — an expected outcome, not a
// failure), 1 on operational errors.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"time"

	"waco/internal/retrain"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("waco-retrain: ")
	logPath := flag.String("log", "obs.log", "measurement log written by waco-serve -obslog")
	artifact := flag.String("artifact", "waco.tuner", "incumbent sealed artifact (fine-tune source and gate baseline)")
	modelDir := flag.String("modeldir", "", "versioned artifact directory to promote into (empty = dry run: the gate evaluates, nothing rotates)")
	transfer := flag.Bool("transfer", false, "freeze extractor+embedder, adapt only the predictor head (few-shot transfer)")
	budget := flag.Int("budget", 0, "use only the most recent N log records (0 = all)")
	minRecords := flag.Int("min-records", 16, "fewest intact log records required to attempt a retrain")
	holdout := flag.Float64("holdout", 0.34, "fraction of replayed entries held out for the promotion gate")
	gateSlack := flag.Float64("gate-slack", 0.02, "how far below the incumbent's holdout Spearman the candidate may score and still promote")
	epochs := flag.Int("epochs", 4, "fine-tune epochs")
	lr := flag.Float64("lr", 1e-3, "fine-tune learning rate")
	seed := flag.Int64("seed", 1, "fine-tune and holdout-split seed")
	workers := flag.Int("workers", 0, "trainer worker pool size (0 = one per CPU)")
	reloadURL := flag.String("reload-url", "", "serving base URL to POST /admin/reload after promotion (e.g. http://localhost:8080; empty = no reload)")
	jsonOut := flag.Bool("json", false, "print the run result as JSON on stdout")
	quiet := flag.Bool("quiet", false, "suppress progress lines")
	flag.Parse()

	cfg := retrain.Config{
		LogPath:      *logPath,
		ArtifactPath: *artifact,
		ModelDir:     *modelDir,
		Transfer:     *transfer,
		Budget:       *budget,
		MinRecords:   *minRecords,
		HoldoutFrac:  *holdout,
		GateSlack:    *gateSlack,
		Epochs:       *epochs,
		LR:           float32(*lr),
		Seed:         *seed,
		Workers:      *workers,
	}
	if !*quiet {
		cfg.Verbose = func(line string) { log.Print(line) }
	}

	res, err := retrain.Run(context.Background(), cfg)
	if err != nil {
		log.Fatal(err)
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			log.Fatal(err)
		}
	}
	if !res.Promoted {
		log.Printf("%s", res.Reason)
		os.Exit(2)
	}
	log.Printf("%s", res.Reason)

	if *reloadURL != "" && res.PromotedPath != "" {
		if err := postReload(*reloadURL, res.PromotedPath, res.Stamp); err != nil {
			log.Fatal(err)
		}
		log.Printf("reload accepted by %s", *reloadURL)
	}
}

// postReload asks a serving replica to hot-swap to the promoted artifact and
// verifies the swapped stamp matches what was promoted.
func postReload(base, path, stamp string) error {
	body, err := json.Marshal(map[string]string{"artifact": path})
	if err != nil {
		return err
	}
	client := &http.Client{Timeout: 60 * time.Second}
	resp, err := client.Post(base+"/admin/reload", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20)) //waco:nolint errdrop -- best-effort body for the error message; a short read only trims the quoted context
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("reload: %s returned %d: %s", base, resp.StatusCode, bytes.TrimSpace(raw))
	}
	var info struct {
		Stamp string `json:"stamp"`
	}
	if err := json.Unmarshal(raw, &info); err != nil {
		return fmt.Errorf("reload: parsing response: %w", err)
	}
	if stamp != "" && info.Stamp != stamp {
		return fmt.Errorf("reload: server now serves stamp %.16s, promoted %.16s", info.Stamp, stamp)
	}
	return nil
}
