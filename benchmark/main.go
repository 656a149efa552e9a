// Command benchmark is the performance record of this repository: one
// command builds a fixed tuner from source, runs four workloads against the
// production entry points (serve.Server.Tune, the HTTP handler,
// core.BuildContext), checks every returned schedule against the dense
// reference, and prints every metric by name with its unit.
//
//	go run ./benchmark                                   every workload, timed and traced
//	go run ./benchmark -workload serve_mixed -trace 1    one workload's per-layer metrics
//	go run ./benchmark -repeat 2                         two full sets, compared against the bounds
//
// BENCHMARK.json at the repository root names the workloads and metrics and
// fixes each end-to-end metric's regression bound; README.md in this
// directory explains them.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"runtime/debug"
	"syscall"
)

// defaultSeconds is BENCHMARK.json's run_seconds, the run length the
// workloads' operation counts were sized for.
const defaultSeconds = 20

func main() {
	var (
		workload = flag.String("workload", "all", "workload name, or all")
		seed     = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds  = flag.Float64("seconds", defaultSeconds, "length of the timed phase the operation counts are sized for")
		trace    = flag.Int("trace", 0, "0: timed run, end-to-end metrics; 1: also the traced replay, per-layer metrics")
		traceOut = flag.String("trace-out", "", "with -trace 1, write the replay's spans to this file as JSON")
		repeat   = flag.Int("repeat", 0, "run every workload this many times in child processes and compare the sets against BENCHMARK.json's bounds")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	opt := runOptions{Seed: *seed, Seconds: *seconds, TraceOut: *traceOut, TempDir: ".bench_build/tmp"}
	var err error
	switch {
	case *repeat > 0:
		err = repeatSets(ctx, *repeat, opt)
	case *workload == "all":
		err = runAll(ctx, opt)
	default:
		opt.Trace = *trace == 1
		err = runOne(ctx, *workload, opt)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

var errWrongOutput = errors.New("a tuned schedule's output differs from the reference")

// runOne runs one workload and ends standard output with the result line.
func runOne(ctx context.Context, name string, opt runOptions) error {
	s, ok := specByName(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	rep, err := run(ctx, s, opt)
	if err != nil {
		return err
	}
	rep.print(os.Stdout)
	line, err := rep.line()
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	if !rep.Correct {
		return errWrongOutput
	}
	return nil
}

// runAll prints every metric of every workload: a timed run, then a traced
// one.
func runAll(ctx context.Context, opt runOptions) error {
	printHost()
	correct := true
	for _, s := range specs {
		for _, traced := range []bool{false, true} {
			opt.Trace = traced
			rep, err := run(ctx, s, opt)
			if err != nil {
				return fmt.Errorf("%s: %w", s.Name, err)
			}
			rep.print(os.Stdout)
			correct = correct && rep.Correct
		}
	}
	if !correct {
		return errWrongOutput
	}
	return nil
}

func printHost() {
	commit := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	fmt.Printf("nproc %d  GOMAXPROCS %d  %s  commit %s\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit)
}

// repeatSets runs the full set of workloads n times, each run in a fresh
// child process, and fails when two sets disagree on an end-to-end metric by
// more than the bound BENCHMARK.json gives it.
func repeatSets(ctx context.Context, n int, opt runOptions) error {
	file, err := readBenchmarkFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("-repeat reads the bounds from the repository root: %w", err)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	printHost()
	sets := make([]map[string]resultLine, n) // per set: workload -> result
	for i := range sets {
		sets[i] = make(map[string]resultLine)
		for _, s := range specs {
			args := []string{"-workload", s.Name, "-seed", fmt.Sprint(opt.Seed), "-seconds", fmt.Sprint(opt.Seconds), "-trace", "0"}
			cmd := exec.CommandContext(ctx, exe, args...)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("set %d, %s: %w", i+1, s.Name, err)
			}
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			var res resultLine
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
				return fmt.Errorf("set %d, %s: result line: %w", i+1, s.Name, err)
			}
			if res.Failed > 0 {
				return fmt.Errorf("set %d, %s: %d of %d operations failed", i+1, s.Name, res.Failed, res.Attempted)
			}
			sets[i][s.Name] = res
			fmt.Printf("set %d  %-16s attempted %d failed %d\n", i+1, s.Name, res.Attempted, res.Failed)
		}
	}

	disagree := 0
	for _, s := range specs {
		fmt.Printf("\n== %s ==\n", s.Name)
		for _, d := range file.EndToEnd {
			best, worst := sets[0][s.Name].Metrics[d.Name].Value, sets[0][s.Name].Metrics[d.Name].Value
			for _, set := range sets[1:] {
				v := set[s.Name].Metrics[d.Name].Value
				if (d.Better == "lower") == (v < best) {
					best = v
				}
				if (d.Better == "lower") == (v > worst) {
					worst = v
				}
			}
			gap := safeDiv(worst-best, best)
			if gap < 0 {
				gap = -gap
			}
			verdict := "ok"
			if gap > d.Bound {
				verdict = "DISAGREE"
				disagree++
			}
			fmt.Printf("%-26s best %-12.6g worst %-12.6g %-6s gap %.3f  bound %.2f  %s\n", d.Name, best, worst, d.Unit, gap, d.Bound, verdict)
		}
	}
	if disagree > 0 {
		return fmt.Errorf("%d end-to-end metrics differ between sets by more than their bound", disagree)
	}
	return nil
}
