// Command bench is the repository's benchmark. One process runs one
// workload: a closed loop with a single client that repairs, verifies and
// checks a seeded sequence of case-study jobs, then prints the workload's
// end-to-end metrics, or with -trace 1 its per-layer breakdown, as the last
// line of standard output. BENCHMARK.json at the repository root declares
// the workloads, the metrics, their units, directions and regression bounds.
//
// Run it from the repository root through bench/run.sh, which builds it:
//
//	bash bench/run.sh -workload chain -seed 1 -seconds 15 -trace 0
//	bash bench/run.sh -workload all -seed 1 -out runs/     # one child process per workload
//	bash bench/run.sh -workload byzantine -trace 1 -trace-out byz.trace.json
//	bash bench/run.sh -compare bench/baseline/set-a bench/baseline/set-b
//
// See bench/README.md for the workloads, the metrics and how to read them.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
)

// result is the line the benchmark ends its standard output with.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// host describes the machine a run measured; timings are only comparable
// between runs with the same host block.
type host struct {
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

func currentHost() host {
	return host{runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version()}
}

// record is one run as written by -out and read by -compare.
type record struct {
	Host     host    `json:"host"`
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Trace    bool    `json:"trace"`
	Seconds  float64 `json:"seconds"`
	result
	// Wall holds an untraced run's timings in seconds (see tally.wall).
	Wall     map[string]float64 `json:"wall,omitempty"`
	Failures []string           `json:"failures,omitempty"`
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run, or all (one child process each)")
	seed := fs.Int64("seed", 1, "seed of the job order")
	seconds := fs.Float64("seconds", 0, "minimum length of the timed section (0: run_seconds of BENCHMARK.json)")
	trace := fs.Int("trace", 0, "1: traced run printing the per-layer metrics")
	traceOut := fs.String("trace-out", "", "with -trace 1, write the spans to this file as Chrome trace-event JSON")
	outDir := fs.String("out", "", "also write the run's record, with its host block, into this directory")
	compare := fs.Bool("compare", false, "compare two directories of records: -compare PARENT CHANGE")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two directories")
			return 2
		}
		worse, err := compareDirs(sp, fs.Arg(0), fs.Arg(1), stdout)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		if worse {
			return 1
		}
		return 0
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "bench: -trace must be 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		*seconds = float64(sp.RunSeconds)
	}
	if *workload == "all" {
		return runAll(sp, args, stdout, stderr)
	}
	w, err := findWorkload(*workload)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	h := currentHost()
	hj, _ := json.Marshal(h) // strings and ints always marshal
	fmt.Fprintf(stdout, "# host %s\n", hj)
	fmt.Fprintf(stdout, "# workload %s seed %d seconds %g trace %d\n", w.name, *seed, *seconds, *trace)

	cfg := config{w: w, seed: *seed, seconds: *seconds, minJobs: defaultMinJobs, setups: defaultSetups}
	var tr *tracer
	if *trace == 1 {
		tr = newTracer()
	}
	o, err := run(cfg, tr)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	for _, f := range o.failures {
		fmt.Fprintln(stderr, "bench: failed:", f)
	}
	metrics, err := sp.label(o.metrics, tr != nil)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	res := result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: metrics}
	if wj, err := json.Marshal(o.wall); err == nil && o.wall != nil {
		fmt.Fprintf(stdout, "# wall %s\n", wj)
	}
	if tr != nil && *traceOut != "" {
		if err := tr.writeChrome(*traceOut, h); err != nil {
			fmt.Fprintln(stderr, "bench: write trace:", err)
			return 1
		}
	}
	if *outDir != "" {
		rec := record{Host: h, Workload: w.name, Seed: *seed, Trace: tr != nil, Seconds: *seconds, result: res, Wall: o.wall, Failures: o.failures}
		if err := writeRecord(*outDir, rec); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// runAll runs every declared workload in its own child process, one at a
// time, so each peak_rss_mb belongs to a single workload.
func runAll(sp *spec, args []string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	status := 0
	for _, w := range sp.Workloads {
		cmd := exec.Command(exe, append(append([]string(nil), args...), "-workload", w.Name)...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "bench: workload %s: %v\n", w.Name, err)
			status = 1
		}
	}
	return status
}

// writeRecord stores rec as <workload>-seed<N>[-trace]-<k>.json in dir, k
// the first unused run number, so the runs of one directory sort in the
// order they were made.
func writeRecord(dir string, rec record) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	kind := ""
	if rec.Trace {
		kind = "-trace"
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	for k := 1; ; k++ {
		path := filepath.Join(dir, fmt.Sprintf("%s-seed%d%s-%03d.json", rec.Workload, rec.Seed, kind, k))
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
		if errors.Is(err, os.ErrExist) {
			continue
		}
		if err != nil {
			return err
		}
		if _, err := f.Write(append(data, '\n')); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
}
