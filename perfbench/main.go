// Command perfbench is the repository's benchmark: it runs one named
// workload against the library, checks every job's output against the
// paper's own oracles, and prints end-to-end metrics (or, traced, per-layer
// metrics) as one JSON object on the last line of standard output. See
// README.md in this directory.
//
//	bash perfbench/run.sh --workload fluid-analysis --seed 1 --seconds 40 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// job is one operation: it builds its inputs, calls into the program and
// checks the outputs. out is what the job digest covers; keep is the
// job's result (a trajectory, a queue series, the FCTs — not the network
// that produced it), held live while the heap is measured; a non-nil err
// (an error, a panic or a missed oracle) fails the operation.
type job struct {
	id  string
	run func(m *meter) (out map[string]float64, keep any, err error)
}

type workload struct {
	name string
	jobs func(seed int64) []job
}

var workloads = []workload{
	{"fluid-analysis", fluidAnalysisJobs},
	{"packet-incast", packetIncastJobs},
	{"packet-churn", packetChurnJobs},
}

// minRounds is the fewest timed rounds an untraced run reports on,
// whatever --seconds says.
const minRounds = 3

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: fluid-analysis | packet-incast | packet-churn")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 10, "measuring time; rounds repeat until it is spent")
	trace := fs.Int("trace", 0, "1: report per-layer metrics from traced rounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload fluid-analysis|packet-incast|packet-churn, --trace 0|1, --seconds > 0\n")
		return 2
	}
	tracing := *trace == 1

	jobs := w.jobs(*seed)
	b := newBench(jobs)
	start := time.Now()
	budget := time.Duration(*seconds * float64(time.Second))
	for {
		r := b.round(b.next(tracing))
		if b.enough(tracing) && time.Since(start)+r.wall > budget {
			break
		}
	}

	meta := runMeta(w.name, *seed, tracing)
	meta["round_wall_s"], meta["round_cpu_s"], meta["round_setup_s"] = b.timedSeries()
	mj, _ := json.Marshal(meta)
	fmt.Printf("# meta %s\n", mj)
	for i, j := range jobs {
		fmt.Printf("# digest %s %s\n", j.id, b.digests[i])
	}
	fmt.Printf("# digest workload %s\n", combineDigests(b.digests))
	for _, l := range b.exactLines() {
		fmt.Println(l)
	}
	for _, f := range b.failures {
		fmt.Fprintf(os.Stderr, "perfbench: %s\n", f)
	}

	var ms metricSet
	if tracing {
		ms = b.layerMetrics()
		path := filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.jsonl", w.name, *seed))
		if err := saveSpans(path, b.rounds[traced]); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
		}
	} else {
		ms = b.endToEnd()
	}
	correct := len(b.failures) == 0
	res := struct {
		Correct   bool      `json:"correct"`
		Attempted int       `json:"attempted"`
		Failed    int       `json:"failed"`
		Metrics   metricSet `json:"metrics"`
	}{correct, b.attempted, b.failed, ms}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(out))
	if !correct {
		return 1
	}
	return 0
}

// runMeta records the host and build a run measured on.
func runMeta(name string, seed int64, traced bool) map[string]any {
	return map[string]any{
		"workload":   name,
		"seed":       seed,
		"traced":     traced,
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit(),
	}
}

func saveSpans(path string, rounds []*roundResult) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	for _, r := range rounds {
		if err := writeSpans(f, r.m.spans); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
