// Command benchmark is the repository's end-to-end and per-layer
// benchmark. It runs one workload for a fixed time, checks every output
// of the program against an oracle computed apart from the serving path,
// and prints one JSON result line. See README.md for the workloads, the
// metrics and how to read them.
//
// Usage (from the repository root, through run.sh which builds first):
//
//	bash benchmark/run.sh --workload serve-read --seed 1 --seconds 15 --trace 0
//	bash benchmark/run.sh --steady 10 --seconds 15
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/mat"
)

// env is what every workload gets from the command line.
type env struct {
	bellamy string        // path of the built bellamy binary
	work    string        // scratch directory, removed at the end
	seed    int64         // input seed; the program sees only generated inputs
	seconds time.Duration // length of the measured phase
	trace   bool          // follow the run with the layer run and report its metrics
	sizes   sizes
}

func (e *env) rng(stream int64) *rand.Rand {
	return rand.New(rand.NewSource(e.seed*7919 + stream))
}

// sizes scales a workload. The benchmark runs at fullSizes; the tests
// run every workload at tinySizes.
type sizes struct {
	setups         int // set-ups per run; setup_s is their median
	servedEpochs   int // pre-training epochs of the served models
	population     int // serve-read query population (about twice the result cache)
	restarts       int // serve-read restarts timed after the measured loop
	seedObs        int // observations seeded into the serve-write data dir
	ingestPerKey   int // durable observes per key and serve-write cycle
	ingestQueries  int // serve-write predict set, small enough to stay cached
	observeBuffer  int // serve-write per-key observation ring (the fine-tune window)
	pretrainEpochs int // train-crosscontext general-model epochs
	finetuneEpochs int // train-crosscontext epochs per target fit
	targetsPerJob  int // train-crosscontext held-out target contexts per job
}

var fullSizes = sizes{
	setups: 3, servedEpochs: 10, population: 8192, restarts: 15,
	seedObs: 100_000, ingestPerKey: 48, ingestQueries: 1024, observeBuffer: 32,
	pretrainEpochs: 20, finetuneEpochs: 250, targetsPerJob: 6,
}

var tinySizes = sizes{
	setups: 1, servedEpochs: 2, population: 512, restarts: 1,
	seedObs: 2_000, ingestPerKey: 6, ingestQueries: 64, observeBuffer: 8,
	pretrainEpochs: 10, finetuneEpochs: 100, targetsPerJob: 2,
}

// outcome is what a workload run reports.
type outcome struct {
	metrics   map[string]float64 // e2e roles, or layer metrics in a layer run
	counters  map[string]float64 // per-layer counters read during the run
	named     []string           // the workload's own metric names, for the log
	attempted int64
	failed    int64
	bad       int64    // outputs that failed a correctness check
	badMsgs   []string // the first few of them
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]float64{}, counters: map[string]float64{}}
}

// wrong records an output that failed a correctness check.
func (o *outcome) wrong(format string, args ...any) {
	o.bad++
	if len(o.badMsgs) < 10 {
		o.badMsgs = append(o.badMsgs, fmt.Sprintf(format, args...))
	}
}

// failure records an operation that failed (an error or a refusal
// instead of an answer). Correctness speaks only of answered operations.
func (o *outcome) failure(format string, args ...any) {
	o.failed++
	if len(o.badMsgs) < 10 {
		o.badMsgs = append(o.badMsgs, "FAILED: "+fmt.Sprintf(format, args...))
	}
}

func (o *outcome) name(name string, v float64, unit string) {
	o.named = append(o.named, fmt.Sprintf("%s=%.4g%s", name, v, unit))
}

type workload struct {
	name string
	run  func(*env) (*outcome, error)
}

var workloads = []workload{
	{"serve-read", runServeRead},
	{"serve-write", runServeWrite},
	{"train-crosscontext", runTrainCrossContext},
}

// e2eUnits lists the end-to-end metrics every workload reports, with
// their units. README.md maps each to what it measures per workload.
var e2eUnits = map[string]string{
	"setup_s":       "s",
	"max_rss_mb":    "MB",
	"cpu_us_per_op": "us",
	"op_p50_us":     "us",
	"op2_p50_us":    "us",
	"heavy_ms":      "ms",
	"restart_ms":    "ms",
}

func main() {
	name := flag.String("workload", "", "workload: serve-read, serve-write or train-crosscontext (steadiness mode: a comma-separated list, empty for all)")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 15, "length of the measured phase in seconds")
	trace := flag.Int("trace", 0, "1 runs the layer run and prints per-layer metrics")
	bellamy := flag.String("bellamy", "", "path of the built bellamy binary")
	work := flag.String("work", "", "scratch directory for models and data dirs")
	steady := flag.Int("steady", 0, "steadiness mode: this many interleaved runs of every workload")
	flag.Parse()

	if *bellamy == "" || *work == "" {
		fatalf("missing -bellamy or -work (run through benchmark/run.sh)")
	}
	e := &env{bellamy: *bellamy, work: *work, seed: *seed,
		seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1, sizes: fullSizes}
	if *steady > 0 {
		if err := runSteady(e, *steady, *name); err != nil {
			fatalf("%v", err)
		}
		return
	}
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		fatalf("unknown workload %q", *name)
	}
	fmt.Println(hostFingerprint())
	o, err := runOnce(e, wl)
	if err != nil {
		fatalf("%s: %v", wl.name, err)
	}
	fmt.Printf("%s: %s\n", wl.name, strings.Join(o.named, " "))
	for _, m := range o.badMsgs {
		fmt.Printf("%s: WRONG: %s\n", wl.name, m)
	}
	line, err := resultLine(o, e.trace)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(line)
}

// runOnce runs one workload in a fresh scratch directory and removes it
// afterwards.
func runOnce(e *env, wl *workload) (*outcome, error) {
	run := *e
	run.work = filepath.Join(e.work, fmt.Sprintf("%s-%d", wl.name, os.Getpid()))
	if err := os.RemoveAll(run.work); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(run.work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(run.work)
	o, err := wl.run(&run)
	if err != nil || !e.trace {
		return o, err
	}
	// The layer run: the end-to-end run above supplied the counters.
	o.metrics, err = layerRun(&run, o.counters)
	return o, err
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine renders the result object. Correctness covers the
// operations that did not fail.
func resultLine(o *outcome, trace bool) (string, error) {
	metrics := map[string]metricJSON{}
	if trace {
		for _, l := range layerMetrics {
			metrics[l.name] = metricJSON{Value: o.metrics[l.name], Unit: l.unit}
		}
	} else {
		for name, unit := range e2eUnits {
			v, ok := o.metrics[name]
			if !ok {
				return "", fmt.Errorf("workload did not measure %s", name)
			}
			metrics[name] = metricJSON{Value: v, Unit: unit}
		}
	}
	b, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int64                 `json:"attempted"`
		Failed    int64                 `json:"failed"`
		Metrics   map[string]metricJSON `json:"metrics"`
	}{o.bad == 0, o.attempted, o.failed, metrics})
	return string(b), err
}

// hostFingerprint names what the figures depend on: CPU model, CPU
// count, Go version, the selected GEMM kernel family and the serving
// precision (the servers run with their float32 default).
func hostFingerprint() string {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				cpu = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	return fmt.Sprintf("host: cpu=%q nproc=%d go=%s kernels=%s serving=f32",
		cpu, runtime.NumCPU(), runtime.Version(), mat.KernelFamily())
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(1)
}

// sortedNames returns a map's keys in order, for stable output.
func sortedNames[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
