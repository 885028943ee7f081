// Command bench is Gallery's socket-to-socket benchmark: it builds
// galleryd and galleryserve from the checkout, boots them as subprocesses
// in their production configuration, drives them through internal/client
// from closed-loop clients, checks every answer, and prints every metric
// by name with its unit. See README.md beside this file.
//
//	go run -C bench .                          # all four workloads, then bench/out/results.json
//	go run -C bench . -workload predict_hot    # one workload
//	go run -C bench . -trace 1                 # also the in-process per-layer ladder
//	go run -C bench . -quick                   # 3 s per workload, for the harness's own test
//	go run -C bench . -compare A.json B.json   # regression verdict between two result sets
//
// BENCHMARK.json's command is bench/run.sh, which is this program with the
// Go build cache kept inside the checkout.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

var selfPid = os.Getpid()

// config is one invocation's knobs, all derived from the flags.
type config struct {
	seed     int64
	duration time.Duration // timed region of the fixed-time workloads
	trace    bool
	clients  int // closed-loop clients, one connection each

	setups       int           // fewest set-ups per run; setup_s is their median
	crashes      int           // fewest kill/restart cycles per run; recover_s is their median
	repeatBudget time.Duration // cheap set-ups and restarts repeat until this is spent
	writeIters   int           // registry_write's fixed list
	seedIters    int           // registry_read's set-up list
	rungOps      int           // operations per ladder rung
	rungWarm     int
}

// workload is one traffic mix against one freshly booted stack.
type workload interface {
	name() string
	// stackOpts: whether galleryd runs with -fsync, and extra gateway flags.
	stackOpts() (fsync bool, gatewayArgs []string)
	// generate makes the inputs from the seed; not timed.
	generate(cfg *config) error
	// setUp seeds the registry and warms the path; timed as setup_s and run
	// cfg.setups times on fresh stacks, so it resets what it recorded.
	setUp(st *stack, cfg *config) error
	// run is the timed region. Wrong answers count as failed.
	run(st *stack, cfg *config) loadResult
	// verify runs after galleryd was SIGKILLed and restarted: everything
	// acknowledged must be readable.
	verify(st *stack) (checked, wrong int)
	// userBytes is blob and metadata bytes the clients sent since boot.
	userBytes() int64
	// report adds the workload's own per-layer rows.
	report(m *metrics)
	// ladderOp names the ladder whose top rung is this workload's operation.
	ladderOp() string
}

var workloads = []workload{&predictHot{}, &registryWrite{}, &registryRead{}, &deployMixed{}}

// metric is one named number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics collects one run's numbers by name.
type metrics struct{ byN map[string]metric }

func (m *metrics) set(name string, v float64, unit string) {
	if m.byN == nil {
		m.byN = map[string]metric{}
	}
	m.byN[name] = metric{Value: v, Unit: unit}
}

// result is one workload's outcome: the line the driver reads, plus
// everything else measured, kept for results.json and -compare.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Error     string            `json:"error,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(realMain())
}

func realMain() (code int) {
	var (
		root     = flag.String("root", "", "checkout root (default: found from the working directory)")
		only     = flag.String("workload", "", "run one workload (default: all four, in order)")
		seed     = flag.Int64("seed", 1, "seed of every generated input")
		seconds  = flag.Float64("seconds", 10, "length of a timed region")
		trace    = flag.Int("trace", 0, "1: also run the in-process per-layer ladder and report per-layer metrics")
		quick    = flag.Bool("quick", false, "3 s per workload, short lists, 200 ops per rung")
		compareF = flag.Bool("compare", false, "compare two result sets: -compare A.json[,A2.json...] B.json[,...]")
		out      = flag.String("out", "", "results file (default bench/out/results.json)")
	)
	flag.Parse()

	if *root == "" {
		*root = findRoot()
	}
	if *compareF {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: -compare A.json[,A2.json...] B.json[,B2.json...]")
			return 2
		}
		return compare(*root, flag.Arg(0), flag.Arg(1))
	}

	cfg := &config{
		seed: *seed, duration: time.Duration(*seconds * float64(time.Second)), trace: *trace != 0,
		clients: runtime.NumCPU(), setups: 3, crashes: 3, repeatBudget: 4 * time.Second,
		seedIters: readSeedIters, rungOps: 2000, rungWarm: 200,
	}
	if *quick {
		cfg.duration = 3 * time.Second
		cfg.setups, cfg.crashes, cfg.repeatBudget, cfg.seedIters, cfg.rungOps, cfg.rungWarm = 1, 1, 0, 400, 200, 20
	}
	cfg.writeIters = int(cfg.duration.Seconds() * writeItersPerSecond)

	var run []workload
	for _, w := range workloads {
		if *only == "" || *only == w.name() {
			run = append(run, w)
		}
	}
	if len(run) == 0 {
		fmt.Fprintf(os.Stderr, "unknown workload %q\n", *only)
		return 2
	}

	env, err := newEnv(*root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	// Daemons die and temp dirs go on every way out: return, panic (deferred
	// calls run before the process dies of one), signal.
	defer env.cleanup()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		env.cleanup()
		os.Exit(130)
	}()

	if err := env.build(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}

	var results []result
	for _, w := range run {
		res, err := runWorkload(env, w, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name(), err)
			return 1
		}
		results = append(results, res)
		printResult(res)
		if !res.Correct {
			code = 1
		}
	}
	if *out == "" {
		*out = filepath.Join(env.outDir, "results.json")
	}
	if err := writeJSON(*out, map[string]any{"runs": results}); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	// The driver reads the last line of standard output.
	line, err := driverLine(env.root, results[len(results)-1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(line)
	return code
}

// findRoot looks for the source tree from the working directory: the
// checkout root itself, or bench/ inside it (go run -C bench).
func findRoot() string {
	for _, d := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(d, "cmd", "galleryd")); err == nil {
			return d
		}
	}
	return "."
}

func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

func printResult(r result) {
	fmt.Printf("== %s  seed=%d  correct=%v  attempted=%d  failed=%d\n", r.Workload, r.Seed, r.Correct, r.Attempted, r.Failed)
	if r.Error != "" {
		fmt.Printf("   first error: %s\n", r.Error)
	}
	for _, n := range sortedNames(r.Metrics) {
		fmt.Printf("   %-40s %16.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
}

// manifest is the part of BENCHMARK.json this program reads.
type manifest struct {
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readManifest(root string) (manifest, error) {
	var m manifest
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return m, err
	}
	return m, json.Unmarshal(raw, &m)
}

// driverLine is the contract's last line: exactly the end-to-end metrics
// without tracing, exactly the per-layer metrics with it. A metric
// BENCHMARK.json names that this run did not produce is an error in the
// benchmark, not a number to make up.
func driverLine(root string, r result) (string, error) {
	want, err := readManifest(root)
	if err != nil {
		return "", err
	}
	names := want.EndToEnd
	if r.Trace {
		names = want.PerLayer
	}
	ms := map[string]metric{}
	for _, n := range names {
		m, ok := r.Metrics[n.Name]
		if !ok {
			return "", fmt.Errorf("BENCHMARK.json names %s, which %s did not produce", n.Name, r.Workload)
		}
		ms[n.Name] = m
	}
	line, err := json.Marshal(map[string]any{"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": ms})
	return string(line), err
}

func sortedNames(ms map[string]metric) []string {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
