// Command bench is the repository's benchmark: five workloads through the
// shipping path (core.Engine over vfs.DirFS, wire over loopback TCP,
// wire.ServeWith in front of a journaled server.Server, a second engine as
// sharing peer), end-to-end metrics from untraced repetitions and per-layer
// metrics from a traced run that wraps only public seams. README.md has the
// metric definitions and how the layers are expected to move them.
//
//	bench -workload NAME [-seed N] [-seconds S] [-trace 0|1] [-dir D] [-out F]
//	bench -compare A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

func main() { os.Exit(run()) }

func run() int {
	workloadFlag := flag.String("workload", "all", "workload to run, or all")
	seed := flag.Int64("seed", 1, "seed every generator derives from")
	seconds := flag.Int("seconds", 12, "time to spend measuring each workload")
	trace := flag.String("trace", "0", "1 = traced run: per-layer metrics; 0 = end-to-end metrics")
	dir := flag.String("dir", "", "data directory (default: a fresh one under .bench_build/data)")
	out := flag.String("out", "", "append this run (environment, metrics, spans) to a JSON file")
	compare := flag.Bool("compare", false, "compare two -out files: bench -compare A.json B.json")
	flag.Parse()
	fail := func(code int, args ...any) int {
		fmt.Fprintln(os.Stderr, append([]any{"bench:"}, args...)...)
		return code
	}

	if *compare {
		if flag.NArg() != 2 {
			return fail(2, "usage: bench -compare A.json B.json")
		}
		return runCompare(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1))
	}

	traced := *trace == "1"
	if !traced && *trace != "0" {
		return fail(2, fmt.Sprintf("-trace %q: want 0 or 1", *trace))
	}
	todo := workloads
	if *workloadFlag != "all" {
		w, ok := findWorkload(*workloadFlag)
		if !ok {
			return fail(2, fmt.Sprintf("unknown workload %q", *workloadFlag))
		}
		todo = []workload{w}
	}

	dataDir, err := makeDataDir(*dir)
	if err != nil {
		return fail(1, err)
	}
	defer os.RemoveAll(dataDir)

	env := repEnv{dir: dataDir, seed: *seed, sz: fullSizes}
	doc := runDoc{Env: readEnvironment(dataDir), Seed: *seed, Seconds: *seconds, Sizes: fullSizes}
	fmt.Printf("# %s  GOMAXPROCS=%d NumCPU=%d  commit=%s dirty=%v  seed=%d  data=%s (%s)\n",
		doc.Env.GoVersion, doc.Env.GOMAXPROCS, doc.Env.NumCPU, doc.Env.Commit, doc.Env.Dirty,
		*seed, dataDir, doc.Env.DataFS)

	// The kernels do not depend on the workload: once per invocation.
	kernels := map[string]float64{}
	if traced {
		if err := runKernels(kernels, *seed, dataDir); err != nil {
			return fail(1, err)
		}
	}

	ok := true
	var lines []string
	for _, w := range todo {
		res, err := runWorkload(w, env, time.Duration(*seconds)*time.Second, traced)
		if err != nil {
			return fail(1, err)
		}
		for k, v := range kernels {
			res.Metrics[k] = v
		}
		printResult(os.Stdout, res)
		doc.Results = append(doc.Results, res)
		ok = ok && res.Converged && res.Failed == 0
		lines = append(lines, contractLine(res))
	}
	if *out != "" {
		if err := appendRun(*out, &doc); err != nil {
			return fail(1, err)
		}
	}
	// The driver reads the last line of standard output; with -workload all
	// there is one line per workload, in order.
	for _, l := range lines {
		fmt.Println(l)
	}
	if !ok {
		return 1
	}
	return 0
}

// makeDataDir returns a fresh directory for this process's repetitions. The
// default sits inside the working directory, which the benchmark may not
// leave; -dir can point at a tmpfs when disk noise matters more.
func makeDataDir(dir string) (string, error) {
	if dir == "" {
		dir = filepath.Join(".bench_build", "data")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(dir, "run-")
}

// runWorkload measures one workload. Untraced: repetitions for the whole
// budget, end-to-end metrics. Traced: half the budget untraced (the
// end-to-end figures that cannot be gated, and the base of the overhead
// ratio), half traced.
func runWorkload(w workload, env repEnv, budget time.Duration, traced bool) (*result, error) {
	if !traced {
		reps, setups, err := runReps(w, env, budget, true)
		if err != nil {
			return nil, err
		}
		return reduce(w, reps, setups), nil
	}
	plain, _, err := runReps(w, env, budget/2, true)
	if err != nil {
		return nil, err
	}
	env.traced = true
	tracedReps, _, err := runReps(w, env, budget/2, false)
	if err != nil {
		return nil, err
	}
	return reduceTraced(w, plain, tracedReps), nil
}

// contractLine is the one-line JSON object the benchmark contract asks for:
// the end-to-end metrics of an untraced run, the per-layer ones of a traced.
func contractLine(res *result) string {
	specs := endToEnd
	if res.Traced {
		specs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Converged && res.Failed == 0, res.Attempted, res.Failed, map[string]value{}}
	for _, s := range specs {
		line.Metrics[s.Name] = value{res.Metrics[s.Name], s.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		panic(err) // only floats, strings and ints: cannot fail unless a metric is NaN, which is a bug
	}
	return string(b)
}

// printResult prints every metric the run produced, by name, with its unit.
func printResult(out *os.File, res *result) {
	mode := "end-to-end (untraced)"
	if res.Traced {
		mode = "per-layer (traced)"
	}
	fmt.Fprintf(out, "\n== %s: %s, %d repetitions (%d disturbed), ops_attempted=%d ops_failed=%d converged=%v\n",
		res.Workload, mode, res.Reps, res.Disturbed, res.Attempted, res.Failed, res.Converged)
	for _, p := range res.Problems {
		fmt.Fprintln(out, "   PROBLEM:", p)
	}
	fmt.Fprintf(out, "   work_s per repetition: %.3f\n   steal_s per repetition: %.2f\n", res.WorkS, res.StealS)
	units := map[string]string{}
	for _, s := range append(append([]metricSpec{}, endToEnd...), perLayer...) {
		units[s.Name] = s.Unit
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "   %-32s %14.4f %s\n", n, res.Metrics[n], units[n])
	}
}
