package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/trace"
	"repro/internal/wire"
)

// sizes fixes the work of one repetition of every workload. File sizes are
// the ISSUE's; counts were cut until a repetition takes one to two seconds,
// so that a run of -seconds holds several (README, "Sizes").
type sizes struct {
	WordInitial, WordSaves, WordGrowth       int
	SQLiteDB, SQLiteRounds                   int
	AppendFiles, AppendWrites, AppendSize    int
	PushClients                              int
	Pushes, PushPaths, PushPayload, PollEach int // per client
	FileserverIters                          int
}

var fullSizes = sizes{
	WordInitial: 2 << 20, WordSaves: 40, WordGrowth: 24 << 10,
	SQLiteDB: 32 << 20, SQLiteRounds: 60,
	AppendFiles: 4, AppendWrites: 18, AppendSize: 800 << 10,
	PushClients: 4, Pushes: 5000, PushPaths: 4096, PushPayload: 256, PollEach: 16,
	FileserverIters: 800,
}

// repEnv is what one repetition gets: a fresh directory, the seed every
// generator derives from, the sizes, and whether to trace.
type repEnv struct {
	dir    string
	seed   int64
	sz     sizes
	traced bool
	// setupOnly stops the repetition where its measured region would begin.
	setupOnly bool
}

func (e repEnv) tracer() *tracer {
	if !e.traced {
		return nil
	}
	return newTracer()
}

// rep is the outcome of one repetition.
type rep struct {
	setupS, workS, cpuS, allocMB float64
	stealS                       float64 // CPU time the hypervisor stole during the measured region
	tue                          float64
	opUS                         []float64 // one sample per application op (small_push: per push)
	uploadMS, peerMS             []float64
	uploadsBeforeSettle          int // uploading ticks while the application was still running
	attempted, failed            int
	problems                     []string           // oracle violations
	digest                       uint32             // CRC-32 of the final content the oracle read, in path order
	layer                        map[string]float64 // per-layer metrics of this repetition
	pushUS, srvPushUS            []float64          // traced: client- and server-side push times
	spans                        []span
}

// workload is one named set of inputs.
type workload struct {
	name string
	run  func(env repEnv) (*rep, error)
}

// The seed of each generator is the run's seed plus a fixed offset, so the
// generators of one run differ from each other and every one of them moves
// with -seed.
var workloads = []workload{
	{"word_txn", func(env repEnv) (*rep, error) {
		return runTraces(env, []*trace.Trace{trace.Word(trace.WordConfig{
			Path: "report.docx", InitialSize: env.sz.WordInitial, Saves: env.sz.WordSaves,
			Growth: env.sz.WordGrowth, Edits: 8, EditSize: 200,
			Interval: 10 * time.Second, Seed: env.seed + 1000,
		})})
	}},
	{"sqlite_inplace", func(env repEnv) (*rep, error) {
		return runTraces(env, []*trace.Trace{trace.WeChat(trace.WeChatConfig{
			Path: "chat.db", JournalPath: "chat.db-journal", InitialSize: env.sz.SQLiteDB,
			Rounds: env.sz.SQLiteRounds, SmallWrites: 4, SmallMax: 1500, AppendPages: 4,
			Interval: 2 * time.Second, Seed: env.seed + 2000,
		})})
	}},
	{"bulk_append", func(env repEnv) (*rep, error) {
		var traces []*trace.Trace
		for i := 0; i < env.sz.AppendFiles; i++ {
			traces = append(traces, trace.Append(trace.AppendConfig{
				Path: fmt.Sprintf("append%d.dat", i), Writes: env.sz.AppendWrites,
				WriteSize: env.sz.AppendSize, Interval: 15 * time.Second, Seed: env.seed + 3000 + int64(i),
			}))
		}
		return runTraces(env, traces)
	}},
	{"small_push", runSmallPush},
	{"fileserver_mix", runFileserver},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// usage is the process's CPU time and allocated bytes over a measured region,
// and the CPU time the hypervisor took from the whole machine meanwhile.
type usage struct {
	cpu   time.Duration
	alloc uint64
	steal time.Duration
}

// stealTime reads the machine's cumulative stolen CPU time from /proc/stat
// (the eighth figure of the "cpu" line, in USER_HZ = 1/100 s). Zero where
// there is no such file.
func stealTime() time.Duration {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	f := strings.Fields(strings.SplitN(string(b), "\n", 2)[0])
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, _ := strconv.ParseInt(f[8], 10, 64)
	return time.Duration(ticks) * 10 * time.Millisecond
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF with a valid pointer
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		cpu:   time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc: ms.TotalAlloc,
		steal: stealTime(),
	}
}

// measure is the state captured where a measured region begins.
type measure struct {
	u       usage
	encodes int64
}

// beginMeasure marks the end of set-up: span recording turns on and the
// resource counters are read.
func (s *stack) beginMeasure() measure {
	// Set-up work (seeding, priming checksums) is not the workload's.
	s.srvMeter.Reset()
	for _, c := range s.clients {
		c.meter.Reset()
		c.traffic.Reset()
		if c.tfs != nil {
			c.tfs.readBytes.Store(0)
			c.tfs.writeBytes.Store(0)
		}
		if c.kvfs != nil {
			c.kvfs.writeBytes.Store(0)
			c.kvfs.fsyncs.Store(0)
		}
	}
	s.jfs.writeBytes.Store(0)
	s.jfs.fsyncs.Store(0)
	runtime.GC()
	m := measure{u: readUsage(), encodes: wire.BatchEncodes()}
	if s.t != nil {
		s.t.on.Store(true)
	}
	return m
}

func (s *stack) endMeasure(m measure) usage {
	if s.t != nil {
		s.t.on.Store(false)
	}
	u := readUsage()
	s.encodes = wire.BatchEncodes() - m.encodes
	return usage{cpu: u.cpu - m.u.cpu, alloc: u.alloc - m.u.alloc, steal: u.steal - m.u.steal}
}

// serverProblems are the oracle's server-side checks, shared by all
// workloads.
func (s *stack) serverProblems() []string {
	var bad []string
	if n := s.srv.DuplicateApplies(); n > 0 {
		bad = append(bad, fmt.Sprintf("server: %d duplicate applies", n))
	}
	if d := s.srv.OutboxStats().Drops; d > 0 {
		bad = append(bad, fmt.Sprintf("server: %d forwarded batches dropped", d))
	}
	if r := s.srv.Degraded(); r != "" {
		bad = append(bad, "server: degraded: "+r)
	}
	return bad
}

// result is what a set of repetitions of one workload reduces to.
type result struct {
	Workload  string             `json:"workload"`
	Traced    bool               `json:"traced"`
	Reps      int                `json:"reps"`
	Disturbed int                `json:"reps_disturbed"` // left out of the timings: too much CPU stolen
	Attempted int                `json:"ops_attempted"`
	Failed    int                `json:"ops_failed"`
	Converged bool               `json:"converged"`
	Problems  []string           `json:"problems,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
	WorkS     []float64          `json:"work_s_per_rep"` // in order, to show drift within a run
	StealS    []float64          `json:"steal_s_per_rep"`
	spans     []span
}

// runReps repeats a workload: one warm-up repetition if asked, then
// repetitions until budget has been spent measuring, three at least. Every
// repetition builds and tears down its own stack, so set-up is measured as
// often as the work.
//
// With a warm-up it also returns extra set-up times. Set-up takes a few
// milliseconds on most workloads, and ten samples of that are mostly jitter;
// a set-up without the work behind it is cheap, so up to forty more are taken
// (five at least, and no more than a twentieth of the budget).
func runReps(w workload, env repEnv, budget time.Duration, warmUp bool) (reps []*rep, setups []float64, err error) {
	root := env.dir
	one := func(i int) (*rep, error) {
		env.dir = filepath.Join(root, fmt.Sprintf("%s-rep%d", w.name, i))
		r, err := w.run(env)
		if err != nil {
			return nil, fmt.Errorf("%s: repetition %d: %w", w.name, i, err)
		}
		return r, nil
	}
	if warmUp {
		if _, err := one(0); err != nil {
			return nil, nil, err
		}
		env.setupOnly = true
		for i, t0 := 0, time.Now(); i < 5 || (i < 40 && time.Since(t0) < budget/20); i++ {
			r, err := one(0)
			if err != nil {
				return nil, nil, err
			}
			setups = append(setups, r.setupS)
		}
		env.setupOnly = false
	}
	// A stretch of host contention can disturb every repetition of a budget;
	// the run then goes on, for up to half a budget more, until three are
	// quiet. (No longer: the driver's runs share one time limit.)
	start, quiet := time.Now(), 0
	for i := 1; i <= 3 || time.Since(start) < budget || (quiet < 3 && time.Since(start) < budget*3/2); i++ {
		r, err := one(i)
		if err != nil {
			return nil, nil, err
		}
		reps = append(reps, r)
		if r.quiet() {
			quiet++
		}
	}
	return reps, setups, nil
}

// maxStealShare is how much of a repetition's CPU capacity the hypervisor may
// have given to someone else before the repetition stops being a measurement
// of this program.
const maxStealShare = 0.02

func (r *rep) stealShare() float64 { return ratio(r.stealS, r.workS*float64(runtime.NumCPU())) }
func (r *rep) quiet() bool         { return r.stealShare() <= maxStealShare }

// undisturbed returns the repetitions to take timings from: those during
// which the hypervisor stole at most maxStealShare of the machine's CPU time.
// On a shared host a stretch of contention makes whole repetitions two to
// five times slower, and /proc/stat says when. If fewer than three are
// quiet, the three least disturbed are used.
func undisturbed(reps []*rep) []*rep {
	var quiet []*rep
	for _, r := range reps {
		if r.quiet() {
			quiet = append(quiet, r)
		}
	}
	if len(quiet) >= 3 {
		return quiet
	}
	if len(reps) <= 3 {
		return reps
	}
	byShare := append([]*rep(nil), reps...)
	sort.SliceStable(byShare, func(i, j int) bool { return byShare[i].stealShare() < byShare[j].stealShare() })
	return byShare[:3]
}

// reduce turns repetitions into the workload's end-to-end metrics: medians
// over the undisturbed repetitions, latency percentiles over their pooled
// samples. Failures are counted over all repetitions. setups are set-up times
// measured beside those of the repetitions.
func reduce(w workload, reps []*rep, setups []float64) *result {
	res := &result{Workload: w.name, Reps: len(reps), Metrics: map[string]float64{}}
	for _, r := range reps {
		res.WorkS, res.StealS = append(res.WorkS, r.workS), append(res.StealS, r.stealS)
		res.Attempted += r.attempted
		res.Failed += r.failed
		res.Problems = append(res.Problems, r.problems...)
	}
	reps = undisturbed(reps)
	res.Disturbed = res.Reps - len(reps)
	setup := setups
	var work, cpu, alloc, tue, ops, up, peer []float64
	for _, r := range reps {
		setup, work = append(setup, r.setupS), append(work, r.workS)
		cpu, alloc = append(cpu, r.cpuS), append(alloc, r.allocMB)
		tue = append(tue, r.tue)
		ops, up, peer = append(ops, r.opUS...), append(up, r.uploadMS...), append(peer, r.peerMS...)
	}
	res.Converged = len(res.Problems) == 0
	m := res.Metrics
	m["setup_s"], m["work_s"] = median(setup), median(work)
	m["cpu_s"], m["alloc_mb"] = median(cpu), median(alloc)
	m["tue"] = median(tue)
	sort.Float64s(ops) // quantile sorts a copy; sorted input makes the three calls cheap
	m["op_p50_us"], m["op_p90_us"], m["op_p99_us"] = quantile(ops, 0.50), quantile(ops, 0.90), quantile(ops, 0.99)
	m["upload_p50_ms"], m["upload_p90_ms"] = quantile(up, 0.50), quantile(up, 0.90)
	m["peer_visible_p50_ms"] = quantile(peer, 0.50)
	return res
}

// reduceTraced turns a traced run into the per-layer metrics: medians over
// the traced repetitions, push percentiles over their pooled spans, and from
// the untraced repetitions the end-to-end figures that are not gated.
func reduceTraced(w workload, plain, traced []*rep) *result {
	base := reduce(w, plain, nil)
	res := reduce(w, traced, nil)
	res.Traced = true
	res.Attempted += base.Attempted
	res.Failed += base.Failed
	res.Problems = append(res.Problems, base.Problems...)
	res.Converged = len(res.Problems) == 0

	m := map[string]float64{}
	byKey := map[string][]float64{}
	var push, srvPush []float64
	for _, r := range traced {
		for k, v := range r.layer {
			byKey[k] = append(byKey[k], v)
		}
		push, srvPush = append(push, r.pushUS...), append(srvPush, r.srvPushUS...)
	}
	for k, vs := range byKey {
		m[k] = median(vs)
	}
	m["server.push_p50_us"], m["server.push_p99_us"] = quantile(srvPush, 0.50), quantile(srvPush, 0.99)
	// small_push times its pushes itself; those untraced samples are the
	// better figure. The engines' pushes are only visible at the seam.
	var plainPush []float64
	for _, r := range plain {
		plainPush = append(plainPush, r.pushUS...)
	}
	if len(plainPush) > 0 {
		push = plainPush
	}
	m["push_p50_us"], m["push_p99_us"] = quantile(push, 0.50), quantile(push, 0.99)
	for _, k := range []string{"work_s", "cpu_s", "op_p50_us", "op_p90_us", "op_p99_us",
		"upload_p50_ms", "upload_p90_ms", "peer_visible_p50_ms"} {
		m[k] = base.Metrics[k]
	}
	m["trace.overhead_ratio"] = ratio(res.Metrics["work_s"], base.Metrics["work_s"])
	res.Metrics = m
	res.spans = traced[len(traced)-1].spans
	return res
}
