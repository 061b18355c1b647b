package main

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"math/rand"
	"sort"
	"strings"
	"time"

	"repro/internal/clock"
	"repro/internal/filebench"
	"repro/internal/trace"
	"repro/internal/vfs"
)

// engineRun drives one repetition of an engine workload: client A's engine
// over DirFS and TCP, and (for the trace workloads) a second engine B as the
// sharing peer. The driver is one goroutine and every loop is closed: A's
// call returns before the next begins, and B ticks only right after a tick
// of A's that uploaded. The clock is logical, so the 3 s upload delay costs
// no wall time and work is compute plus real IO.
type engineRun struct {
	st   *stack
	a, b *client // b is nil without a peer
	clk  *clock.Clock
	rep  *rep

	app  *timedFS // A's Engine.FS() seen from the application's position
	work time.Duration
	ops  int
}

// timed runs one call into the system, adds its duration to the work total
// and, when tracing, records it as a root span of the core layer.
func (r *engineRun) timed(name string, c *client, fn func() error) (time.Duration, error) {
	var d time.Duration
	var err error
	if t := r.st.t; t != nil {
		id := t.beginClient(layerCore, name, c.id, uint64(r.ops))
		err = fn()
		d = t.endClient(id, 0)
	} else {
		t0 := time.Now()
		err = fn()
		d = time.Since(t0)
	}
	r.work += d
	return d, err
}

// newEngineRun assembles the stack. seed fills A's backing directory with the
// workload's initial files; the same bytes then go to the server and to B.
func newEngineRun(env repEnv, peer bool, o engineOpts, seed func(fs vfs.FS) error) (*engineRun, error) {
	st, err := newStack(env.dir, env.tracer())
	if err != nil {
		return nil, err
	}
	r := &engineRun{st: st, clk: &clock.Clock{}, rep: &rep{}}
	fail := func(err error) (*engineRun, error) {
		st.close()
		return nil, err
	}
	if r.a, err = st.dial(); err != nil {
		return fail(err)
	}
	if err := st.openBacking(r.a, "a"); err != nil {
		return fail(err)
	}
	if peer {
		if r.b, err = st.dial(); err != nil {
			return fail(err)
		}
		if err := st.openBacking(r.b, "b"); err != nil {
			return fail(err)
		}
	}
	if err := seed(r.a.dirfs); err != nil {
		return fail(fmt.Errorf("seed: %w", err))
	}
	paths, err := r.a.dirfs.List("")
	if err != nil {
		return fail(err)
	}
	for _, p := range paths {
		content, err := r.a.dirfs.ReadFile(p)
		if err != nil {
			return fail(err)
		}
		st.srv.SeedFile(p, content)
		if peer {
			if err := r.b.dirfs.WriteAt(p, 0, content); err != nil {
				return fail(err)
			}
		}
	}
	if err := st.startEngine(r.a, r.clk, o); err != nil {
		return fail(err)
	}
	if peer {
		if err := st.startEngine(r.b, r.clk, o); err != nil {
			return fail(err)
		}
	}
	// The application's view of A: every file operation is one timed op.
	r.app = &timedFS{fs: r.a.eng.FS(), span: func(name string, _ int64, fn func() error) error {
		r.ops++
		d, err := r.timed("op", r.a, fn)
		// Close is the FUSE release notification: no data, no IO, a
		// microsecond. It counts as work and as an op attempted, but among
		// the latency samples it would put bulk_append's median (one write,
		// one close per append) exactly between its two kinds of op.
		if name != "close" {
			r.rep.opUS = append(r.rep.opUS, float64(d)/1e3)
		}
		if err != nil {
			r.rep.failed++
		}
		return err
	}}
	return r, nil
}

// advance ticks (or drains) one client's engine at the clock's time.
func (r *engineRun) advance(name string, c *client, drain bool) (time.Duration, error) {
	return r.timed(name, c, func() error {
		if drain {
			return c.eng.Drain()
		}
		c.eng.Tick(r.clk.Now())
		return nil
	})
}

// tick advances A to the clock's time. If that uploaded something, the peer
// ticks at once (it polls and applies), which gives one upload sample and
// one peer-visible sample.
func (r *engineRun) tick(drain bool) error {
	before := r.a.eng.Stats().UploadedBatches
	d, err := r.advance("tick", r.a, drain)
	if err != nil {
		return err
	}
	if r.a.eng.Stats().UploadedBatches == before {
		return nil
	}
	r.rep.uploadMS = append(r.rep.uploadMS, float64(d)/1e6)
	if r.b == nil {
		return nil
	}
	applied := r.b.eng.Stats().RemoteApplied
	d2, err := r.advance("peer_tick", r.b, drain)
	if err != nil {
		return err
	}
	// B polls at most once per logical second; a tick that did not poll
	// made nothing visible and is not a sample.
	if r.b.eng.Stats().RemoteApplied > applied {
		r.rep.peerMS = append(r.rep.peerMS, float64(d+d2)/1e6)
	}
	return nil
}

// replay streams the traces through A one after the other on one time line.
// Only the calls into the system are timed: the generator runs between them.
func (r *engineRun) replay(traces []*trace.Trace) error {
	var base time.Duration
	for _, tr := range traces {
		var last time.Duration
		err := tr.Run(func(op vfs.Op, at time.Duration) error {
			last = at
			r.clk.Set(base + at)
			if err := r.tick(false); err != nil {
				return err
			}
			return vfs.Apply(r.app, op)
		})
		if err != nil {
			return fmt.Errorf("trace %s: %w", tr.Name, err)
		}
		base += last
	}
	return r.settle()
}

// settle moves the clock past every delay, then drains both sides.
func (r *engineRun) settle() error {
	r.rep.uploadsBeforeSettle = len(r.rep.uploadMS)
	r.clk.Advance(trace.DrainGrace)
	if err := r.tick(false); err != nil {
		return err
	}
	if err := r.tick(true); err != nil {
		return err
	}
	if r.b != nil {
		// A's drain may have uploaded nothing new; B still has to poll the
		// last forwards.
		if _, err := r.advance("peer_tick", r.b, true); err != nil {
			return err
		}
	}
	return nil
}

// finish runs the convergence oracle, fills the repetition's counts and
// tears the stack down. updateBytes and writeBytes are the workload's
// logical update size and total written payload.
func (r *engineRun) finish(u usage, updateBytes, writeBytes int64) (*rep, error) {
	rep := r.rep
	rep.workS = r.work.Seconds()
	rep.cpuS, rep.allocMB, rep.stealS = u.cpu.Seconds(), float64(u.alloc)/1e6, u.steal.Seconds()
	rep.attempted = r.ops

	wireBytes := r.a.traffic.Uploaded()
	if r.b != nil {
		wireBytes += r.b.traffic.Downloaded()
	}
	rep.tue = float64(wireBytes) / float64(updateBytes)

	rep.problems = r.oracle()
	rep.failed += len(rep.problems)
	r.layerCounts(updateBytes, writeBytes)
	if err := r.st.close(); err != nil {
		return nil, err
	}
	return rep, nil
}

// oracle checks that the repetition converged: server, A's directory and B's
// directory hold byte-identical content for every path outside .deltacfs/,
// and no failure counter moved.
func (r *engineRun) oracle() []string {
	var bad []string
	clients := []*client{r.a}
	if r.b != nil {
		clients = append(clients, r.b)
	}
	seen := map[string]bool{}
	for _, p := range r.st.srv.Files() {
		seen[p] = true
	}
	for _, c := range clients {
		paths, err := c.dirfs.List("")
		if err != nil {
			return append(bad, fmt.Sprintf("client %d: list: %v", c.id, err))
		}
		for _, p := range paths {
			if !strings.HasPrefix(p, ".deltacfs/") {
				seen[p] = true
			}
		}
	}
	paths := make([]string, 0, len(seen))
	for p := range seen {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		want, ok := r.st.srv.FileContent(p)
		if !ok {
			bad = append(bad, p+": missing on the server")
			continue
		}
		r.rep.digest = crc32.Update(r.rep.digest, crc32.IEEETable, want)
		for _, c := range clients {
			got, err := c.dirfs.ReadFile(p)
			if err != nil {
				bad = append(bad, fmt.Sprintf("%s: client %d: %v", p, c.id, err))
			} else if !bytes.Equal(got, want) {
				bad = append(bad, fmt.Sprintf("%s: client %d differs from the server (%d vs %d bytes)", p, c.id, len(got), len(want)))
			}
		}
	}
	for _, c := range clients {
		if err := c.eng.LastPushError(); err != nil {
			bad = append(bad, fmt.Sprintf("client %d: push error: %v", c.id, err))
		}
		if s := c.eng.Stats(); s.Conflicts+s.RemoteConflicts > 0 {
			bad = append(bad, fmt.Sprintf("client %d: %d conflicts", c.id, s.Conflicts+s.RemoteConflicts))
		}
	}
	return append(bad, r.st.serverProblems()...)
}

// runTraces is one repetition of a trace workload.
func runTraces(env repEnv, traces []*trace.Trace) (*rep, error) {
	t0 := time.Now()
	r, err := newEngineRun(env, true, engineOpts{}, func(fs vfs.FS) error {
		for _, tr := range traces {
			if err := tr.Setup(fs); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	r.rep.setupS = time.Since(t0).Seconds()
	if env.setupOnly {
		return r.rep, r.st.close()
	}

	m := r.st.beginMeasure()
	if err := r.replay(traces); err != nil {
		r.st.close()
		return nil, err
	}
	u := r.st.endMeasure(m)

	var update, written int64
	for _, tr := range traces {
		update += tr.UpdateBytes
		written += tr.WriteBytes
	}
	return r.finish(u, update, written)
}

// fileserverSpanIters is the ISSUE's size of fileserver_mix. Its 14 s of
// simulated disk time hold four upload delays, so uploads and journal writes
// happen beside the application's reads and writes, which is what the
// workload is for.
const fileserverSpanIters = 8000

// runFileserver is one repetition of fileserver_mix: the filebench
// fileserver personality through one checksumming engine with an on-disk
// checksum store, no peer. Simulated disk time drives the logical clock, as
// in the Table III harness. A repetition has fewer iterations than
// fileserverSpanIters, so its clock runs faster by the same factor: it spans
// the same simulated time and as many upload delays, each upload carrying
// proportionally less.
func runFileserver(env repEnv) (*rep, error) {
	t0 := time.Now()
	p := filebench.Fileserver(env.sz.FileserverIters)
	rng := rand.New(rand.NewSource(env.seed))
	r, err := newEngineRun(env, false, engineOpts{checksums: true}, func(fs vfs.FS) error {
		return p.Setup(fs, rng)
	})
	if err != nil {
		return nil, err
	}
	r.rep.setupS = time.Since(t0).Seconds()
	if env.setupOnly {
		return r.rep, r.st.close()
	}

	var tickErr error
	clockRate := time.Duration(fileserverSpanIters / env.sz.FileserverIters)
	acct := &filebench.Account{FS: r.app, Model: filebench.DefaultDiskModel(),
		OnOp: func(elapsed time.Duration) {
			r.clk.Set(elapsed * clockRate)
			if err := r.tick(false); err != nil && tickErr == nil {
				tickErr = err
			}
		}}
	m := r.st.beginMeasure()
	err = p.Run(acct, rng)
	if err == nil {
		err = tickErr
	}
	if err == nil {
		err = r.settle()
	}
	if err != nil {
		r.st.close()
		return nil, err
	}
	u := r.st.endMeasure(m)
	written := r.app.writeBytes.Load()
	return r.finish(u, written, written)
}
