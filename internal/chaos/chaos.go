// Package chaos is the randomized fault-schedule harness for the
// fault-tolerant sync path. One chaos run replays an identical rng-generated
// operation script through two complete client↔cloud stacks:
//
//   - a reference stack (loopback endpoint, no faults), and
//   - a faulty stack (real TCP+TLS transport through a seeded
//     faultinject.NetPlan, a retrying wire.ResilientClient, and the engine's
//     degradation buffer),
//
// then heals all faults, drains, and compares the two servers' final file
// sets byte for byte. Content convergence is the oracle — version IDs are
// deliberately excluded, because metadata round-trips that fail during a
// partition legitimately steer the engine down different (equally correct)
// version-consuming paths. A duplicate-apply tripwire on the faulty server
// additionally proves that replayed ambiguous pushes were absorbed by the
// idempotency layer rather than re-applied.
package chaos

import (
	"bytes"
	"crypto/tls"
	"fmt"
	"math/rand"
	"net"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/metrics"
	"repro/internal/server"
	"repro/internal/vfs"
	"repro/internal/wire"
)

// Config parameterizes one chaos run.
type Config struct {
	// Seed drives both the operation script and the fault schedule.
	Seed int64
	// Ops is the script length (default 60).
	Ops int
	// Faults is the network fault profile; its Seed field is overridden
	// with Config.Seed.
	Faults faultinject.NetFaultConfig
	// Checksums enables the engine integrity layer in both stacks.
	Checksums bool
	// DrainAttempts bounds post-heal drain retries (default 8).
	DrainAttempts int
}

// Result reports one chaos run.
type Result struct {
	Seed      int64 `json:"seed"`
	Converged bool  `json:"converged"`
	// Mismatch describes the first divergence when Converged is false.
	Mismatch string            `json:"mismatch,omitempty"`
	Files    int               `json:"files"`
	Sync     metrics.SyncStats `json:"sync"`
	// DuplicateApplies must be zero: replayed ambiguous pushes absorbed by
	// the idempotency layer, never re-applied.
	DuplicateApplies int                       `json:"duplicate_applies"`
	Faults           faultinject.NetFaultStats `json:"faults"`
}

// op is one scripted file operation. Kind reuses the generator's case index.
type op struct {
	kind      int
	p, dst    string
	off, size int64
	data      []byte
	tick      time.Duration // advance-and-tick when > 0
}

// script generates the operation sequence for a seed. It consults only the
// rng — never an outcome — so the same seed replays identically on both
// stacks regardless of what faults do to the faulty one.
func script(seed int64, n int) []op {
	rng := rand.New(rand.NewSource(seed))
	names := []string{"a", "b", "c", "d", "tmp", "f~", "doc"}
	pick := func() string { return names[rng.Intn(len(names))] }
	var ops []op
	now := time.Duration(0)
	for i := 0; i < n; i++ {
		switch k := rng.Intn(10); k {
		case 0, 1:
			ops = append(ops, op{kind: 0, p: pick()})
		case 2, 3, 4, 5:
			data := make([]byte, 1+rng.Intn(8<<10))
			rng.Read(data)
			ops = append(ops, op{kind: 2, p: pick(), off: int64(rng.Intn(32 << 10)), data: data})
		case 6:
			ops = append(ops, op{kind: 6, p: pick(), size: int64(rng.Intn(16 << 10))})
		case 7:
			src, dst := pick(), pick()
			if src != dst {
				ops = append(ops, op{kind: 7, p: src, dst: dst})
			}
		case 8:
			ops = append(ops, op{kind: 8, p: pick()})
		case 9:
			ops = append(ops, op{kind: 9, p: pick()})
		}
		if rng.Intn(4) == 0 {
			now += time.Duration(rng.Intn(5000)) * time.Millisecond
			ops = append(ops, op{kind: -1, tick: now})
		}
	}
	return ops
}

// replay drives one engine through the script. Operation errors are
// ignored: both stacks share vfs semantics, so outcomes match by
// construction, and scripts intentionally include invalid operations
// (writes to unlinked files, and so on).
func replay(eng *core.Engine, clk *clock.Clock, ops []op) {
	fs := eng.FS()
	for _, o := range ops {
		switch o.kind {
		case -1:
			clk.Set(o.tick)
			eng.Tick(clk.Now())
		case 0:
			_ = fs.Create(o.p)
		case 2:
			_ = fs.WriteAt(o.p, o.off, o.data)
		case 6:
			_ = fs.Truncate(o.p, o.size)
		case 7:
			_ = fs.Rename(o.p, o.dst)
		case 8:
			_ = fs.Unlink(o.p)
		case 9:
			_ = fs.Close(o.p)
		}
	}
}

// tlsOnce caches the self-signed certificate across runs; generating one
// per seed would dominate the matrix's runtime.
var (
	tlsOnce   sync.Once
	tlsServer *tls.Config
	tlsClient *tls.Config
	tlsGenErr error
)

func tlsConfigs() (*tls.Config, *tls.Config, error) {
	tlsOnce.Do(func() { tlsServer, tlsClient, tlsGenErr = wire.SelfSignedTLS() })
	return tlsServer, tlsClient, tlsGenErr
}

// Run executes one chaos run. The returned error reports harness failures
// (listen, dial, drain never completing); divergence is reported in the
// Result so callers can echo the seed.
func Run(cfg Config) (*Result, error) {
	if cfg.Ops <= 0 {
		cfg.Ops = 60
	}
	if cfg.DrainAttempts <= 0 {
		cfg.DrainAttempts = 8
	}
	ops := script(cfg.Seed, cfg.Ops)

	// Reference stack: loopback, fault-free.
	refSrv := server.New(nil)
	refClk := &clock.Clock{}
	refEng, err := core.New(core.Config{
		Backing:   vfs.NewMemFS(),
		Endpoint:  server.NewLoopback(refSrv, nil, nil),
		Clock:     refClk,
		Checksums: cfg.Checksums,
	})
	if err != nil {
		return nil, fmt.Errorf("chaos: reference engine: %w", err)
	}
	replay(refEng, refClk, ops)
	refClk.Advance(time.Minute)
	refEng.Tick(refClk.Now())
	if err := refEng.Drain(); err != nil {
		return nil, fmt.Errorf("chaos: reference drain: %w", err)
	}

	// Faulty stack: TCP + TLS over the fault plan. TLS sits above the
	// injection point so corruption surfaces as broken connections, not
	// silently poisoned payloads.
	serverConf, clientConf, err := tlsConfigs()
	if err != nil {
		return nil, err
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("chaos: listen: %w", err)
	}
	defer lis.Close()
	faults := cfg.Faults
	faults.Seed = cfg.Seed
	plan := faultinject.NewNetPlan(faults)
	srv := server.New(nil)
	sm := &metrics.SyncMeter{}
	srv.SetSyncMeter(sm)
	go wire.Serve(tls.NewListener(plan.Listener(lis), serverConf), srv)

	// Per-RPC attempts must outlast a partition hitting mid-exchange: every
	// failed attempt consumes one partitioned op, plus headroom for the
	// probabilistic faults around it.
	partOps := cfg.Faults.PartitionOps
	if partOps <= 0 {
		partOps = 20 // NewNetPlan's default
	}
	policy := wire.RetryPolicy{
		MaxAttempts: partOps + 10,
		BaseDelay:   time.Millisecond,
		MaxDelay:    8 * time.Millisecond,
		Seed:        cfg.Seed,
		OpTimeout:   2 * time.Second,
	}
	// The initial connect is retried in an outer loop on top of the policy's
	// own budget: a real client re-dials indefinitely, and back-to-back
	// partitions can outlast any single per-RPC attempt budget.
	var ep *wire.ResilientClient
	for attempt := 0; ; attempt++ {
		ep, err = wire.DialResilient(nil, lis.Addr().String(),
			wire.DialOpts{TLS: clientConf}, policy, sm)
		if err == nil {
			break
		}
		if attempt == 5 {
			return nil, fmt.Errorf("chaos: dial: %w", err)
		}
	}
	defer ep.Close()

	clk := &clock.Clock{}
	eng, err := core.New(core.Config{
		Backing:   vfs.NewMemFS(),
		Endpoint:  ep,
		Clock:     clk,
		Checksums: cfg.Checksums,
		SyncMeter: sm,
	})
	if err != nil {
		return nil, fmt.Errorf("chaos: faulty engine: %w", err)
	}
	replay(eng, clk, ops)

	// Heal every fault and drain until the unsent buffer empties: the
	// crash-consistent resume path, end to end.
	plan.Heal()
	var drainErr error
	for i := 0; i < cfg.DrainAttempts; i++ {
		clk.Advance(time.Minute)
		eng.Tick(clk.Now())
		if drainErr = eng.Drain(); drainErr == nil {
			break
		}
	}
	if drainErr != nil {
		return nil, fmt.Errorf("chaos: seed %d: drain after heal: %w", cfg.Seed, drainErr)
	}

	res := &Result{
		Seed:             cfg.Seed,
		Sync:             sm.Snapshot(),
		DuplicateApplies: srv.DuplicateApplies(),
		Faults:           plan.Stats(),
	}
	res.Converged, res.Mismatch = compare(refSrv, srv)
	res.Files = len(refSrv.Files())
	if res.DuplicateApplies != 0 {
		res.Converged = false
		if res.Mismatch == "" {
			res.Mismatch = fmt.Sprintf("%d duplicate applies", res.DuplicateApplies)
		}
	}
	return res, nil
}

// compare checks that both servers hold identical file sets with identical
// content (trash bookkeeping excluded; it never uploads).
func compare(ref, got *server.Server) (bool, string) {
	refFiles := visible(ref.Files())
	gotFiles := visible(got.Files())
	if !equalSets(refFiles, gotFiles) {
		return false, fmt.Sprintf("file sets differ: reference %v, faulty %v", refFiles, gotFiles)
	}
	for _, p := range refFiles {
		want, _ := ref.FileContent(p)
		have, _ := got.FileContent(p)
		if !bytes.Equal(want, have) {
			return false, fmt.Sprintf("%s: faulty %d bytes != reference %d bytes", p, len(have), len(want))
		}
	}
	return true, ""
}

func visible(paths []string) []string {
	out := paths[:0]
	for _, p := range paths {
		if !strings.HasPrefix(p, ".deltacfs/") {
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out
}

func equalSets(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
