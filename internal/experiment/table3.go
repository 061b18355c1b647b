package experiment

import (
	"fmt"
	"io"
	"math/rand"
	"text/tabwriter"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/filebench"
	"repro/internal/metrics"
	"repro/internal/version"
	"repro/internal/vfs"
	"repro/internal/wire"
)

// FSConfig is one column of Table III.
type FSConfig string

// The four file-system configurations of Table III.
const (
	CfgNative    FSConfig = "Native"
	CfgFUSE      FSConfig = "FUSE"
	CfgDeltaCFS  FSConfig = "DeltaCFS"
	CfgDeltaCFSc FSConfig = "DeltaCFSc"
)

// FSConfigs lists the Table III columns in order.
var FSConfigs = []FSConfig{CfgNative, CfgFUSE, CfgDeltaCFS, CfgDeltaCFSc}

// sinkEndpoint drops every upload — the paper's Table III methodology ("we
// drop the data dequeued from Sync Queue rather than sending them to the
// server, in order to eliminate the impact of limited network bandwidth").
type sinkEndpoint struct{}

func (sinkEndpoint) Register() (uint32, error) { return 1, nil }
func (sinkEndpoint) Push(b *wire.Batch) (*wire.PushReply, error) {
	return &wire.PushReply{Statuses: make([]wire.ApplyStatus, len(b.Nodes))}, nil
}
func (sinkEndpoint) Fetch(path string) (*wire.FetchReply, error) {
	return &wire.FetchReply{}, nil
}
func (sinkEndpoint) Head(path string) (version.ID, bool, error) {
	return version.ID{}, false, nil
}
func (sinkEndpoint) FetchRange(path string, off, n int64) ([]byte, error) { return nil, nil }
func (sinkEndpoint) Poll() ([]*wire.Batch, error)                         { return nil, nil }
func (sinkEndpoint) Close() error                                         { return nil }

// Table3 runs the three personalities against the four configurations.
// iterations controls workload length (the paper's runs are time-bound;
// 2000 iterations gives stable ratios).
func Table3(iterations int) ([]filebench.Result, error) {
	personalities := []filebench.Personality{
		filebench.Fileserver(iterations),
		filebench.Varmail(iterations),
		filebench.Webserver(iterations),
	}
	var out []filebench.Result
	for _, p := range personalities {
		for _, cfg := range FSConfigs {
			r, err := runTable3Cell(p, cfg)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", p.Name, cfg, err)
			}
			out = append(out, r)
		}
	}
	return out, nil
}

func runTable3Cell(p filebench.Personality, cfg FSConfig) (filebench.Result, error) {
	backing := vfs.NewMemFS()
	meter := metrics.NewCPUMeter(metrics.PC)
	clk := &clock.Clock{}

	var fs vfs.FS
	var eng *core.Engine
	switch cfg {
	case CfgNative:
		fs = backing
	case CfgFUSE:
		// The FUSE passthrough: per-operation user/kernel double crossing,
		// no other work.
		obs := vfs.NewObserverFS(backing)
		obs.Subscribe(vfs.ObserverFunc(func(op vfs.Op) { meter.FSOp(1) }))
		fs = obs
	case CfgDeltaCFS, CfgDeltaCFSc:
		var err error
		eng, err = core.New(core.Config{
			Backing:   backing,
			Endpoint:  sinkEndpoint{},
			Clock:     clk,
			Meter:     meter,
			Checksums: cfg == CfgDeltaCFSc,
		})
		if err != nil {
			return filebench.Result{}, err
		}
		fs = eng
	default:
		return filebench.Result{}, fmt.Errorf("unknown config %q", cfg)
	}

	rng := rand.New(rand.NewSource(7))
	if p.Setup != nil {
		// Setup runs outside the measured window, directly on the backing
		// store (pre-existing state).
		if err := p.Setup(backing, rng); err != nil {
			return filebench.Result{}, err
		}
		if eng != nil && cfg == CfgDeltaCFSc {
			if err := eng.PrimeChecksums(); err != nil {
				return filebench.Result{}, err
			}
		}
	}

	acct := &filebench.Account{FS: fs, Model: filebench.DefaultDiskModel()}
	if eng != nil {
		acct.OnOp = func(elapsed time.Duration) {
			clk.Set(elapsed)
			eng.Tick(clk.Now())
		}
	}
	if err := p.Run(acct, rng); err != nil {
		return filebench.Result{}, err
	}
	if eng != nil {
		if err := eng.Drain(); err != nil {
			return filebench.Result{}, err
		}
	}
	return filebench.Measure(p, string(cfg), acct, meter.NanoTicks()), nil
}

// PrintTable3 renders the throughput table in the paper's layout.
func PrintTable3(w io.Writer, rs []filebench.Result) {
	fmt.Fprintln(w, "TABLE III: COMPARISON OF PERFORMANCE ON MICROBENCHMARKS (MB/s)")
	tw := tabwriter.NewWriter(w, 4, 0, 2, ' ', 0)
	fmt.Fprint(tw, "Workload")
	for _, cfg := range FSConfigs {
		fmt.Fprintf(tw, "\t%s", cfg)
	}
	fmt.Fprintln(tw)
	for _, name := range []string{"Fileserver", "Varmail", "Webserver"} {
		fmt.Fprint(tw, name)
		for _, cfg := range FSConfigs {
			for _, r := range rs {
				if r.Personality == name && r.Config == string(cfg) {
					fmt.Fprintf(tw, "\t%.1f", r.MBps)
				}
			}
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
}
