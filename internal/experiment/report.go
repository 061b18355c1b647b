package experiment

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"

	"repro/internal/filebench"
)

// RunMeta pins a benchmark report to the machine and revision that produced
// it, so reports stay comparable across revisions: a number only means
// something when GOMAXPROCS and the commit hash say what actually ran.
type RunMeta struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	// Commit is the VCS revision baked into the binary ("unknown" when the
	// build carries no VCS stamp, e.g. `go test` binaries).
	Commit string `json:"commit"`
	Dirty  bool   `json:"dirty,omitempty"`
}

// NewRunMeta captures the current process's run metadata.
func NewRunMeta() *RunMeta {
	m := &RunMeta{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Commit:     "unknown",
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				m.Commit = s.Value
			case "vcs.modified":
				m.Dirty = s.Value == "true"
			}
		}
	}
	// `go run` and `go test` binaries carry no VCS stamp, which would let a
	// dirty tree masquerade as clean. Fall back to asking git directly; if
	// git is unavailable or this is not a checkout, stay conservative and
	// report dirty so an unattributable report is never published as clean.
	if m.Commit == "unknown" {
		if rev, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			m.Commit = strings.TrimSpace(string(rev))
		}
		if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil {
			m.Dirty = len(bytes.TrimSpace(st)) > 0
		} else {
			m.Dirty = true
		}
	}
	return m
}

// Report is the machine-readable form of a benchall run: every table and
// figure number in one JSON document, so the perf trajectory can be tracked
// across revisions without scraping the human-oriented tables.
type Report struct {
	// Meta pins the report to the revision and machine that produced it.
	Meta *RunMeta `json:"meta,omitempty"`

	Scale float64 `json:"scale"`

	// MatrixPC and MatrixMobile are the Table II / Fig 8 / Fig 9 source
	// measurements, in the sweep's trace-major order.
	MatrixPC     []*Result `json:"matrix_pc,omitempty"`
	MatrixMobile []*Result `json:"matrix_mobile,omitempty"`

	Fig1   []Fig1Result        `json:"fig1,omitempty"`
	Fig2   *Fig2Result         `json:"fig2,omitempty"`
	Table3 []filebench.Result  `json:"table3,omitempty"`
	Table4 []ReliabilityResult `json:"table4,omitempty"`
}

// AddMatrix records the evaluation matrix in the report.
func (rep *Report) AddMatrix(m *Matrix) {
	rep.Scale = m.Scale
	rep.MatrixPC = m.PC
	rep.MatrixMobile = m.Mobile
}

// WriteFile writes the report as indented JSON.
func (rep *Report) WriteFile(path string) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
