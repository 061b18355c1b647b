package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"syscall"
)

// environment is what a result is valid for; every -out file carries it.
type environment struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	Commit     string `json:"commit"` // "unknown" outside a git checkout
	Dirty      bool   `json:"dirty"`
	DataDir    string `json:"data_dir"`
	DataFS     string `json:"data_fs"`
}

func readEnvironment(dataDir string) environment {
	e := environment{GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU: runtime.NumCPU(), Commit: "unknown", DataDir: dataDir, DataFS: fsType(dataDir)}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
		st, err := exec.Command("git", "status", "--porcelain").Output()
		e.Dirty = err != nil || len(st) > 0
	}
	return e
}

// fsType names the file system holding dir, from its statfs magic number.
// Latencies that include file IO are this file system's, not a device's.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	}
	return fmt.Sprintf("0x%X", uint32(st.Type))
}

// runDoc is one invocation as stored in an -out file.
type runDoc struct {
	Env     environment `json:"env"`
	Seed    int64       `json:"seed"`
	Seconds int         `json:"seconds"`
	Sizes   sizes       `json:"sizes"`
	Results []*result   `json:"results"`
	Spans   []span      `json:"spans,omitempty"` // last traced repetition of the last workload
}

// outFile is an -out file: the runs appended to it, oldest first. -compare
// takes medians and spreads over the runs of each side.
type outFile struct {
	Runs []*runDoc `json:"runs"`
}

func readOutFile(path string) (*outFile, error) {
	var f outFile
	b, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return &f, nil
	}
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, err
	}
	return &f, nil
}

func appendRun(path string, doc *runDoc) error {
	f, err := readOutFile(path)
	if err != nil {
		return err
	}
	if n := len(doc.Results); n > 0 {
		doc.Spans = doc.Results[n-1].spans
	}
	f.Runs = append(f.Runs, doc)
	b, err := json.Marshal(f)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
