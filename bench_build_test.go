package deltacfs_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// bench/ is a nested module (its own go.mod, `replace repro => ../`), so
// `go build ./... && go test ./...` never compiles it, yet it imports a
// dozen internal packages and the benchmark pipeline builds it against
// every later checkout. This test makes an API break there a Tier-1
// failure: it builds bench/ exactly as bench/run.sh does.
func TestBenchCompiles(t *testing.T) {
	out := filepath.Join(t.TempDir(), "bench")
	cmd := exec.Command("go", "build", "-C", "bench", "-o", out, ".")
	cmd.Env = append(os.Environ(), "GOFLAGS=-mod=mod", "GOWORK=off", "GOPROXY=off")
	if msg, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("bench/ no longer compiles against this tree: %v\n%s", err, msg)
	}
}
