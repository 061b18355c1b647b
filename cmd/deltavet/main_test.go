package main

import (
	"encoding/json"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// TestFlagsBadFixture runs the driver over the known-bad fixture package and
// checks that every analyzer fires, the exit code is non-zero, and the one
// inline-allowed finding is suppressed.
func TestFlagsBadFixture(t *testing.T) {
	var out, errb strings.Builder
	code := run([]string{"./testdata/src/badpkg/internal/server"}, ".", &out, &errb)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
	}
	got := out.String()
	for _, analyzer := range []string{"blockunderlock", "errsync", "crashsafe", "atomicsafe", "leakcheck", "racecheck"} {
		if !strings.Contains(got, analyzer) {
			t.Errorf("no %s finding in output:\n%s", analyzer, got)
		}
	}
	// The seeded scale-path bugs: publication mutated after Store, conn
	// dropped on an exit path, unstoppable worker.
	for _, msg := range []string{
		"mutation after the value was published",
		"mutation of a value loaded from atomic pointer",
		"resource from net.Dial is not closed on every path",
		"spawned goroutine has no termination path",
	} {
		if !strings.Contains(got, msg) {
			t.Errorf("no %q finding in output:\n%s", msg, got)
		}
	}
	// A finding that exists only through the call graph: the blocking
	// helper called under the lock.
	if !strings.Contains(got, "transitive callee chain") {
		t.Errorf("no interprocedural blockunderlock finding in output:\n%s", got)
	}
	// BadDropError and AllowedDropError both discard a Put error; only
	// BadDropError's finding must survive the inline //deltavet:allow.
	dropped := 0
	for _, line := range strings.Split(got, "\n") {
		if strings.Contains(line, "bad.go") && strings.Contains(line, "errsync:") {
			dropped++
		}
	}
	if dropped != 1 {
		t.Errorf("bad.go errsync findings = %d, want 1 (inline allow not honored?)\n%s", dropped, got)
	}
	// The storagefault layer must be recognized as a first-class source of
	// crash-ordering and durability events: BadStorageSnapshot renames a
	// temp file through the FS interface with no fsync, BadStorageSyncDrop
	// discards a File.Sync error.
	if !strings.Contains(got, "badstorage.go") || !strings.Contains(got, "temp file renamed without an fsync") {
		t.Errorf("no crashsafe finding for the storagefault temp rename:\n%s", got)
	}
	if !strings.Contains(got, "storage fsync") {
		t.Errorf("no errsync finding for the dropped storagefault Sync error:\n%s", got)
	}
	// The seeded data races: the striped-map write that skips the stripe
	// lock (guard inferred through the lock-set helper, witness chain
	// included) and the forward path that skips the per-peer pushMu.
	for _, msg := range []string{
		"write to raceStripe.vals without holding raceStripe.lk",
		"(via lockStripe",
		"write to racePeer.pending without holding racePeer.pushMu",
	} {
		if !strings.Contains(got, msg) {
			t.Errorf("no racecheck finding %q in output:\n%s", msg, got)
		}
	}
}

// TestJSONOutput checks the -json mode round-trips the same findings as a
// machine-readable array (the CI artifact format).
func TestJSONOutput(t *testing.T) {
	var out, errb strings.Builder
	code := run([]string{"-json", "./testdata/src/badpkg/internal/server"}, ".", &out, &errb)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\nstderr:\n%s", code, errb.String())
	}
	var diags []struct {
		File     string `json:"file"`
		Line     int    `json:"line"`
		Col      int    `json:"col"`
		Analyzer string `json:"analyzer"`
		Message  string `json:"message"`
	}
	if err := json.Unmarshal([]byte(out.String()), &diags); err != nil {
		t.Fatalf("-json output is not valid JSON: %v\n%s", err, out.String())
	}
	if len(diags) == 0 {
		t.Fatal("-json output has no findings")
	}
	seen := map[string]bool{}
	for _, d := range diags {
		if d.File == "" || d.Line == 0 || d.Analyzer == "" || d.Message == "" {
			t.Errorf("incomplete JSON finding: %+v", d)
		}
		seen[d.Analyzer] = true
	}
	for _, analyzer := range []string{"blockunderlock", "errsync", "crashsafe", "atomicsafe", "leakcheck", "racecheck"} {
		if !seen[analyzer] {
			t.Errorf("no %s finding in JSON output", analyzer)
		}
	}
}

// TestLoadFailureExitCode distinguishes "the checker never ran" (exit 3)
// from "the code is dirty" (exit 1) and "bad usage" (exit 2).
func TestLoadFailureExitCode(t *testing.T) {
	var out, errb strings.Builder
	code := run([]string{"./testdata/brokenpkg"}, ".", &out, &errb)
	if code != 3 {
		t.Fatalf("exit code = %d, want 3\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
	}
	if errb.Len() == 0 {
		t.Error("load failure produced no stderr message")
	}
}

// TestLoadFailureJSONIsValid: -json must emit parseable JSON even when the
// packages never load, so CI artifact consumers don't choke.
func TestLoadFailureJSONIsValid(t *testing.T) {
	var out, errb strings.Builder
	code := run([]string{"-json", "./testdata/brokenpkg"}, ".", &out, &errb)
	if code != 3 {
		t.Fatalf("exit code = %d, want 3\nstderr:\n%s", code, errb.String())
	}
	var payload struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal([]byte(out.String()), &payload); err != nil {
		t.Fatalf("-json output on load failure is not valid JSON: %v\n%s", err, out.String())
	}
	if payload.Error == "" {
		t.Errorf("load-failure JSON has no error field: %s", out.String())
	}
}

// TestSARIFOutput checks the -sarif log parses and carries the same findings
// with repo-relative URIs.
func TestSARIFOutput(t *testing.T) {
	var out, errb strings.Builder
	code := run([]string{"-sarif", "./testdata/src/badpkg/internal/server"}, ".", &out, &errb)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\nstderr:\n%s", code, errb.String())
	}
	var log struct {
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID    string `json:"ruleId"`
				Message   struct{ Text string }
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI string `json:"uri"`
						} `json:"artifactLocation"`
						Region struct {
							StartLine int `json:"startLine"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal([]byte(out.String()), &log); err != nil {
		t.Fatalf("-sarif output is not valid JSON: %v", err)
	}
	if log.Version != "2.1.0" || len(log.Runs) != 1 {
		t.Fatalf("unexpected SARIF shape: version=%q runs=%d", log.Version, len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "deltavet" || len(run.Tool.Driver.Rules) == 0 {
		t.Errorf("SARIF driver metadata missing: %+v", run.Tool.Driver)
	}
	if len(run.Results) == 0 {
		t.Fatal("SARIF log has no results")
	}
	for _, r := range run.Results {
		if r.RuleID == "" || len(r.Locations) == 0 {
			t.Errorf("incomplete SARIF result: %+v", r)
			continue
		}
		loc := r.Locations[0].PhysicalLocation
		if strings.HasPrefix(loc.ArtifactLocation.URI, "/") {
			t.Errorf("SARIF URI not repo-relative: %s", loc.ArtifactLocation.URI)
		}
		if loc.Region.StartLine == 0 {
			t.Errorf("SARIF result with no line: %+v", r)
		}
	}
}

// TestFilterByFiles pins the pure -since filter logic: absolute and
// root-relative diagnostic paths both resolve against the changed set.
func TestFilterByFiles(t *testing.T) {
	diags := []analysis.Diagnostic{
		{Analyzer: "a", Pos: token.Position{Filename: "/repo/internal/wire/serve.go", Line: 1}},
		{Analyzer: "b", Pos: token.Position{Filename: "internal/server/shard.go", Line: 2}},
		{Analyzer: "c", Pos: token.Position{Filename: "/repo/internal/core/engine.go", Line: 3}},
	}
	changed := map[string]bool{
		"/repo/internal/wire/serve.go":   true,
		"/repo/internal/server/shard.go": true,
	}
	kept := filterByFiles(diags, changed, "/repo")
	if len(kept) != 2 {
		t.Fatalf("kept %d diagnostics, want 2: %+v", len(kept), kept)
	}
	if kept[0].Analyzer != "a" || kept[1].Analyzer != "b" {
		t.Errorf("wrong diagnostics kept: %+v", kept)
	}
}

// TestStaleAllowEntry: an allow entry whose target function does not exist
// in a loaded, suffix-matching package must surface as an allowstale
// finding; entries for packages outside the load set must not.
func TestStaleAllowEntry(t *testing.T) {
	dir := t.TempDir()
	allow := filepath.Join(dir, "deltavet.allow")
	content := "errsync repro/cmd/deltavet/testdata/src/badpkg/internal/server NoSuchFunc this function is long gone\n" +
		"errsync repro/internal/notloaded AlsoMissing package not loaded, must not be checked\n"
	if err := os.WriteFile(allow, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb strings.Builder
	code := run([]string{"-allow", allow, "./testdata/src/badpkg/internal/server"}, ".", &out, &errb)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\nstderr:\n%s", code, errb.String())
	}
	got := out.String()
	if !strings.Contains(got, "allowstale") || !strings.Contains(got, "NoSuchFunc") {
		t.Errorf("no allowstale finding for the dead entry:\n%s", got)
	}
	if strings.Contains(got, "AlsoMissing") {
		t.Errorf("allowstale fired for a package outside the load set:\n%s", got)
	}
}

// TestCleanOnTree is the acceptance gate: the real tree, with its inline
// allows and the module-root deltavet.allow, must come back clean.
func TestCleanOnTree(t *testing.T) {
	root, err := moduleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	var out, errb strings.Builder
	code := run([]string{"./internal/...", "./cmd/..."}, root, &out, &errb)
	if code != 0 {
		t.Fatalf("deltavet not clean on the tree (exit %d):\n%s%s", code, out.String(), errb.String())
	}
}
