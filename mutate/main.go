// Command mutate measures what the project's safety net catches. It applies
// each mutant in mutants.go to a throwaway copy of the tree and runs the
// strands of the net against it, cheapest first:
//
//	deltavet  cmd/deltavet -json ./...; one verdict per analyzer
//	test      go test of the mutated package
//	race      the same under -race
//	chaos     go test ./internal/chaos (chaos, composed, CrashStorm), for
//	          mutants in server, kvstore, undolog and wire
//
// Every analyzer verdict is recorded. A dynamic strand runs only while the
// cheaper dynamic strands let the mutant live, so the matrix answers "does
// an analyzer catch something no test does" exactly, without paying for
// race and chaos runs on mutants the plain tests already kill. Each strand
// has a timeout, and a hang counts as a kill.
//
//	cd mutate && go run . -out matrix.json          # write the matrix
//	cd mutate && go run . -check matrix.json        # fail if a recorded kill survives
//	cd mutate && go run . -only R8,F7               # a few mutants
//
// The checkout is never edited: the copy lives in ../.mutate_build/tree.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Result is one mutant's row of the matrix.
type Result struct {
	ID        string   `json:"id"`
	Class     string   `json:"class"`
	Site      string   `json:"site"` // file:line
	Func      string   `json:"func"`
	Operator  string   `json:"operator"`
	Analyzers []string `json:"analyzers"` // analyzers with a finding
	Test      string   `json:"test"`      // killed, timeout, survived or skipped
	Race      string   `json:"race"`
	Chaos     string   `json:"chaos"` // "" when the package is out of scope
	KilledBy  []string `json:"killed_by"`
	// Equivalent gives the reason the mutant cannot change behaviour.
	Equivalent string `json:"equivalent,omitempty"`
}

// Matrix is the committed output.
type Matrix struct {
	Mutants []Result `json:"mutants"`
}

var chaosScope = []string{"internal/server", "internal/kvstore", "internal/undolog", "internal/wire"}

const (
	testTimeout  = 3 * time.Minute
	raceTimeout  = 6 * time.Minute
	chaosTimeout = 6 * time.Minute
)

func main() {
	root := flag.String("root", "..", "tree to mutate")
	work := flag.String("work", "../.mutate_build", "scratch directory for the copy and the deltavet binary")
	out := flag.String("out", "", "write the matrix as JSON to this file, and as Markdown next to it")
	check := flag.String("check", "", "committed matrix: fail if a mutant it records as killed survives")
	only := flag.String("only", "", "comma-separated mutant IDs to run (default all)")
	flag.Parse()
	if err := run(*root, *work, *out, *check, *only); err != nil {
		fmt.Fprintln(os.Stderr, "mutate:", err)
		os.Exit(1)
	}
}

func run(root, work, out, check, only string) error {
	todo := selected(only)
	tree, err := copyTree(root, filepath.Join(work, "tree"))
	if err != nil {
		return err
	}
	vet, err := filepath.Abs(filepath.Join(work, "deltavet"))
	if err != nil {
		return err
	}
	if err := gorun(tree, "build", "-o", vet, "./cmd/deltavet"); err != nil {
		return fmt.Errorf("build deltavet: %w", err)
	}
	r := &runner{tree: tree, vet: vet}
	for _, mu := range todo {
		if err := r.vetMutant(mu); err != nil {
			return err
		}
	}
	if err := r.baseline(todo); err != nil {
		return err
	}
	var m Matrix
	for _, mu := range todo {
		res, err := r.mutant(mu)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "%-4s %-40s killed by %v\n", res.ID, res.Site, res.KilledBy)
		m.Mutants = append(m.Mutants, res)
	}
	sort.SliceStable(m.Mutants, func(i, j int) bool { return siteLess(m.Mutants[i].Site, m.Mutants[j].Site) })
	if out != "" {
		if err := writeMatrix(out, m); err != nil {
			return err
		}
	}
	if check != "" {
		return checkAgainst(check, m)
	}
	return nil
}

// siteLess orders "file:line" sites by file, then numerically by line.
func siteLess(a, b string) bool {
	ka, kb := strings.LastIndex(a, ":"), strings.LastIndex(b, ":")
	if a[:ka] != b[:kb] {
		return a[:ka] < b[:kb]
	}
	la, _ := strconv.Atoi(a[ka+1:])
	lb, _ := strconv.Atoi(b[kb+1:])
	return la < lb
}

func selected(only string) []Mutant {
	if only == "" {
		return mutants
	}
	want := map[string]bool{}
	for _, id := range strings.Split(only, ",") {
		want[strings.TrimSpace(id)] = true
	}
	var out []Mutant
	for _, m := range mutants {
		if want[m.ID] {
			out = append(out, m)
		}
	}
	return out
}

// copyTree copies the tracked and untracked-but-not-ignored files of root
// into dst, replacing whatever dst held.
func copyTree(root, dst string) (string, error) {
	cmd := exec.Command("git", "ls-files", "-z", "--cached", "--others", "--exclude-standard")
	cmd.Dir = root
	names, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("git ls-files in %s: %w", root, err)
	}
	if err := os.RemoveAll(dst); err != nil {
		return "", err
	}
	for _, name := range strings.Split(strings.TrimRight(string(names), "\x00"), "\x00") {
		data, err := os.ReadFile(filepath.Join(root, name))
		if errors.Is(err, os.ErrNotExist) {
			continue // deleted in the working tree
		}
		if err != nil {
			return "", err
		}
		p := filepath.Join(dst, name)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			return "", err
		}
		if err := os.WriteFile(p, data, 0o644); err != nil {
			return "", err
		}
	}
	return filepath.Abs(dst)
}

type runner struct {
	tree, vet string
}

// baseline requires every strand to pass on the unmutated tree: a red net
// would count as a kill for every mutant.
func (r *runner) baseline(todo []Mutant) error {
	start := time.Now()
	if an, err := r.deltavet(); err != nil || len(an) > 0 {
		return fmt.Errorf("baseline deltavet: findings %v, err %v", an, err)
	}
	fmt.Fprintf(os.Stderr, "baseline deltavet %.1fs\n", time.Since(start).Seconds())
	pkgs := map[string]bool{}
	chaos := false
	for _, m := range todo {
		pkgs[path.Dir(m.File)] = true
		chaos = chaos || inChaosScope(m.File)
	}
	var dirs []string
	for p := range pkgs {
		dirs = append(dirs, p)
	}
	sort.Strings(dirs)
	for _, p := range dirs {
		for _, race := range []bool{false, true} {
			start := time.Now()
			if v := r.test(p, race); v != "survived" {
				return fmt.Errorf("baseline go test (race=%v) ./%s: %s", race, p, v)
			}
			fmt.Fprintf(os.Stderr, "baseline test %s race=%v %.1fs\n", p, race, time.Since(start).Seconds())
		}
	}
	if chaos {
		start := time.Now()
		if v := r.chaos(); v != "survived" {
			return fmt.Errorf("baseline chaos: %s", v)
		}
		fmt.Fprintf(os.Stderr, "baseline chaos %.1fs\n", time.Since(start).Seconds())
	}
	return nil
}

func inChaosScope(file string) bool {
	for _, s := range chaosScope {
		if path.Dir(file) == s {
			return true
		}
	}
	return false
}

// apply writes m into the copy and returns a func that restores the file,
// and the mutated line.
func (r *runner) apply(m Mutant) (restore func(), line int, err error) {
	p := filepath.Join(r.tree, m.File)
	orig, err := os.ReadFile(p)
	if err != nil {
		return nil, 0, err
	}
	mutated, line, err := m.Apply(orig)
	if err != nil {
		return nil, 0, err
	}
	if err := os.WriteFile(p, mutated, 0o644); err != nil {
		return nil, 0, err
	}
	return func() { os.WriteFile(p, orig, 0o644) }, line, nil
}

// vetMutant checks, before any strand runs, that m builds and vets: a
// compile error would count as a kill.
func (r *runner) vetMutant(m Mutant) error {
	restore, _, err := r.apply(m)
	if err != nil {
		return err
	}
	defer restore()
	if err := gorun(r.tree, "vet", "./"+path.Dir(m.File)); err != nil {
		return fmt.Errorf("%s does not build cleanly: %w", m.ID, err)
	}
	return nil
}

// mutant applies m to the copy, runs the strands and restores the file.
func (r *runner) mutant(m Mutant) (Result, error) {
	restore, line, err := r.apply(m)
	if err != nil {
		return Result{}, err
	}
	defer restore()
	res := Result{
		ID: m.ID, Class: m.Class, Func: m.Func, Operator: m.Op.Name,
		Site: fmt.Sprintf("%s:%d", m.File, line), Equivalent: m.Equivalent,
	}
	res.Analyzers, err = r.deltavet()
	if err != nil {
		return Result{}, fmt.Errorf("%s: deltavet: %w", m.ID, err)
	}
	res.KilledBy = append(res.KilledBy, res.Analyzers...)
	dead := false
	strand := func(name string, f func() string) string {
		if dead {
			return "skipped"
		}
		v := f()
		if v != "survived" {
			dead = true
			res.KilledBy = append(res.KilledBy, name)
		}
		return v
	}
	res.Test = strand("test", func() string { return r.test(path.Dir(m.File), false) })
	res.Race = strand("race", func() string { return r.test(path.Dir(m.File), true) })
	if inChaosScope(m.File) {
		res.Chaos = strand("chaos", r.chaos)
	}
	if res.Analyzers == nil {
		res.Analyzers = []string{}
	}
	if res.KilledBy == nil {
		res.KilledBy = []string{}
	}
	return res, nil
}

// deltavet returns the analyzers with at least one finding on the copy.
func (r *runner) deltavet() ([]string, error) {
	ctx, cancel := context.WithTimeout(context.Background(), testTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, r.vet, "-json", "./...")
	cmd.Dir = r.tree
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var ee *exec.ExitError
	if err != nil && !(errors.As(err, &ee) && ee.ExitCode() == 1) {
		return nil, fmt.Errorf("%v: %s", err, stderr.String())
	}
	var diags []struct{ Analyzer string }
	if err := json.Unmarshal(stdout.Bytes(), &diags); err != nil {
		return nil, err
	}
	set := map[string]bool{}
	for _, d := range diags {
		set[d.Analyzer] = true
	}
	var out []string
	for a := range set {
		out = append(out, a)
	}
	sort.Strings(out)
	return out, nil
}

func (r *runner) test(pkg string, race bool) string {
	args := []string{"test", "-count=1"}
	timeout := testTimeout
	if race {
		args = append(args, "-race")
		timeout = raceTimeout
	}
	return r.goTest(timeout, append(args, "./"+pkg)...)
}

func (r *runner) chaos() string {
	return r.goTest(chaosTimeout, "test", "-count=1", "./internal/chaos")
}

// goTest runs one go test and classifies it. go test's own -timeout fires
// first and panics with the stuck goroutines; the context is the backstop
// for a hang outside the test binary.
func (r *runner) goTest(timeout time.Duration, args ...string) string {
	ctx, cancel := context.WithTimeout(context.Background(), timeout+time.Minute)
	defer cancel()
	args = append(args[:1], append([]string{"-timeout", timeout.String()}, args[1:]...)...)
	cmd := exec.CommandContext(ctx, "go", args...)
	cmd.Dir = r.tree
	var buf bytes.Buffer
	cmd.Stdout, cmd.Stderr = &buf, &buf
	err := cmd.Run()
	switch {
	case err == nil:
		return "survived"
	case ctx.Err() != nil || bytes.Contains(buf.Bytes(), []byte("panic: test timed out")):
		return "timeout"
	default:
		return "killed"
	}
}

func gorun(dir string, args ...string) error {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	return nil
}

func writeMatrix(out string, m Matrix) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	md := strings.TrimSuffix(out, filepath.Ext(out)) + ".md"
	f, err := os.Create(md)
	if err != nil {
		return err
	}
	defer f.Close()
	return renderMarkdown(f, m)
}

// renderMarkdown writes the matrix table and, per analyzer, the mutants it
// alone kills.
func renderMarkdown(w io.Writer, m Matrix) error {
	fmt.Fprintf(w, "# Mutation kill matrix\n\nGenerated by `make mutate` from `mutants.go`; do not edit.\n")
	fmt.Fprintf(w, "A dynamic strand runs only while the cheaper ones let the mutant live (`-` = skipped).\n\n")
	fmt.Fprintf(w, "| id | class | site | analyzers | test | race | chaos | killed by |\n|---|---|---|---|---|---|---|---|\n")
	unique := map[string][]string{}
	var none, equivalent []string
	for _, r := range m.Mutants {
		short := func(v string) string {
			switch v {
			case "skipped":
				return "-"
			case "":
				return "n/a"
			}
			return v
		}
		fmt.Fprintf(w, "| %s | %s | `%s` | %s | %s | %s | %s | %s |\n", r.ID, r.Class, r.Site,
			strings.Join(r.Analyzers, ", "), short(r.Test), short(r.Race), short(r.Chaos), strings.Join(r.KilledBy, ", "))
		switch {
		case r.Equivalent != "":
			equivalent = append(equivalent, r.ID+": "+r.Equivalent)
		case len(r.KilledBy) == 0:
			none = append(none, r.ID)
		case len(r.KilledBy) == 1 && len(r.Analyzers) == 1:
			unique[r.Analyzers[0]] = append(unique[r.Analyzers[0]], r.ID)
		}
	}
	fmt.Fprintf(w, "\n## Unique kills\n\n")
	var names []string
	for a := range unique {
		names = append(names, a)
	}
	sort.Strings(names)
	for _, a := range names {
		fmt.Fprintf(w, "- %s: %s\n", a, strings.Join(unique[a], ", "))
	}
	fmt.Fprintf(w, "- nothing: %s\n", strings.Join(none, ", "))
	fmt.Fprintf(w, "\n## Equivalent mutants\n\nTheir kills are recorded but decide nothing.\n\n")
	for _, e := range equivalent {
		fmt.Fprintf(w, "- %s\n", e)
	}
	return nil
}

// checkAgainst fails if a mutant the committed matrix records as killed
// survived this run.
func checkAgainst(file string, fresh Matrix) error {
	data, err := os.ReadFile(file)
	if err != nil {
		return err
	}
	var committed Matrix
	if err := json.Unmarshal(data, &committed); err != nil {
		return err
	}
	got := map[string]Result{}
	for _, r := range fresh.Mutants {
		got[r.ID] = r
	}
	var lost []string
	for _, r := range committed.Mutants {
		g, ran := got[r.ID]
		if ran && len(r.KilledBy) > 0 && len(g.KilledBy) == 0 {
			lost = append(lost, r.ID)
		}
	}
	if len(lost) > 0 {
		return fmt.Errorf("mutants recorded as killed now survive: %s", strings.Join(lost, ", "))
	}
	return nil
}
