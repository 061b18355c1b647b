// Command benchall regenerates every table and figure of the paper's
// evaluation section. By default it runs everything at the given trace
// scale; individual experiments can be selected.
//
// Usage:
//
//	benchall [-scale 1.0] [-exp all|fig1|fig2|table2|fig8|fig9|table3|table4]
//	         [-json report.json] [-allow-dirty]
//	         [-cpuprofile cpu.pprof] [-mutexprofile mutex.pprof] [-blockprofile block.pprof]
//
// Scale 1.0 reproduces the paper's trace dimensions (a 131 MB SQLite file,
// 373 update rounds, ...); smaller scales shrink files and counts
// proportionally for quick runs. With -json, the numbers behind the selected
// tables and figures are additionally written to the given path as one
// machine-readable document.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/experiment"
)

func main() {
	scale := flag.Float64("scale", 1.0, "trace scale (1.0 = paper dimensions)")
	exp := flag.String("exp", "all", "experiment: all|fig1|fig2|table2|fig8|fig9|table3|table4")
	iters := flag.Int("filebench-iters", 2000, "filebench iterations per personality")
	allowDirty := flag.Bool("allow-dirty", false, "permit -json output from a dirty working tree")
	jsonPath := flag.String("json", "", "also write the assembled numbers as JSON to this path")
	cpuProf := flag.String("cpuprofile", "", "write a CPU profile to this path")
	mutexProf := flag.String("mutexprofile", "", "write a mutex-contention profile to this path")
	blockProf := flag.String("blockprofile", "", "write a blocking profile to this path")
	flag.Parse()

	stop, err := startProfiles(*cpuProf, *mutexProf, *blockProf)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchall: %v\n", err)
		os.Exit(1)
	}
	runErr := run(runOpts{
		exp: *exp, scale: *scale, iters: *iters, jsonPath: *jsonPath, allowDirty: *allowDirty,
	})
	if err := stop(); err != nil {
		fmt.Fprintf(os.Stderr, "benchall: %v\n", err)
		os.Exit(1)
	}
	if runErr != nil {
		fmt.Fprintf(os.Stderr, "benchall: %v\n", runErr)
		os.Exit(1)
	}
}

// startProfiles enables the requested runtime profilers and returns the
// function that stops them and writes the profile files. Profiles are written
// even when the run itself fails, so a crashing experiment can still be
// diagnosed.
func startProfiles(cpuPath, mutexPath, blockPath string) (func() error, error) {
	var cpuFile *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		cpuFile = f
	}
	if mutexPath != "" {
		runtime.SetMutexProfileFraction(1)
	}
	if blockPath != "" {
		runtime.SetBlockProfileRate(1)
	}
	writeProf := func(name, path string) error {
		if path == "" {
			return nil
		}
		f, err := os.Create(path)
		if err != nil {
			return fmt.Errorf("%s profile: %w", name, err)
		}
		defer f.Close()
		if err := pprof.Lookup(name).WriteTo(f, 0); err != nil {
			return fmt.Errorf("%s profile: %w", name, err)
		}
		return nil
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if err := writeProf("mutex", mutexPath); err != nil {
			return err
		}
		return writeProf("block", blockPath)
	}, nil
}

// runOpts carries the parsed flags into run.
type runOpts struct {
	exp        string
	scale      float64
	iters      int
	jsonPath   string
	allowDirty bool
}

func run(o runOpts) error {
	exp, scale, iters, jsonPath := o.exp, o.scale, o.iters, o.jsonPath
	switch exp {
	case "all", "fig1", "fig2", "table2", "fig8", "fig9", "table3", "table4":
	default:
		return fmt.Errorf("unknown -exp %q", exp)
	}
	out := os.Stdout
	needMatrix := exp == "all" || exp == "table2" || exp == "fig8" || exp == "fig9"
	rep := &experiment.Report{Scale: scale}

	// A report claiming to be "commit X" while the tree had uncommitted
	// edits is not attributable to any revision. Refuse up front — before
	// any long experiment runs — unless the caller opts in.
	if jsonPath != "" {
		rep.Meta = experiment.NewRunMeta()
		if rep.Meta.Dirty && !o.allowDirty {
			return fmt.Errorf("-json refused: working tree is dirty, so the report would not be " +
				"attributable to a commit; commit first or pass -allow-dirty")
		}
	}

	var m *experiment.Matrix
	if needMatrix {
		fmt.Fprintf(out, "running the evaluation matrix at scale %.2f (this replays all four traces through all systems)...\n\n", scale)
		var err error
		m, err = experiment.RunMatrix(scale)
		if err != nil {
			return err
		}
		rep.AddMatrix(m)
	}

	if exp == "all" || exp == "fig1" {
		rs, err := experiment.Fig1(scale)
		if err != nil {
			return err
		}
		experiment.PrintFig1(out, rs)
		fmt.Fprintln(out)
		rep.Fig1 = rs
	}
	if exp == "all" || exp == "fig2" {
		r, err := experiment.Fig2(scale)
		if err != nil {
			return err
		}
		experiment.PrintFig2(out, r)
		fmt.Fprintln(out)
		rep.Fig2 = r
	}
	if exp == "all" || exp == "table2" {
		m.PrintTable2(out)
		fmt.Fprintln(out)
	}
	if exp == "all" || exp == "fig8" {
		m.PrintFig8(out)
		fmt.Fprintln(out)
	}
	if exp == "all" || exp == "fig9" {
		m.PrintFig9(out)
		fmt.Fprintln(out)
	}
	if exp == "all" || exp == "table3" {
		rs, err := experiment.Table3(iters)
		if err != nil {
			return err
		}
		experiment.PrintTable3(out, rs)
		fmt.Fprintln(out)
		rep.Table3 = rs
	}
	if exp == "all" || exp == "table4" {
		rs, err := experiment.Table4()
		if err != nil {
			return err
		}
		experiment.PrintTable4(out, rs)
		fmt.Fprintln(out)
		rep.Table4 = rs
	}
	if jsonPath != "" {
		if err := rep.WriteFile(jsonPath); err != nil {
			return fmt.Errorf("writing %s: %w", jsonPath, err)
		}
		fmt.Fprintf(out, "wrote JSON report to %s\n", jsonPath)
	}
	return nil
}
