package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

// contractFile is the part of BENCHMARK.json that -compare needs.
type contractFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// side is one -out file reduced to, per workload, the values each run
// reported for each end-to-end metric, and the failed share of its ops.
type side struct {
	values            map[string]map[string][]float64 // workload → metric → one value per run
	attempted, failed map[string]int
	seeds             map[int64]bool // the seeds its runs were made with
}

// exactPerSeed are the gated metrics that are counts: for one seed they
// repeat exactly, so between two files measured with the same one seed any
// difference is a change of behaviour and the bound is 0. The bound in
// BENCHMARK.json has to cover the spread between seeds, which the driver
// measures, and applies otherwise.
var exactPerSeed = map[string]bool{"tue": true}

// sameSeed reports whether every run of both sides used one and the same seed.
func sameSeed(a, b *side) bool {
	if len(a.seeds) != 1 || len(b.seeds) != 1 {
		return false
	}
	for s := range a.seeds {
		return b.seeds[s]
	}
	return false
}

func loadSide(path string) (*side, error) {
	f, err := readOutFile(path)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(f.Runs) == 0 {
		return nil, fmt.Errorf("%s: no runs", path)
	}
	s := &side{values: map[string]map[string][]float64{}, attempted: map[string]int{}, failed: map[string]int{},
		seeds: map[int64]bool{}}
	for _, run := range f.Runs {
		s.seeds[run.Seed] = true
		for _, res := range run.Results {
			s.attempted[res.Workload] += res.Attempted
			s.failed[res.Workload] += res.Failed
			if res.Traced {
				continue // end-to-end figures come from untraced runs only
			}
			if s.values[res.Workload] == nil {
				s.values[res.Workload] = map[string][]float64{}
			}
			for k, v := range res.Metrics {
				s.values[res.Workload][k] = append(s.values[res.Workload][k], v)
			}
		}
	}
	return s, nil
}

// verdict compares the medians of a metric on two sides: b is worse (or
// better) when it is on the wrong (right) side of a by more than the bound,
// as a share of a. It is unresolved when either side's own runs — three at
// least — spread wider than the bound: then the bound cannot be checked. A
// "better" here is not a claimed gain; that takes paired runs (README).
func verdict(a, b []float64, lowerIsBetter bool, bound float64) string {
	if len(a) >= 3 && len(b) >= 3 && (spread(a) > bound || spread(b) > bound) {
		return "unresolved"
	}
	worse := ratio(median(b)-median(a), median(a))
	if !lowerIsBetter {
		worse = -worse
	}
	switch {
	case worse > bound:
		return "worse"
	case worse < -bound:
		return "better"
	}
	return "same"
}

// runCompare prints one row per (workload, metric) and returns the exit
// code: 1 if any gated row is worse or B fails a larger share of its ops.
func runCompare(out io.Writer, contractPath, pathA, pathB string) int {
	raw, err := os.ReadFile(contractPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	var c contractFile
	if err := json.Unmarshal(raw, &c); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", contractPath, err)
		return 2
	}
	a, err := loadSide(pathA)
	if err == nil {
		var b *side
		if b, err = loadSide(pathB); err == nil {
			return compareSides(out, c, a, b)
		}
	}
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 2
}

func compareSides(out io.Writer, c contractFile, a, b *side) int {
	code := 0
	exact := sameSeed(a, b)
	var names []string
	for w := range a.values {
		if b.values[w] != nil {
			names = append(names, w)
		}
	}
	sort.Strings(names)
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tA\tB\tunit\tchange\tbound\tverdict\t")
	for _, w := range names {
		for _, m := range c.EndToEnd {
			va, vb := a.values[w][m.Name], b.values[w][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			bound := m.Bound
			if exact && exactPerSeed[m.Name] {
				bound = 0
			}
			v := verdict(va, vb, m.Better == "lower", bound)
			if v == "worse" {
				code = 1
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4f\t%.4f\t%s\t%+.1f%%\t%.0f%%\t%s\t\n",
				w, m.Name, median(va), median(vb), m.Unit, 100*ratio(median(vb)-median(va), median(va)), 100*bound, v)
		}
		// The end-to-end figures that have no bound (README, "Printed, not
		// gated") get a row and no verdict.
		gated := map[string]bool{}
		for _, m := range c.EndToEnd {
			gated[m.Name] = true
		}
		var rest []string
		for n := range a.values[w] {
			if !gated[n] && len(b.values[w][n]) > 0 {
				rest = append(rest, n)
			}
		}
		sort.Strings(rest)
		for _, n := range rest {
			va, vb := a.values[w][n], b.values[w][n]
			fmt.Fprintf(tw, "%s\t%s\t%.4f\t%.4f\t\t%+.1f%%\t\tungated (spread %.0f%% / %.0f%%)\t\n",
				w, n, median(va), median(vb), 100*ratio(median(vb)-median(va), median(va)), 100*spread(va), 100*spread(vb))
		}
		fa, fb := ratio(float64(a.failed[w]), float64(a.attempted[w])), ratio(float64(b.failed[w]), float64(b.attempted[w]))
		v := "same"
		if fb > fa {
			v, code = "worse", 1
		}
		fmt.Fprintf(tw, "%s\tops_failed share\t%.6f\t%.6f\t\t\t\t%s\t\n", w, fa, fb, v)
	}
	tw.Flush()
	return code
}
