package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// tinySizes runs every workload in a fraction of a second.
var tinySizes = sizes{
	WordInitial: 256 << 10, WordSaves: 3, WordGrowth: 8 << 10,
	SQLiteDB: 1 << 20, SQLiteRounds: 5,
	AppendFiles: 2, AppendWrites: 3, AppendSize: 64 << 10,
	PushClients: 2, Pushes: 300, PushPaths: 64, PushPayload: 256, PollEach: 16,
	FileserverIters: 60,
}

func tinyRep(t *testing.T, w workload, seed int64, traced bool) *rep {
	t.Helper()
	r, err := w.run(repEnv{dir: filepath.Join(t.TempDir(), "rep"), seed: seed, sz: tinySizes, traced: traced})
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	if len(r.problems) > 0 || r.failed > 0 {
		t.Fatalf("%s: oracle: failed=%d %v", w.name, r.failed, r.problems)
	}
	return r
}

// TestWorkloads runs every workload untraced and traced at a tiny size: the
// oracle passes, every named metric is present and finite, the end-to-end
// ones that exist everywhere are never zero, counts repeat exactly for a
// seed, and another seed generates other bytes.
func TestWorkloads(t *testing.T) {
	exact := []string{"wire.up_mb", "wire.msgs", "core.uploaded_nodes", "core.delta_triggers", "core.ticks"}
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			plain := tinyRep(t, w, 1, false)
			again := tinyRep(t, w, 1, false)
			traced := tinyRep(t, w, 1, true)
			other := tinyRep(t, w, 2, false)

			// The gated metrics and the timed ones beside them exist on every
			// workload and are never zero.
			e2e := reduce(w, []*rep{plain}, nil).Metrics
			names := []string{"work_s", "cpu_s", "op_p50_us", "op_p90_us", "op_p99_us"}
			for _, s := range endToEnd {
				names = append(names, s.Name)
			}
			for _, n := range names {
				v, ok := e2e[n]
				if !ok || v == 0 || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("end-to-end %s = %v (present=%v): want finite and non-zero", n, v, ok)
				}
			}
			layers := reduceTraced(w, []*rep{plain}, []*rep{traced}).Metrics
			for _, s := range perLayer {
				if isKernel(s.Name) {
					continue // TestKernels
				}
				if v := layers[s.Name]; math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("per-layer %s = %v: want finite", s.Name, v)
				}
			}
			if got := layers["trace.share_sum"]; got < 0.9 || got > 1.1 {
				t.Errorf("trace.share_sum = %v, want within [0.9, 1.1]", got)
			}
			if len(traced.spans) == 0 {
				t.Error("traced repetition recorded no spans")
			}
			// An engine workload whose uploads all wait for the final drain
			// measures no upload beside an application op.
			if w.name != "small_push" && plain.uploadsBeforeSettle < 2 {
				t.Errorf("%d uploads before the run settled, want several", plain.uploadsBeforeSettle)
			}

			if plain.tue != again.tue || plain.digest != again.digest {
				t.Errorf("same seed: tue %v vs %v, content digest %x vs %x", plain.tue, again.tue, plain.digest, again.digest)
			}
			for _, k := range exact {
				if plain.layer[k] != again.layer[k] || plain.layer[k] != traced.layer[k] {
					t.Errorf("same seed: %s = %v, %v, traced %v", k, plain.layer[k], again.layer[k], traced.layer[k])
				}
			}
			if plain.digest == other.digest {
				t.Errorf("seeds 1 and 2 left the same content (digest %x)", plain.digest)
			}
		})
	}
}

func isKernel(name string) bool {
	for _, k := range kernelSpecs {
		if k.Name == name {
			return true
		}
	}
	return false
}

// TestDesignedPaths checks that the workloads exercise and bypass the delta
// path as designed.
func TestDesignedPaths(t *testing.T) {
	for _, tc := range []struct {
		name     string
		triggers float64
	}{{"word_txn", float64(tinySizes.WordSaves)}, {"sqlite_inplace", 0}, {"bulk_append", 0}} {
		w, _ := findWorkload(tc.name)
		r := tinyRep(t, w, 3, false)
		if got := r.layer["core.delta_triggers"]; got != tc.triggers {
			t.Errorf("%s: core.delta_triggers = %v, want %v", tc.name, got, tc.triggers)
		}
		if got := r.layer["core.inplace_deltas"]; got != 0 {
			t.Errorf("%s: core.inplace_deltas = %v, want 0", tc.name, got)
		}
	}
}

func TestKernels(t *testing.T) {
	m := map[string]float64{}
	if err := runKernels(m, 1, t.TempDir()); err != nil {
		t.Fatal(err)
	}
	for _, k := range kernelSpecs {
		if v, ok := m[k.Name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			t.Errorf("kernel %s = %v (present=%v)", k.Name, v, ok)
		}
	}
	if len(m) != len(kernelSpecs) {
		t.Errorf("runKernels set %d metrics, kernelSpecs lists %d", len(m), len(kernelSpecs))
	}
}

// TestContract checks that BENCHMARK.json and the tables in metrics.go name
// the same workloads and metrics with the same units and directions.
func TestContract(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit, Better string }
	var c struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &c); err != nil {
		t.Fatal(err)
	}
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(c.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if c.Workloads[i].Name != w.name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the program", i, c.Workloads[i].Name, w.name)
		}
	}
	same := func(kind string, got []metric, want []metricSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in metrics.go", kind, len(got), len(want))
			return
		}
		for i, s := range want {
			if got[i] != (metric{s.Name, s.Unit, s.Better}) {
				t.Errorf("%s %d: BENCHMARK.json has %v, metrics.go %v", kind, i, got[i], s)
			}
		}
	}
	same("end_to_end", c.EndToEnd, endToEnd)
	same("per_layer", c.PerLayer, perLayer)
}

func TestSelfTime(t *testing.T) {
	tr := newTracer()
	// op [0,100] → vfs [10,30], wire [40,90] → server [50,70] → journal [55,60];
	// a background journal fsync [0,500] with no parent.
	tr.spans = []span{
		{ID: 1, Layer: layerCore, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Layer: layerVFS, Name: "write", Start: 10, End: 30},
		{ID: 3, Parent: 1, Layer: layerWire, Name: "push", Start: 40, End: 90},
		{ID: 4, Parent: 3, Layer: layerServer, Name: "push", Start: 50, End: 70},
		{ID: 5, Parent: 4, Layer: layerJournal, Name: "write", Start: 55, End: 60},
		{ID: 6, Layer: layerJournal, Name: "fsync", Start: 0, End: 500},
	}
	lt := tr.layerTimes()
	want := map[string]float64{layerCore: 30e-9, layerVFS: 20e-9, layerWire: 30e-9, layerServer: 15e-9, layerJournal: 5e-9}
	var sum float64
	for layer, w := range want {
		if got := lt.self[layer]; math.Abs(got-w) > 1e-15 {
			t.Errorf("self[%s] = %v, want %v", layer, got, w)
		}
		sum += lt.self[layer]
	}
	if math.Abs(sum-lt.topLevel) > 1e-15 || math.Abs(lt.topLevel-100e-9) > 1e-15 {
		t.Errorf("self times sum to %v, top level %v, want both 100ns", sum, lt.topLevel)
	}
	if got := lt.background[layerJournal]; math.Abs(got-500e-9) > 1e-15 {
		t.Errorf("background journal = %v, want 500ns", got)
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	contract := filepath.Join(dir, "BENCHMARK.json")
	os.WriteFile(contract, []byte(`{"end_to_end":[{"name":"work_s","unit":"s","better":"lower","bound":0.1},
		{"name":"tue","unit":"ratio","better":"lower","bound":0.03}]}`), 0o644)
	seed, tue := int64(1), 2.0
	write := func(name string, failed int, work ...float64) string {
		var f outFile
		for _, v := range work {
			f.Runs = append(f.Runs, &runDoc{Seed: seed, Results: []*result{{Workload: "w", Attempted: 100, Failed: failed,
				Metrics: map[string]float64{"work_s": v, "tue": tue}}}})
		}
		b, _ := json.Marshal(f)
		p := filepath.Join(dir, name)
		os.WriteFile(p, b, 0o644)
		return p
	}
	base := write("a.json", 0, 1.00, 1.01, 0.99, 1.02, 0.98)
	for _, tc := range []struct {
		name    string
		path    string
		verdict string
		code    int
	}{
		{"same", write("same.json", 0, 1.03, 1.02, 1.04, 1.01, 1.03), "same", 0},
		{"better", write("better.json", 0, 0.80, 0.81, 0.79, 0.80, 0.82), "better", 0},
		{"worse", write("worse.json", 0, 1.20, 1.21, 1.19, 1.22, 1.20), "worse", 1},
		{"unresolved", write("noisy.json", 0, 0.7, 1.4, 1.0, 0.8, 1.3), "unresolved", 0},
		{"failed ops", write("failed.json", 1, 1.00, 1.01, 0.99, 1.02, 0.98), "worse", 1},
	} {
		var out bytes.Buffer
		code := runCompare(&out, contract, base, tc.path)
		if code != tc.code || !bytes.Contains(out.Bytes(), []byte(tc.verdict)) {
			t.Errorf("%s: exit %d, want %d; output wants %q:\n%s", tc.name, code, tc.code, tc.verdict, out.String())
		}
	}

	// tue is a count: 1 % more traffic is within the bound between seeds,
	// and a change of behaviour for one seed.
	tue = 2.02
	more := write("more.json", 0, 1.00, 1.01, 0.99, 1.02, 0.98)
	seed = 2
	otherSeed := write("other.json", 0, 1.00, 1.01, 0.99, 1.02, 0.98)
	var out bytes.Buffer
	if code := runCompare(&out, contract, base, more); code != 1 {
		t.Errorf("same seed, tue 2.00 -> 2.02: exit %d, want 1:\n%s", code, out.String())
	}
	out.Reset()
	if code := runCompare(&out, contract, base, otherSeed); code != 0 {
		t.Errorf("other seed, tue 2.00 -> 2.02: exit %d, want 0:\n%s", code, out.String())
	}
}
