package experiment

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/trace"
)

// smokeScale keeps the full-matrix test fast; the shape assertions below
// hold at every scale (verified at 1.0 by the benchmark harness).
const smokeScale = 0.1

var update = flag.Bool("update", false, "rewrite testdata/*.golden from this run")

// checkGolden is the drift gate on the paper tables: ticks and traffic are
// deterministic, so a rendered table that differs from its golden file is a
// change of behaviour. It arrives as a diff of the golden file, made with
// `go test ./internal/experiment -update` and reviewed like code.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Errorf("%s drifted from %s (if intended, rerun with -update and review the diff):\n--- got ---\n%s--- want ---\n%s",
			name, path, got, want)
	}
}

// renderMatrix prints the three projections of the matrix.
func renderMatrix(m *Matrix) string {
	var buf bytes.Buffer
	m.PrintTable2(&buf)
	m.PrintFig8(&buf)
	m.PrintFig9(&buf)
	return buf.String()
}

func TestMatrixShapes(t *testing.T) {
	m, err := RunMatrix(smokeScale)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "matrix_scale0.1", renderMatrix(m))

	get := func(sys System, tn string) *Result {
		t.Helper()
		r := find(m.PC, sys, tn)
		if r == nil {
			t.Fatalf("missing result %s/%s", sys, tn)
		}
		return r
	}

	// Table II shape, artificial traces: Dropbox client CPU >> Seafile >>
	// DeltaCFS.
	for _, tn := range []string{"append", "random"} {
		db, sf, dc := get(SysDropbox, tn), get(SysSeafile, tn), get(SysDeltaCFS, tn)
		if !(db.ClientTicks > sf.ClientTicks && sf.ClientTicks > dc.ClientTicks) {
			t.Errorf("%s CPU ordering: dropbox %d, seafile %d, deltacfs %d",
				tn, db.ClientTicks, sf.ClientTicks, dc.ClientTicks)
		}
	}

	// WeChat: DeltaCFS CPU at least an order of magnitude below Dropbox.
	db, dc := get(SysDropbox, "wechat"), get(SysDeltaCFS, "wechat")
	if db.ClientTicks < 10*dc.ClientTicks {
		t.Errorf("wechat: dropbox %d ticks vs deltacfs %d — gap too small",
			db.ClientTicks, dc.ClientTicks)
	}

	// Server CPU: DeltaCFS server stays low (it only applies increments).
	for _, tn := range []string{"append", "random", "wechat"} {
		sf, dcr := get(SysSeafile, tn), get(SysDeltaCFS, tn)
		if dcr.ServerTicks > sf.ServerTicks*4 {
			t.Errorf("%s server: deltacfs %d vs seafile %d", tn, dcr.ServerTicks, sf.ServerTicks)
		}
	}

	// Fig 8 shapes.
	// (a) append: Dropbox, NFS and DeltaCFS upload ~the update size;
	// Seafile ships far more (1 MB chunks).
	ap := get(SysSeafile, "append")
	updMB := float64(ap.UpdateBytes) / (1 << 20)
	for _, sys := range []System{SysNFS, SysDeltaCFS} {
		r := get(sys, "append")
		if r.UploadMB > updMB*1.5+0.5 {
			t.Errorf("append %s upload %.2f MB vs update %.2f MB", sys, r.UploadMB, updMB)
		}
	}
	if ap.UploadMB < updMB*1.2 {
		t.Errorf("append seafile upload %.2f MB should exceed update %.2f MB", ap.UploadMB, updMB)
	}

	// (c) Word: NFS uploads the most and downloads nearly as much
	// (stale-handle refetch); DeltaCFS uploads the least; download ~0.
	nfsW, dbW, sfW, dcW := get(SysNFS, "word"), get(SysDropbox, "word"),
		get(SysSeafile, "word"), get(SysDeltaCFS, "word")
	if !(nfsW.UploadMB > sfW.UploadMB && sfW.UploadMB > dcW.UploadMB) {
		t.Errorf("word upload ordering: nfs %.1f, seafile %.1f, deltacfs %.1f",
			nfsW.UploadMB, sfW.UploadMB, dcW.UploadMB)
	}
	// At smoke scale the document fits in one 4 MB dedup block, so
	// Dropbox's rsync is nearly as effective as DeltaCFS's; the full
	// confinement penalty is asserted in TestWordShapeAtLargerScale.
	if dbW.UploadMB < dcW.UploadMB*0.8 {
		t.Errorf("word: dropbox %.2f far below deltacfs %.2f", dbW.UploadMB, dcW.UploadMB)
	}
	if nfsW.DownloadMB < nfsW.UploadMB/3 {
		t.Errorf("word NFS download %.1f vs upload %.1f: refetch missing",
			nfsW.DownloadMB, nfsW.UploadMB)
	}
	if dcW.DownloadMB > 0.5 {
		t.Errorf("word DeltaCFS download %.2f MB, want ~0", dcW.DownloadMB)
	}
	if dcW.DeltaTriggers == 0 {
		t.Error("word DeltaCFS: no delta triggers")
	}

	// (d) WeChat: Seafile worst; DeltaCFS near NFS; NFS has nonzero
	// download (fetch-before-write).
	sfC, nfsC, dcC := get(SysSeafile, "wechat"), get(SysNFS, "wechat"), get(SysDeltaCFS, "wechat")
	if sfC.UploadMB < 2*dcC.UploadMB {
		t.Errorf("wechat: seafile %.1f MB should dwarf deltacfs %.1f MB", sfC.UploadMB, dcC.UploadMB)
	}
	if nfsC.DownloadMB <= 0 {
		t.Error("wechat NFS download = 0; fetch-before-write missing")
	}
	if dcC.UploadMB > 3*float64(dcC.UpdateBytes)/(1<<20) {
		t.Errorf("wechat DeltaCFS upload %.1f MB vs update %.1f MB",
			dcC.UploadMB, float64(dcC.UpdateBytes)/(1<<20))
	}

	// Fig 9 / mobile: Dropsync uploads massively more than DeltaCFS.
	for _, tn := range []string{"append", "random"} {
		ds := find(m.Mobile, SysDropsync, tn)
		dcm := find(m.Mobile, SysDeltaCFS, tn)
		if ds == nil || dcm == nil {
			t.Fatalf("missing mobile results for %s", tn)
		}
		if ds.UploadMB < 1.5*dcm.UploadMB {
			t.Errorf("mobile %s: dropsync %.1f MB vs deltacfs %.1f MB", tn, ds.UploadMB, dcm.UploadMB)
		}
		if ds.ClientTicks < 2*dcm.ClientTicks {
			t.Errorf("mobile %s CPU: dropsync %d vs deltacfs %d", tn, ds.ClientTicks, dcm.ClientTicks)
		}
	}

	// Rendering must not panic and must mention every system.
	var buf bytes.Buffer
	m.PrintTable2(&buf)
	m.PrintFig8(&buf)
	m.PrintFig9(&buf)
	out := buf.String()
	for _, sys := range append(PCSystems, SysDropsync) {
		if !strings.Contains(out, string(sys)) {
			t.Errorf("report missing system %s", sys)
		}
	}
}

func TestWordShapeAtLargerScale(t *testing.T) {
	// At 40%% scale the document spans multiple 4 MB dedup blocks, so the
	// paper's Fig 8(c) gap appears: Dropbox's block-confined rsync plus
	// insertion shifts cost several times DeltaCFS's whole-file local
	// rsync.
	if testing.Short() {
		t.Skip("larger-scale word run")
	}
	tr := trace.Word(trace.PaperWordConfig().Scaled(0.4))
	db, err := RunTrace(SysDropbox, tr, metrics.PC)
	if err != nil {
		t.Fatal(err)
	}
	dc, err := RunTrace(SysDeltaCFS, tr, metrics.PC)
	if err != nil {
		t.Fatal(err)
	}
	if db.UploadMB < 2*dc.UploadMB {
		t.Errorf("word@0.4: dropbox %.1f MB vs deltacfs %.1f MB — confinement gap missing",
			db.UploadMB, dc.UploadMB)
	}
	// The paper reports ~11x; a work-proportional cost model reproduces
	// ~4x — the remainder is the real Dropbox client's implementation
	// inefficiency (see EXPERIMENTS.md). The ordering and a multi-x gap
	// must hold.
	if db.ClientTicks < 3*dc.ClientTicks {
		t.Errorf("word@0.4 CPU: dropbox %d vs deltacfs %d", db.ClientTicks, dc.ClientTicks)
	}
}

func TestFig1AndFig2(t *testing.T) {
	rs, err := Fig1(smokeScale)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 4 {
		t.Fatalf("Fig1 results = %d, want 4", len(rs))
	}
	// Dropbox burns more client CPU than Seafile on both workloads.
	for _, wl := range []string{"word", "wechat"} {
		var db, sf *Fig1Result
		for i := range rs {
			if rs[i].Workload != wl {
				continue
			}
			switch rs[i].System {
			case SysDropbox:
				db = &rs[i]
			case SysSeafile:
				sf = &rs[i]
			}
		}
		if db == nil || sf == nil {
			t.Fatalf("missing Fig1 results for %s", wl)
		}
		if db.Ticks <= sf.Ticks {
			t.Errorf("fig1 %s: dropbox %d ticks <= seafile %d", wl, db.Ticks, sf.Ticks)
		}
		// Seafile ships more bytes than Dropbox on both (large chunks).
		if sf.UploadMB <= db.UploadMB {
			t.Errorf("fig1 %s: seafile upload %.1f <= dropbox %.1f", wl, sf.UploadMB, db.UploadMB)
		}
	}
	var buf bytes.Buffer
	PrintFig1(&buf, rs)

	f2, err := Fig2(smokeScale)
	if err != nil {
		t.Fatal(err)
	}
	// Whole-file re-uploads make TUE enormous.
	if f2.TUE < 5 {
		t.Errorf("Fig2 TUE = %.1f, want >> 1", f2.TUE)
	}
	PrintFig2(&buf, f2)
	checkGolden(t, "fig1_fig2_scale0.1", buf.String())
}

func TestTable3Shapes(t *testing.T) {
	rs, err := Table3(300)
	if err != nil {
		t.Fatal(err)
	}
	get := func(p string, cfg FSConfig) float64 {
		for _, r := range rs {
			if r.Personality == p && r.Config == string(cfg) {
				return r.MBps
			}
		}
		t.Fatalf("missing %s/%s", p, cfg)
		return 0
	}

	// Fileserver: Native ~ FUSE > DeltaCFS > DeltaCFSc.
	n, f, d, dc := get("Fileserver", CfgNative), get("Fileserver", CfgFUSE),
		get("Fileserver", CfgDeltaCFS), get("Fileserver", CfgDeltaCFSc)
	if f > n {
		t.Errorf("fileserver FUSE %.1f > native %.1f", f, n)
	}
	if f < n*0.85 {
		t.Errorf("fileserver FUSE %.1f too far below native %.1f", f, n)
	}
	if !(d < f && dc < d) {
		t.Errorf("fileserver ordering: native %.1f fuse %.1f deltacfs %.1f deltacfsc %.1f",
			n, f, d, dc)
	}
	// Webserver: all four within a modest band (read-dominated).
	wn, wdc := get("Webserver", CfgNative), get("Webserver", CfgDeltaCFS)
	if wdc < wn*0.7 {
		t.Errorf("webserver DeltaCFS %.1f too far below native %.1f", wdc, wn)
	}
	// Varmail: fsync-bound, DeltaCFS within half of native.
	vn, vd := get("Varmail", CfgNative), get("Varmail", CfgDeltaCFS)
	if vd < vn*0.5 {
		t.Errorf("varmail DeltaCFS %.1f below half of native %.1f", vd, vn)
	}

	var buf bytes.Buffer
	PrintTable3(&buf, rs)
	if !strings.Contains(buf.String(), "Fileserver") {
		t.Fatal("Table III report malformed")
	}
}

func TestTable4(t *testing.T) {
	rs, err := Table4()
	if err != nil {
		t.Fatal(err)
	}
	want := map[System]ReliabilityResult{
		SysDropbox:  {Corrupted: "upload", Inconsistent: "upload/omit", Causal: "N"},
		SysSeafile:  {Corrupted: "upload", Inconsistent: "upload/omit", Causal: "N"},
		SysDeltaCFS: {Corrupted: "detect", Inconsistent: "detect", Causal: "Y"},
	}
	for _, r := range rs {
		w := want[r.System]
		if r.Corrupted != w.Corrupted || r.Inconsistent != w.Inconsistent || r.Causal != w.Causal {
			t.Errorf("%s: got (%s, %s, %s), want (%s, %s, %s)", r.System,
				r.Corrupted, r.Inconsistent, r.Causal,
				w.Corrupted, w.Inconsistent, w.Causal)
		}
	}
	var buf bytes.Buffer
	PrintTable4(&buf, rs)
	if !strings.Contains(buf.String(), "DeltaCFS") {
		t.Fatal("Table IV report malformed")
	}
}

func TestRunTraceUnknownSystem(t *testing.T) {
	tr := trace.Append(trace.PaperAppendConfig().Scaled(0.01))
	if _, err := RunTrace(System("bogus"), tr, metrics.PC); err == nil {
		t.Fatal("unknown system accepted")
	}
}

// TestMatrixParallelDeterministic checks that the worker-pool sweep renders
// the same tables as a serial sweep: the meters are deterministic, cells are
// independent, and slots are index-addressed, so fan-out must not change a
// single byte of output.
func TestMatrixParallelDeterministic(t *testing.T) {
	defer func(old int) { matrixWorkers = old }(matrixWorkers)

	matrixWorkers = 1
	serial, err := RunMatrix(0.02)
	if err != nil {
		t.Fatal(err)
	}
	matrixWorkers = 6
	parallel, err := RunMatrix(0.02)
	if err != nil {
		t.Fatal(err)
	}

	if s, p := renderMatrix(serial), renderMatrix(parallel); s != p {
		t.Errorf("parallel sweep output differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", s, p)
	}
}
