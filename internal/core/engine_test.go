package core

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/metrics"
	"repro/internal/server"
	"repro/internal/trace"
	"repro/internal/vfs"
)

// rig is a complete single-client test fixture: MemFS backing, in-process
// server, DeltaCFS engine.
type rig struct {
	backing *vfs.MemFS
	srv     *server.Server
	eng     *Engine
	clk     *clock.Clock
	meter   *metrics.CPUMeter
	traffic *metrics.TrafficMeter
}

func newRig(t *testing.T, checksums bool) *rig {
	t.Helper()
	r := &rig{
		backing: vfs.NewMemFS(),
		clk:     &clock.Clock{},
		meter:   metrics.NewCPUMeter(metrics.PC),
		traffic: &metrics.TrafficMeter{},
	}
	r.srv = server.New(metrics.NewCPUMeter(metrics.PC))
	ep := server.NewLoopback(r.srv, r.meter, r.traffic)
	eng, err := New(Config{
		Backing:   r.backing,
		Endpoint:  ep,
		Clock:     r.clk,
		Meter:     r.meter,
		Checksums: checksums,
	})
	if err != nil {
		t.Fatal(err)
	}
	r.eng = eng
	return r
}

// seed installs content on both sides (the pre-sync state).
func (r *rig) seed(path string, content []byte) {
	if err := r.backing.Create(path); err != nil {
		panic(err)
	}
	if len(content) > 0 {
		if err := r.backing.WriteAt(path, 0, content); err != nil {
			panic(err)
		}
	}
	r.srv.SeedFile(path, content)
}

// settle advances the clock past all delays and drains the engine.
func (r *rig) settle(t *testing.T) {
	t.Helper()
	r.clk.Advance(time.Minute)
	r.eng.Tick(r.clk.Now())
	if err := r.eng.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := r.eng.LastPushError(); err != nil {
		t.Fatalf("push error: %v", err)
	}
}

// assertSynced verifies the server's copy of path equals the local one.
func (r *rig) assertSynced(t *testing.T, path string) {
	t.Helper()
	local, err := r.backing.ReadFile(path)
	if err != nil {
		t.Fatalf("local read %s: %v", path, err)
	}
	remote, ok := r.srv.FileContent(path)
	if !ok {
		t.Fatalf("server missing %s", path)
	}
	if !bytes.Equal(local, remote) {
		t.Fatalf("%s: server content diverged (local %d bytes, remote %d bytes)",
			path, len(local), len(remote))
	}
}

func randBytes(seed int64, n int) []byte {
	p := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(p)
	return p
}

func TestBasicWriteSync(t *testing.T) {
	r := newRig(t, false)
	fs := r.eng.FS()
	if err := fs.Create("f"); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteAt("f", 0, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Close("f"); err != nil {
		t.Fatal(err)
	}
	// Not yet uploaded: delay has not elapsed.
	if _, ok := r.srv.FileContent("f"); ok {
		t.Fatal("uploaded before the Sync Queue delay")
	}
	r.clk.Advance(4 * time.Second)
	r.eng.Tick(r.clk.Now())
	r.assertSynced(t, "f")
}

func TestWriteUploadsOnlyPayload(t *testing.T) {
	// The NFS-like-RPC property: a small write into a large seeded file
	// uploads roughly the write size, not the file size.
	r := newRig(t, false)
	big := randBytes(1, 4<<20)
	r.seed("big", big)

	fs := r.eng.FS()
	if err := fs.WriteAt("big", 1<<20, []byte("tiny change")); err != nil {
		t.Fatal(err)
	}
	r.settle(t)
	r.assertSynced(t, "big")
	if up := r.traffic.Uploaded(); up > 4096 {
		t.Fatalf("uploaded %d bytes for an 11-byte write", up)
	}
}

func TestWordTransactionalUpdate(t *testing.T) {
	// The full Fig 3 Word sequence with a content edit. The relation table
	// must trigger delta encoding and the upload must be near the edit
	// size, not the file size.
	r := newRig(t, false)
	oldContent := randBytes(2, 1<<20)
	r.seed("f", oldContent)

	newContent := append([]byte(nil), oldContent...)
	copy(newContent[100000:100200], randBytes(3, 200))

	fs := r.eng.FS()
	steps := []func() error{
		func() error { return fs.Rename("f", "t0") },
		func() error { return fs.Create("t1") },
		func() error { return fs.WriteAt("t1", 0, newContent) },
		func() error { return fs.Close("t1") },
		func() error { return fs.Rename("t1", "f") },
		func() error { return fs.Unlink("t0") },
	}
	for i, step := range steps {
		if err := step(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		r.clk.Advance(10 * time.Millisecond)
		r.eng.Tick(r.clk.Now())
	}
	r.settle(t)

	r.assertSynced(t, "f")
	if r.eng.Stats().DeltaTriggers == 0 {
		t.Fatal("transactional update did not trigger delta encoding")
	}
	// Upload must be far below the 1 MB rewrite (one rsync block per edit
	// region plus framing).
	if up := r.traffic.Uploaded(); up > 64<<10 {
		t.Fatalf("uploaded %d bytes; delta encoding ineffective", up)
	}
	// t0/t1 must not linger on the server.
	if _, ok := r.srv.FileContent("t0"); ok {
		t.Fatal("t0 lingers on server")
	}
	if _, ok := r.srv.FileContent("t1"); ok {
		t.Fatal("t1 lingers on server")
	}
	// Trash must be cleaned up locally after relation expiry.
	files, _ := r.backing.List(TrashDir)
	if len(files) != 0 {
		t.Fatalf("trash not cleaned: %v", files)
	}
}

func TestGeditLinkRenamePattern(t *testing.T) {
	// Fig 3 gedit: create tmp, write tmp, link f f~, rename tmp f.
	// The name-exists rule must trigger delta encoding.
	r := newRig(t, false)
	oldContent := randBytes(4, 512<<10)
	r.seed("f", oldContent)

	newContent := append([]byte(nil), oldContent...)
	newContent = append(newContent, randBytes(5, 300)...)

	fs := r.eng.FS()
	if err := fs.Create("tmp"); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteAt("tmp", 0, newContent); err != nil {
		t.Fatal(err)
	}
	if err := fs.Close("tmp"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Link("f", "f~"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename("tmp", "f"); err != nil {
		t.Fatal(err)
	}
	r.settle(t)

	r.assertSynced(t, "f")
	r.assertSynced(t, "f~")
	fTilde, _ := r.srv.FileContent("f~")
	if !bytes.Equal(fTilde, oldContent) {
		t.Fatal("backup f~ does not hold the old version")
	}
	if r.eng.Stats().DeltaTriggers == 0 {
		t.Fatal("gedit pattern did not trigger delta encoding")
	}
	if up := r.traffic.Uploaded(); up > 64<<10 {
		t.Fatalf("uploaded %d bytes; name-exists delta ineffective", up)
	}
}

func TestUnlinkThenRewritePattern(t *testing.T) {
	// The paper's "bad file update": delete the file, then write its new
	// version. The relation entry from unlink enables the delta.
	r := newRig(t, false)
	oldContent := randBytes(6, 256<<10)
	r.seed("f", oldContent)

	newContent := append([]byte(nil), oldContent...)
	copy(newContent[1000:1100], randBytes(7, 100))

	fs := r.eng.FS()
	if err := fs.Unlink("f"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Create("f"); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteAt("f", 0, newContent); err != nil {
		t.Fatal(err)
	}
	if err := fs.Close("f"); err != nil {
		t.Fatal(err)
	}
	r.settle(t)

	r.assertSynced(t, "f")
	if r.eng.Stats().DeltaTriggers == 0 {
		t.Fatal("unlink-then-rewrite did not trigger delta encoding")
	}
	if up := r.traffic.Uploaded(); up > 32<<10 {
		t.Fatalf("uploaded %d bytes for a 100-byte change", up)
	}
}

func TestInPlaceLargeRewriteUsesDelta(t *testing.T) {
	// §III-A extension: an in-place update that rewrites the whole file
	// with mostly-identical content should ship a delta, courtesy of the
	// physical undo log.
	r := newRig(t, false)
	oldContent := randBytes(8, 512<<10)
	r.seed("f", oldContent)

	newContent := append([]byte(nil), oldContent...)
	copy(newContent[2000:2050], randBytes(9, 50))

	fs := r.eng.FS()
	// The application rewrites the entire file in place.
	if err := fs.WriteAt("f", 0, newContent); err != nil {
		t.Fatal(err)
	}
	if err := fs.Close("f"); err != nil {
		t.Fatal(err)
	}
	r.settle(t)

	r.assertSynced(t, "f")
	if r.eng.Stats().InPlaceDeltas == 0 {
		t.Fatal("large in-place rewrite did not use delta encoding")
	}
	if up := r.traffic.Uploaded(); up > 32<<10 {
		t.Fatalf("uploaded %d bytes for a 50-byte effective change", up)
	}
}

func TestInPlaceSmallWritesStayRaw(t *testing.T) {
	// Small in-place writes must NOT pay for delta encoding — that is the
	// whole point of the paper.
	r := newRig(t, false)
	r.seed("f", randBytes(10, 256<<10))
	fs := r.eng.FS()
	if err := fs.WriteAt("f", 5000, []byte("small")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Close("f"); err != nil {
		t.Fatal(err)
	}
	r.settle(t)
	r.assertSynced(t, "f")
	st := r.eng.Stats()
	if st.InPlaceDeltas != 0 || st.DeltaTriggers != 0 {
		t.Fatalf("delta encoding ran for a small in-place write: %+v", st)
	}
}

// An in-place rewrite that leaves a 1-byte change in most blocks of a file:
// of every three 4 KiB blocks the application rewrites the first two, with
// one changed byte in each, 200 bytes either side of their shared edge. A
// block-granular delta ships every touched block — all of the rewritten
// bytes, its op headers on top — so it lost to the raw writes and the update
// went out as RPC. Byte extension ships the 201 bytes from one change to the
// next: the delta wins, and the peer applies it to the same bytes.
func TestInPlaceSparseByteChangesUseDelta(t *testing.T) {
	const bs, size = 4096, 96 * 4096
	old := randBytes(11, size)
	next := append([]byte(nil), old...)
	for lo := 0; lo < size; lo += 3 * bs {
		next[lo+bs-100] ^= 0x5a
		next[lo+bs+100] ^= 0x5a
	}

	srv := server.New(nil)
	clk := &clock.Clock{}
	traffic := &metrics.TrafficMeter{}
	abk, bbk := vfs.NewMemFS(), vfs.NewMemFS()
	a, err := New(Config{Backing: abk, Endpoint: server.NewLoopback(srv, nil, traffic), Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(Config{Backing: bbk, Endpoint: server.NewLoopback(srv, nil, nil), Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	for _, fs := range []vfs.FS{abk, bbk} {
		if err := fs.WriteAt("db", 0, old); err != nil {
			t.Fatal(err)
		}
	}
	srv.SeedFile("db", old)

	for lo := 0; lo < size; lo += 3 * bs {
		if err := a.FS().WriteAt("db", int64(lo), next[lo:lo+2*bs]); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.FS().Close("db"); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Minute)
	a.Tick(clk.Now())
	if err := a.Drain(); err != nil {
		t.Fatal(err)
	}
	b.Tick(clk.Now())

	if n := a.Stats().InPlaceDeltas; n != 1 {
		t.Fatalf("InPlaceDeltas = %d, want 1: the raw writes shipped instead of the delta", n)
	}
	if up := traffic.Uploaded(); up > 16<<10 {
		t.Fatalf("uploaded %d bytes for 64 changed bytes in %d rewritten", up, size/3*2)
	}
	if got, _ := srv.FileContent("db"); !bytes.Equal(got, next) {
		t.Fatal("server does not hold the new version")
	}
	if got, err := bbk.ReadFile("db"); err != nil || !bytes.Equal(got, next) {
		t.Fatalf("peer does not hold the new version (err=%v)", err)
	}
}

func TestCausalOrderCreateDelete(t *testing.T) {
	// create a, create b, create c, delete a — the queue must never let
	// the server observe b without c when a's nodes are dropped.
	r := newRig(t, false)
	fs := r.eng.FS()
	for _, p := range []string{"a", "b", "c"} {
		if err := fs.Create(p); err != nil {
			t.Fatal(err)
		}
		if err := fs.WriteAt(p, 0, []byte("data-"+p)); err != nil {
			t.Fatal(err)
		}
		if err := fs.Close(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Unlink("a"); err != nil {
		t.Fatal(err)
	}
	r.settle(t)

	if _, ok := r.srv.FileContent("a"); ok {
		t.Fatal("deleted a reached the server")
	}
	r.assertSynced(t, "b")
	r.assertSynced(t, "c")
}

func TestAppendTraceEndToEnd(t *testing.T) {
	r := newRig(t, false)
	tr := trace.Append(trace.PaperAppendConfig().Scaled(0.05))
	if err := tr.Setup(r.backing); err != nil {
		t.Fatal(err)
	}
	if content, err := r.backing.ReadFile("append.dat"); err == nil {
		r.srv.SeedFile("append.dat", content)
	}
	if err := trace.Replay(tr, r.eng, r.clk); err != nil {
		t.Fatal(err)
	}
	if err := r.eng.Drain(); err != nil {
		t.Fatal(err)
	}
	r.assertSynced(t, "append.dat")
	// Upload should be close to the data written (NFS-like RPC), with
	// modest framing overhead.
	if up := r.traffic.Uploaded(); up > tr.WriteBytes*11/10+4096 {
		t.Fatalf("uploaded %d for %d written", up, tr.WriteBytes)
	}
}

func TestWeChatTraceEndToEnd(t *testing.T) {
	r := newRig(t, false)
	cfg := trace.PaperWeChatConfig().Scaled(0.02)
	tr := trace.WeChat(cfg)
	if err := tr.Setup(r.backing); err != nil {
		t.Fatal(err)
	}
	if content, err := r.backing.ReadFile(cfg.Path); err == nil {
		r.srv.SeedFile(cfg.Path, content)
	}
	if err := trace.Replay(tr, r.eng, r.clk); err != nil {
		t.Fatal(err)
	}
	if err := r.eng.Drain(); err != nil {
		t.Fatal(err)
	}
	r.assertSynced(t, cfg.Path)
	r.assertSynced(t, cfg.JournalPath)
	// Journal content was truncated before upload; total traffic should
	// be in the vicinity of the db update size, far below db+journal.
	if up := r.traffic.Uploaded(); up > tr.UpdateBytes*2 {
		t.Fatalf("uploaded %d, update size %d: journal data not elided", up, tr.UpdateBytes)
	}
}

func TestWordTraceEndToEnd(t *testing.T) {
	r := newRig(t, false)
	cfg := trace.PaperWordConfig().Scaled(0.02)
	tr := trace.Word(cfg)
	if err := tr.Setup(r.backing); err != nil {
		t.Fatal(err)
	}
	if content, err := r.backing.ReadFile(cfg.Path); err == nil {
		r.srv.SeedFile(cfg.Path, content)
	}
	if err := trace.Replay(tr, r.eng, r.clk); err != nil {
		t.Fatal(err)
	}
	if err := r.eng.Drain(); err != nil {
		t.Fatal(err)
	}
	r.assertSynced(t, cfg.Path)
	if r.eng.Stats().DeltaTriggers == 0 {
		t.Fatal("word trace triggered no delta encodings")
	}
	// Delta sync: upload far below total bytes written (full rewrites).
	if up := r.traffic.Uploaded(); up > tr.WriteBytes/2 {
		t.Fatalf("uploaded %d of %d written: deltas ineffective", up, tr.WriteBytes)
	}
}

func TestCorruptionDetectedAndRecovered(t *testing.T) {
	r := newRig(t, true)
	content := randBytes(11, 64<<10)
	fs := r.eng.FS()
	if err := fs.Create("f"); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteAt("f", 0, content); err != nil {
		t.Fatal(err)
	}
	if err := fs.Close("f"); err != nil {
		t.Fatal(err)
	}
	r.settle(t)
	r.assertSynced(t, "f")

	// Disk corruption behind the engine's back.
	if err := r.backing.FlipBit("f", 30000); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Fatal("read served corrupted data")
	}
	st := r.eng.Stats()
	if st.Corruptions == 0 || st.Recovered == 0 {
		t.Fatalf("corruption not detected/recovered: %+v", st)
	}
}

func TestCrashScanDetectsInconsistency(t *testing.T) {
	r := newRig(t, true)
	content := randBytes(12, 32<<10)
	fs := r.eng.FS()
	fs.Create("f")
	fs.WriteAt("f", 0, content)
	// No close, no upload: crash strikes mid-update.
	r.backing.BypassWrite("f", 8192, randBytes(13, 100)) // torn write
	r.eng.DropVolatileState()

	rep, err := r.eng.CrashScan(false)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Inconsistent) != 1 || rep.Inconsistent[0] != "f" {
		t.Fatalf("inconsistency not found: %+v", rep)
	}
}

func TestCrashScanRestoresFromCloud(t *testing.T) {
	r := newRig(t, true)
	content := randBytes(14, 16<<10)
	fs := r.eng.FS()
	fs.Create("f")
	fs.WriteAt("f", 0, content)
	fs.Close("f")
	r.settle(t) // clean copy on the cloud

	// New update cycle, then crash + torn write.
	fs.WriteAt("f", 0, []byte("new-bytes"))
	r.backing.BypassWrite("f", 4096, randBytes(15, 64))
	r.eng.DropVolatileState()

	rep, err := r.eng.CrashScan(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Restored) != 1 {
		t.Fatalf("restore failed: %+v", rep)
	}
	local, _ := r.backing.ReadFile("f")
	remote, _ := r.srv.FileContent("f")
	if !bytes.Equal(local, remote) {
		t.Fatal("restored content does not match cloud")
	}
}

func TestCleanFileSurvivesCrashScan(t *testing.T) {
	r := newRig(t, true)
	fs := r.eng.FS()
	fs.Create("f")
	fs.WriteAt("f", 0, randBytes(16, 8<<10))
	r.eng.DropVolatileState()
	rep, err := r.eng.CrashScan(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Inconsistent) != 0 {
		t.Fatalf("clean file reported inconsistent: %+v", rep)
	}
}

func TestLinkUnlinkRenamePattern(t *testing.T) {
	// The paper's other transactional combination (§III-A): "link f f~,
	// unlink f", then the new version is renamed into place. The unlink's
	// relation entry triggers the delta; since the preserved copy is a
	// local trash file, the engine retracts the queued unlink and deltas
	// against the cloud's still-current f.
	r := newRig(t, false)
	oldContent := randBytes(30, 512<<10)
	r.seed("f", oldContent)

	newContent := append([]byte(nil), oldContent...)
	copy(newContent[100_000:100_200], randBytes(31, 200))

	fs := r.eng.FS()
	if err := fs.Link("f", "f~"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Unlink("f"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Create("tmp"); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteAt("tmp", 0, newContent); err != nil {
		t.Fatal(err)
	}
	if err := fs.Close("tmp"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename("tmp", "f"); err != nil {
		t.Fatal(err)
	}
	r.settle(t)

	r.assertSynced(t, "f")
	r.assertSynced(t, "f~")
	backup, _ := r.srv.FileContent("f~")
	if !bytes.Equal(backup, oldContent) {
		t.Fatal("f~ does not hold the old version on the cloud")
	}
	if r.eng.Stats().DeltaTriggers == 0 {
		t.Fatal("link+unlink pattern did not trigger delta encoding")
	}
	if up := r.traffic.Uploaded(); up > 64<<10 {
		t.Fatalf("uploaded %d bytes for a 200-byte edit", up)
	}
}

func TestUnlinkOfNeverSyncedFileDropsNodes(t *testing.T) {
	// A file created and deleted within the queue window never touches
	// the cloud at all (delete-before-upload optimization).
	r := newRig(t, false)
	fs := r.eng.FS()
	fs.Create("ephemeral")
	fs.WriteAt("ephemeral", 0, randBytes(32, 32<<10))
	fs.Close("ephemeral")
	fs.Unlink("ephemeral")
	r.settle(t)
	if _, ok := r.srv.FileContent("ephemeral"); ok {
		t.Fatal("ephemeral file reached the cloud")
	}
	if up := r.traffic.Uploaded(); up > 1<<10 {
		t.Fatalf("uploaded %d bytes for a file that never needed to sync", up)
	}
}

func TestUnlinkOfSeededFileReachesCloud(t *testing.T) {
	// The inverse: a file the cloud already has must receive the unlink
	// even if a queued create could be mistaken for its birth.
	r := newRig(t, false)
	r.seed("f", randBytes(33, 4<<10))
	fs := r.eng.FS()
	fs.Create("f") // O_TRUNC over seeded content
	fs.WriteAt("f", 0, []byte("short-lived"))
	fs.Unlink("f")
	r.settle(t)
	if _, ok := r.srv.FileContent("f"); ok {
		t.Fatal("seeded file survives unlink on the cloud")
	}
}

func TestDisableDeltaAblation(t *testing.T) {
	// With DisableDelta the Word pattern must ship raw content and still
	// converge.
	backing := vfs.NewMemFS()
	srv := server.New(nil)
	clk := &clock.Clock{}
	traffic := &metrics.TrafficMeter{}
	eng, err := New(Config{
		Backing:      backing,
		Endpoint:     server.NewLoopback(srv, nil, traffic),
		Clock:        clk,
		DisableDelta: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	content := randBytes(40, 256<<10)
	srv.SeedFile("f", content)
	backing.Create("f")
	backing.WriteAt("f", 0, content)

	newContent := append([]byte(nil), content...)
	copy(newContent[1000:1100], randBytes(41, 100))
	fs := eng.FS()
	fs.Rename("f", "t0")
	fs.Create("t1")
	fs.WriteAt("t1", 0, newContent)
	fs.Close("t1")
	fs.Rename("t1", "f")
	fs.Unlink("t0")
	clk.Advance(time.Minute)
	eng.Tick(clk.Now())
	if err := eng.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := eng.LastPushError(); err != nil {
		t.Fatal(err)
	}
	if eng.Stats().DeltaTriggers != 0 {
		t.Fatal("DisableDelta still triggered a delta")
	}
	got, _ := srv.FileContent("f")
	if !bytes.Equal(got, newContent) {
		t.Fatal("content diverged in rpc-only mode")
	}
	// Raw mode ships the whole rewrite.
	if up := traffic.Uploaded(); up < int64(len(newContent)) {
		t.Fatalf("uploaded %d, want >= full rewrite %d", up, len(newContent))
	}
}

func TestDirectorySync(t *testing.T) {
	r := newRig(t, false)
	fs := r.eng.FS()
	if err := fs.Mkdir("photos"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Create("photos/cat.jpg"); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteAt("photos/cat.jpg", 0, []byte("meow")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Close("photos/cat.jpg"); err != nil {
		t.Fatal(err)
	}
	r.settle(t)
	r.assertSynced(t, "photos/cat.jpg")

	if err := fs.Unlink("photos/cat.jpg"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rmdir("photos"); err != nil {
		t.Fatal(err)
	}
	r.settle(t)
	if _, ok := r.srv.FileContent("photos/cat.jpg"); ok {
		t.Fatal("file survives rmdir flow")
	}
}

func TestReadAtVerifiesChecksums(t *testing.T) {
	r := newRig(t, true)
	content := randBytes(42, 32<<10)
	fs := r.eng.FS()
	fs.Create("f")
	fs.WriteAt("f", 0, content)
	fs.Close("f")
	r.settle(t)

	if err := r.backing.FlipBit("f", 10_000); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadAt("f", 9_000, 2_000)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content[9_000:11_000]) {
		t.Fatal("ReadAt served corrupted bytes")
	}
	if r.eng.Stats().Recovered == 0 {
		t.Fatal("no recovery happened")
	}
}

func TestFsyncPassesThrough(t *testing.T) {
	r := newRig(t, false)
	fs := r.eng.FS()
	fs.Create("f")
	if err := fs.Fsync("f"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Stat("f"); err != nil {
		t.Fatal(err)
	}
	files, err := fs.List("")
	if err != nil || len(files) != 1 {
		t.Fatalf("List = %v, %v", files, err)
	}
}

func TestCrashScanReportsMissingDirtyFile(t *testing.T) {
	r := newRig(t, true)
	fs := r.eng.FS()
	fs.Create("gone")
	fs.WriteAt("gone", 0, []byte("data"))
	// The file disappears beneath the engine (e.g. lost in the crash).
	r.backing.Unlink("gone")
	r.eng.DropVolatileState()
	rep, err := r.eng.CrashScan(false)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Missing) != 1 || rep.Missing[0] != "gone" {
		t.Fatalf("Missing = %v", rep.Missing)
	}
}

// trashlessFS refuses renames into the trash directory, simulating the
// paper's ENOSPC case ("if temporarily preserving the file would result in
// ENOSPC ... the deleted files will not be preserved").
type trashlessFS struct {
	*vfs.MemFS
}

func (f trashlessFS) Rename(oldPath, newPath string) error {
	if strings.HasPrefix(newPath, TrashDir) {
		return errors.New("no space left on device")
	}
	return f.MemFS.Rename(oldPath, newPath)
}

func TestUnlinkFallsBackWhenTrashFails(t *testing.T) {
	backing := vfs.NewMemFS()
	srv := server.New(nil)
	clk := &clock.Clock{}
	eng, err := New(Config{
		Backing:  trashlessFS{backing},
		Endpoint: server.NewLoopback(srv, nil, nil),
		Clock:    clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	content := randBytes(50, 8<<10)
	srv.SeedFile("f", content)
	backing.Create("f")
	backing.WriteAt("f", 0, content)

	fs := eng.FS()
	if err := fs.Unlink("f"); err != nil {
		t.Fatalf("unlink with failing trash: %v", err)
	}
	if _, err := backing.Stat("f"); err == nil {
		t.Fatal("file survives unlink locally")
	}
	clk.Advance(time.Minute)
	eng.Tick(clk.Now())
	if err := eng.Drain(); err != nil {
		t.Fatal(err)
	}
	if _, ok := srv.FileContent("f"); ok {
		t.Fatal("unlink did not reach the cloud")
	}
	// No relation entry was created: a re-creation gets no delta base and
	// ships raw, still correctly.
	if err := fs.Create("f"); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteAt("f", 0, []byte("fresh")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Close("f"); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Minute)
	eng.Tick(clk.Now())
	if err := eng.Drain(); err != nil {
		t.Fatal(err)
	}
	got, _ := srv.FileContent("f")
	if !bytes.Equal(got, []byte("fresh")) {
		t.Fatalf("recreated content = %q", got)
	}
	if eng.Stats().DeltaTriggers != 0 {
		t.Fatal("delta triggered without a preserved base")
	}
}
