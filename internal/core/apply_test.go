package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/rsync"
	"repro/internal/server"
	"repro/internal/storagefault"
	"repro/internal/version"
	"repro/internal/vfs"
	"repro/internal/wire"
)

// countingFS counts the whole-file reads its engine issues.
type countingFS struct {
	vfs.FS
	readFiles int
}

func (c *countingFS) ReadFile(p string) ([]byte, error) {
	c.readFiles++
	return c.FS.ReadFile(p)
}

// wordSave replays one Word save (Table I: rename away, create a temp, write
// the new version out, rename it into place, delete the old one). The
// document goes out in one write so that MemFS, which grows a file by
// doubling, allocates the temp file once: the budget below is then the
// pipeline's, not the test backing store's.
func wordSave(t *testing.T, fs vfs.FS, doc string, content []byte) {
	t.Helper()
	for _, op := range []vfs.Op{
		{Kind: vfs.OpRename, Path: doc, Dst: "~old.tmp"},
		{Kind: vfs.OpCreate, Path: "~new.tmp"},
		{Kind: vfs.OpWrite, Path: "~new.tmp", Data: content},
		{Kind: vfs.OpClose, Path: "~new.tmp"},
		{Kind: vfs.OpRename, Path: "~new.tmp", Dst: doc},
		{Kind: vfs.OpUnlink, Path: "~old.tmp"},
	} {
		if err := vfs.Apply(fs, op); err != nil {
			t.Fatalf("%v: %v", op, err)
		}
	}
}

// editedDocument is base with a few in-place edits and one insertion, the
// shape of a document's next save.
func editedDocument(seed int64, base []byte) []byte {
	rng := rand.New(rand.NewSource(seed))
	doc := append([]byte(nil), base...)
	for i := 0; i < 8; i++ {
		off := rng.Intn(len(doc) - 200)
		rng.Read(doc[off : off+200])
	}
	ins := make([]byte, 24<<10)
	rng.Read(ins)
	at := rng.Intn(len(doc))
	return append(doc[:at:at], append(ins, doc[at:]...)...)
}

// One transactional save moves each byte once per layer. The whole pipeline
// — A's interception and queue, the triggered delta, the server's apply and
// forward, B's streamed apply — allocates a bounded number of copies of the
// document (about ten when the queue copied every write twice, the trigger
// read both versions back from disk and the peer patched in memory), the
// save triggers exactly one delta, and A reads exactly one whole file: the
// base. The new version is never read back — the queued writes are it.
func TestWordSaveAllocationBudget(t *testing.T) {
	const docSize = 2 << 20
	base := randBytes(41, docSize)
	next := editedDocument(42, base)

	srv := server.New(nil)
	clk := &clock.Clock{}
	abk := &countingFS{FS: vfs.NewMemFS()}
	bbk := vfs.NewMemFS()
	a, err := New(Config{Backing: abk, Endpoint: server.NewLoopback(srv, nil, nil), Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(Config{Backing: bbk, Endpoint: server.NewLoopback(srv, nil, nil), Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	for _, fs := range []vfs.FS{abk, bbk} {
		if err := fs.WriteAt("report.docx", 0, base); err != nil {
			t.Fatal(err)
		}
	}
	srv.SeedFile("report.docx", base)

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	wordSave(t, a.FS(), "report.docx", next)
	clk.Advance(time.Minute)
	a.Tick(clk.Now())
	if err := a.Drain(); err != nil {
		t.Fatal(err)
	}
	b.Tick(clk.Now())
	runtime.ReadMemStats(&m1)

	for name, fs := range map[string]vfs.FS{"A": abk, "B": bbk} {
		if got, err := fs.ReadFile("report.docx"); err != nil || !bytes.Equal(got, next) {
			t.Fatalf("%s does not hold the new version (err=%v)", name, err)
		}
	}
	if got, _ := srv.FileContent("report.docx"); !bytes.Equal(got, next) {
		t.Fatal("server does not hold the new version")
	}
	if n := a.Stats().DeltaTriggers; n != 1 {
		t.Fatalf("DeltaTriggers = %d, want 1", n)
	}
	if abk.readFiles != 2 { // the base, and the check two lines up
		t.Fatalf("A read %d whole files during the save, want 1 (the delta base)", abk.readFiles-1)
	}
	alloc := m1.TotalAlloc - m0.TotalAlloc
	t.Logf("allocated %.2fx the document", float64(alloc)/float64(len(next)))
	if alloc > 6*uint64(len(next)) {
		t.Fatalf("one save allocated %d bytes = %.1fx the %d-byte document, budget 6x",
			alloc, float64(alloc)/float64(len(next)), len(next))
	}
}

// forwardedDelta builds the batch a peer receives for a save of path from
// old to next, encoded against basePath.
func forwardedDelta(path, basePath string, old, next []byte) *wire.Batch {
	return &wire.Batch{Client: 99, Nodes: []*wire.Node{{
		Kind: wire.NDelta, Path: path, BasePath: basePath,
		Delta: rsync.DeltaLocal(old, next, 4096, nil),
		Ver:   version.ID{Client: 99, Count: 1},
	}}}
}

// A client that dies anywhere inside the apply of a forwarded delta leaves
// the file as it was or as it will be: the target is assembled in the
// staging file and renamed into place. SimDisk.Fork(k) is the disk after the
// first k IOs of the apply and nothing else — every k is a death point.
func TestForwardedDeltaApplyIsNeverTorn(t *testing.T) {
	old := randBytes(51, 3<<20+777) // copies longer than one staging window
	next := editedDocument(52, old)
	for _, tc := range []struct{ name, base string }{
		{"base is the path", ""},
		{"base is another file", "~old.tmp"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			disk := storagefault.NewSimDisk()
			dirfs, err := vfs.NewDirFSWith(disk, "sync")
			if err != nil {
				t.Fatal(err)
			}
			if err := dirfs.WriteAt("doc", 0, old); err != nil {
				t.Fatal(err)
			}
			if tc.base != "" {
				if err := dirfs.WriteAt(tc.base, 0, old); err != nil {
					t.Fatal(err)
				}
			}
			eng, err := New(Config{Backing: dirfs, Endpoint: server.NewLoopback(server.New(nil), nil, nil), Clock: &clock.Clock{}})
			if err != nil {
				t.Fatal(err)
			}
			before := disk.Ops()
			eng.applyRemote(forwardedDelta("doc", tc.base, old, next))
			if eng.Stats().RemoteApplied != 1 {
				t.Fatal("delta was not applied")
			}
			after := disk.Ops()
			if after-before < 6 {
				t.Fatalf("apply made only %d IOs; the windows are not exercised", after-before)
			}
			for k := before; k <= after; k++ {
				fork, err := vfs.NewDirFSWith(disk.Fork(k), "sync")
				if err != nil {
					t.Fatal(err)
				}
				got, err := fork.ReadFile("doc")
				if err != nil {
					t.Fatalf("death after IO %d of %d: doc unreadable: %v", k-before, after-before, err)
				}
				isOld, isNew := bytes.Equal(got, old), bytes.Equal(got, next)
				if !isOld && !isNew {
					t.Fatalf("death after IO %d of %d: doc is torn (%d bytes; old %d, new %d)",
						k-before, after-before, len(got), len(old), len(next))
				}
				if k == after && !isNew {
					t.Fatal("completed apply left the old version")
				}
			}
		})
	}
}

// A hostile forwarded delta is rejected with rsync.Patch's own error before
// anything is staged: the target keeps its content and no staging file is
// left behind. The conflict-copy path goes through the same writer.
func TestHostileForwardedDeltaLeavesTargetUntouched(t *testing.T) {
	old := randBytes(61, 40<<10)
	next := editedDocument(62, old)
	cases := map[string]func(d *rsync.Delta){
		"copy out of range": func(d *rsync.Delta) {
			for i := range d.Ops {
				if d.Ops[i].Kind == rsync.OpCopy {
					d.Ops[i].Off = int64(len(old)) - 1
					return
				}
			}
		},
		"wrong target length": func(d *rsync.Delta) { d.TargetLen++ },
		"unknown op":          func(d *rsync.Delta) { d.Ops[len(d.Ops)-1].Kind = 7 },
	}
	for name, corrupt := range cases {
		t.Run(name, func(t *testing.T) {
			r := newRig(t, false)
			r.seed("doc", old)
			b := forwardedDelta("doc", "", old, next)
			corrupt(b.Nodes[0].Delta)
			_, want := rsync.Patch(old, b.Nodes[0].Delta, nil)
			if want == nil {
				t.Fatal("rsync.Patch accepts the corrupted delta")
			}
			err := r.eng.applyRemoteNode(b.Nodes[0])
			if err == nil || err.Error() != want.Error() {
				t.Fatalf("apply error = %v, want rsync.Patch's: %v", err, want)
			}
			if got, _ := r.backing.ReadFile("doc"); !bytes.Equal(got, old) {
				t.Fatal("target changed by a rejected delta")
			}
			if _, err := r.backing.Stat(stagePath); err == nil {
				t.Fatal("staging file left behind")
			}

			// The same delta arriving as a conflict: recorded, no copy made.
			r.eng.vers.Set("doc", version.ID{Client: 1, Count: 5})
			b.Nodes[0].Base = version.ID{Client: 99, Count: 9}
			if err := r.eng.applyRemoteNode(b.Nodes[0]); err != nil {
				t.Fatal(err)
			}
			files, _ := r.backing.List("")
			for _, f := range files {
				if strings.Contains(f, ".conflict-") || f == stagePath {
					t.Fatalf("rejected delta materialized %s", f)
				}
			}
			if r.eng.Stats().RemoteConflicts != 1 {
				t.Fatal("conflict not recorded")
			}
		})
	}
}

// A forwarded update that conflicts with local edits is materialized beside
// the file through the staging writer, whatever kind of node carried it.
func TestConflictCopyGoesThroughStaging(t *testing.T) {
	old := randBytes(71, 40<<10)
	next := editedDocument(72, old)
	for _, n := range []*wire.Node{
		forwardedDelta("doc", "", old, next).Nodes[0],
		{Kind: wire.NFull, Path: "doc", Full: next, Ver: version.ID{Client: 99, Count: 1}},
		{Kind: wire.NWrite, Path: "doc", Ver: version.ID{Client: 99, Count: 1},
			Extents: []wire.Extent{{Off: 10, Data: []byte("remote edit")}, {Off: int64(len(old)), Data: []byte("tail")}}},
	} {
		t.Run(fmt.Sprint(n.Kind), func(t *testing.T) {
			r := newRig(t, false)
			r.seed("doc", old)
			r.eng.vers.Set("doc", version.ID{Client: 1, Count: 5})
			n.Base = version.ID{Client: 99, Count: 9}
			want := next
			if n.Kind == wire.NWrite {
				want = append(append([]byte(nil), old...), "tail"...)
				copy(want[10:], "remote edit")
			}
			if err := r.eng.applyRemoteNode(n); err != nil {
				t.Fatal(err)
			}
			name := r.eng.conflictFiles[0]
			if got, err := r.backing.ReadFile(name); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("%s: err=%v, content matches=%v", name, err, bytes.Equal(got, want))
			}
			if got, _ := r.backing.ReadFile("doc"); !bytes.Equal(got, old) {
				t.Fatal("local file changed by a conflicting update")
			}
			if _, err := r.backing.Stat(stagePath); err == nil {
				t.Fatal("staging file left behind")
			}
		})
	}
}

// A forwarded batch is wire input: the client must not trust the server to
// have validated it. A batch carrying a parent-traversing or absolute path
// is rejected whole, so neither its hostile node nor its valid one lands,
// inside the sync root or outside it.
func TestApplyRemoteRejectsEscapingPaths(t *testing.T) {
	for _, hostile := range []string{"../escape", "/abs"} {
		disk := storagefault.NewSimDisk()
		dirfs, err := vfs.NewDirFSWith(disk, "sync")
		if err != nil {
			t.Fatal(err)
		}
		eng, err := New(Config{Backing: dirfs, Endpoint: server.NewLoopback(server.New(nil), nil, nil), Clock: &clock.Clock{}})
		if err != nil {
			t.Fatal(err)
		}
		ver := version.ID{Client: 99, Count: 1}
		eng.applyRemote(&wire.Batch{Client: 99, Nodes: []*wire.Node{
			{Kind: wire.NCreate, Path: "ok", Ver: ver},
			{Kind: wire.NCreate, Path: hostile, Ver: ver},
		}})
		if n := eng.Stats().RemoteApplied; n != 0 {
			t.Errorf("%s: %d nodes of a malformed batch applied", hostile, n)
		}
		for _, name := range []string{"escape", "sync/escape", "sync/abs", "abs", "sync/ok"} {
			if _, err := disk.Stat(name); err == nil {
				t.Errorf("%s: malformed batch created %s", hostile, name)
			}
		}
	}
}
