package vfs

import (
	"bytes"
	"errors"
	"runtime"
	"testing"
)

// fsFactories lets the conformance tests run against every FS backend.
func fsFactories(t *testing.T) map[string]func() FS {
	return map[string]func() FS{
		"memfs": func() FS { return NewMemFS() },
		"dirfs": func() FS {
			d, err := NewDirFS(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			return d
		},
		"observer": func() FS { return NewObserverFS(NewMemFS()) },
	}
}

func TestConformance(t *testing.T) {
	for name, mk := range fsFactories(t) {
		t.Run(name, func(t *testing.T) {
			testCreateWriteRead(t, mk())
			testWriteGrowsAndGaps(t, mk())
			testTruncate(t, mk())
			testRenameReplaces(t, mk())
			testUnlink(t, mk())
			testMkdirRmdir(t, mk())
			testList(t, mk())
			testReadAtPastEOF(t, mk())
		})
	}
}

func testCreateWriteRead(t *testing.T, fs FS) {
	t.Helper()
	if err := fs.Create("f"); err != nil {
		t.Fatalf("Create: %v", err)
	}
	if err := fs.WriteAt("f", 0, []byte("hello world")); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
	got, err := fs.ReadFile("f")
	if err != nil || !bytes.Equal(got, []byte("hello world")) {
		t.Fatalf("ReadFile = %q, %v", got, err)
	}
	part, err := fs.ReadAt("f", 6, 5)
	if err != nil || !bytes.Equal(part, []byte("world")) {
		t.Fatalf("ReadAt = %q, %v", part, err)
	}
	st, err := fs.Stat("f")
	if err != nil || st.Size != 11 || st.IsDir {
		t.Fatalf("Stat = %+v, %v", st, err)
	}
	// Create on an existing file truncates.
	if err := fs.Create("f"); err != nil {
		t.Fatalf("re-Create: %v", err)
	}
	st, _ = fs.Stat("f")
	if st.Size != 0 {
		t.Fatalf("Create did not truncate: size %d", st.Size)
	}
}

func testWriteGrowsAndGaps(t *testing.T, fs FS) {
	t.Helper()
	if err := fs.WriteAt("gap", 100, []byte("x")); err != nil {
		t.Fatalf("WriteAt with gap: %v", err)
	}
	st, err := fs.Stat("gap")
	if err != nil || st.Size != 101 {
		t.Fatalf("gap file size = %d, %v; want 101", st.Size, err)
	}
	head, err := fs.ReadAt("gap", 0, 10)
	if err != nil || !bytes.Equal(head, make([]byte, 10)) {
		t.Fatalf("gap not zero-filled: %q, %v", head, err)
	}
}

func testTruncate(t *testing.T, fs FS) {
	t.Helper()
	fs.Create("t")
	fs.WriteAt("t", 0, []byte("0123456789"))
	if err := fs.Truncate("t", 4); err != nil {
		t.Fatalf("Truncate shrink: %v", err)
	}
	got, _ := fs.ReadFile("t")
	if !bytes.Equal(got, []byte("0123")) {
		t.Fatalf("after shrink: %q", got)
	}
	if err := fs.Truncate("t", 8); err != nil {
		t.Fatalf("Truncate grow: %v", err)
	}
	got, _ = fs.ReadFile("t")
	if !bytes.Equal(got, append([]byte("0123"), 0, 0, 0, 0)) {
		t.Fatalf("after grow: %q", got)
	}
	if err := fs.Truncate("absent", 0); err == nil {
		t.Fatal("Truncate on absent file succeeded")
	}
}

func testRenameReplaces(t *testing.T, fs FS) {
	t.Helper()
	fs.Create("a")
	fs.WriteAt("a", 0, []byte("new"))
	fs.Create("b")
	fs.WriteAt("b", 0, []byte("old"))
	if err := fs.Rename("a", "b"); err != nil {
		t.Fatalf("Rename: %v", err)
	}
	if _, err := fs.Stat("a"); err == nil {
		t.Fatal("source still exists after rename")
	}
	got, _ := fs.ReadFile("b")
	if !bytes.Equal(got, []byte("new")) {
		t.Fatalf("rename did not replace: %q", got)
	}
	if err := fs.Rename("missing", "x"); err == nil {
		t.Fatal("Rename of missing file succeeded")
	}
}

func testUnlink(t *testing.T, fs FS) {
	t.Helper()
	fs.Create("u")
	if err := fs.Unlink("u"); err != nil {
		t.Fatalf("Unlink: %v", err)
	}
	if _, err := fs.Stat("u"); err == nil {
		t.Fatal("file exists after unlink")
	}
	if err := fs.Unlink("u"); err == nil {
		t.Fatal("double unlink succeeded")
	}
}

func testMkdirRmdir(t *testing.T, fs FS) {
	t.Helper()
	if err := fs.Mkdir("d"); err != nil {
		t.Fatalf("Mkdir: %v", err)
	}
	st, err := fs.Stat("d")
	if err != nil || !st.IsDir {
		t.Fatalf("Stat dir = %+v, %v", st, err)
	}
	fs.Create("d/f")
	if err := fs.Rmdir("d"); err == nil {
		t.Fatal("Rmdir of non-empty dir succeeded")
	}
	fs.Unlink("d/f")
	if err := fs.Rmdir("d"); err != nil {
		t.Fatalf("Rmdir: %v", err)
	}
}

func testList(t *testing.T, fs FS) {
	t.Helper()
	fs.Mkdir("sub")
	fs.Create("x")
	fs.Create("sub/y")
	all, err := fs.List("")
	if err != nil {
		t.Fatal(err)
	}
	found := map[string]bool{}
	for _, p := range all {
		found[p] = true
	}
	if !found["x"] || !found["sub/y"] {
		t.Fatalf("List missing entries: %v", all)
	}
	subOnly, err := fs.List("sub")
	if err != nil {
		t.Fatal(err)
	}
	if len(subOnly) != 1 || subOnly[0] != "sub/y" {
		t.Fatalf("List(sub) = %v", subOnly)
	}
}

func testReadAtPastEOF(t *testing.T, fs FS) {
	t.Helper()
	fs.Create("eof")
	fs.WriteAt("eof", 0, []byte("abc"))
	got, err := fs.ReadAt("eof", 2, 10)
	if err != nil || !bytes.Equal(got, []byte("c")) {
		t.Fatalf("ReadAt crossing EOF = %q, %v", got, err)
	}
	got, err = fs.ReadAt("eof", 100, 10)
	if err != nil || len(got) != 0 {
		t.Fatalf("ReadAt past EOF = %q, %v; want empty, nil", got, err)
	}
}

func TestMemFSHardLinks(t *testing.T) {
	m := NewMemFS()
	m.Create("f")
	m.WriteAt("f", 0, []byte("content"))
	if err := m.Link("f", "f~"); err != nil {
		t.Fatalf("Link: %v", err)
	}
	st, _ := m.Stat("f")
	if st.Links != 2 {
		t.Fatalf("link count = %d, want 2", st.Links)
	}
	// Writes through one name are visible through the other (same inode).
	m.WriteAt("f", 0, []byte("CONTENT"))
	got, _ := m.ReadFile("f~")
	if !bytes.Equal(got, []byte("CONTENT")) {
		t.Fatalf("link does not share inode: %q", got)
	}
	// Unlinking one name leaves the other intact.
	if err := m.Unlink("f"); err != nil {
		t.Fatal(err)
	}
	got, err := m.ReadFile("f~")
	if err != nil || !bytes.Equal(got, []byte("CONTENT")) {
		t.Fatalf("surviving link broken: %q, %v", got, err)
	}
	// Link to an existing name must fail.
	m.Create("g")
	if err := m.Link("f~", "g"); err == nil {
		t.Fatal("Link over existing file succeeded")
	}
}

func TestMemFSGeditPattern(t *testing.T) {
	// The gedit sequence from Fig 3: create+write tmp, link f f~, rename
	// tmp f. After it, f has new content, f~ has old content.
	m := NewMemFS()
	m.Create("f")
	m.WriteAt("f", 0, []byte("old"))
	m.Create("tmp")
	m.WriteAt("tmp", 0, []byte("new"))
	if err := m.Link("f", "f~"); err != nil {
		t.Fatal(err)
	}
	if err := m.Rename("tmp", "f"); err != nil {
		t.Fatal(err)
	}
	newData, _ := m.ReadFile("f")
	oldData, _ := m.ReadFile("f~")
	if !bytes.Equal(newData, []byte("new")) || !bytes.Equal(oldData, []byte("old")) {
		t.Fatalf("gedit pattern: f=%q f~=%q", newData, oldData)
	}
}

func TestMemFSRenameDirectory(t *testing.T) {
	m := NewMemFS()
	m.Mkdir("d1")
	m.Mkdir("d1/nested")
	m.Create("d1/a")
	m.Create("d1/nested/b")
	if err := m.Rename("d1", "d2"); err != nil {
		t.Fatalf("dir rename: %v", err)
	}
	for _, p := range []string{"d2/a", "d2/nested/b"} {
		if _, err := m.Stat(p); err != nil {
			t.Fatalf("after dir rename, %s missing: %v", p, err)
		}
	}
	if _, err := m.Stat("d1/a"); err == nil {
		t.Fatal("old path survives dir rename")
	}
}

func TestMemFSBypassAndFlip(t *testing.T) {
	m := NewMemFS()
	m.Create("f")
	m.WriteAt("f", 0, []byte{0x00, 0x00, 0x00})
	if err := m.FlipBit("f", 1); err != nil {
		t.Fatal(err)
	}
	got, _ := m.ReadFile("f")
	if got[1] != 0x01 {
		t.Fatalf("FlipBit result: %v", got)
	}
	if err := m.BypassWrite("f", 0, []byte{9, 9}); err != nil {
		t.Fatal(err)
	}
	got, _ = m.ReadFile("f")
	if got[0] != 9 || got[1] != 9 {
		t.Fatalf("BypassWrite result: %v", got)
	}
	if err := m.BypassWrite("f", 2, []byte{1, 1}); err == nil {
		t.Fatal("BypassWrite past EOF succeeded")
	}
	if err := m.FlipBit("f", 99); err == nil {
		t.Fatal("FlipBit past EOF succeeded")
	}
}

func TestMemFSTotalBytes(t *testing.T) {
	m := NewMemFS()
	m.Create("a")
	m.WriteAt("a", 0, make([]byte, 100))
	m.Create("b")
	m.WriteAt("b", 0, make([]byte, 50))
	if got := m.TotalBytes(); got != 150 {
		t.Fatalf("TotalBytes = %d, want 150", got)
	}
}

// A file built by appends must not be re-copied on every write: MemFS grew
// by exact-size copy, which made 4 096 appends allocate 2 000 times the
// file. Shrinking and regrowing within capacity must still read as zeros.
func TestMemFSAppendsGrowAmortised(t *testing.T) {
	const chunk, appends = 4 << 10, 4096
	m := NewMemFS()
	if err := m.Create("log"); err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{0x5A}, chunk)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < appends; i++ {
		if err := m.WriteAt("log", int64(i)*chunk, data); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	const final = chunk * appends
	if got := after.TotalAlloc - before.TotalAlloc; got >= 4*final {
		t.Fatalf("%d appends of %d B allocated %d B, want < %d (4x the final size)", appends, chunk, got, 4*final)
	}
	if info, err := m.Stat("log"); err != nil || info.Size != final {
		t.Fatalf("Stat = %+v, %v; want size %d", info, err, final)
	}

	if err := m.Truncate("log", 10); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteAt("log", 100, []byte{1}); err != nil {
		t.Fatal(err)
	}
	got, err := m.ReadFile("log")
	want := append(append(bytes.Repeat([]byte{0x5A}, 10), make([]byte, 90)...), 1)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("after shrinking to 10 and writing at 100: %d bytes, err %v; the gap must read as zeros", len(got), err)
	}
	if err := m.Truncate("log", 300); err != nil {
		t.Fatal(err)
	}
	if got, _ := m.ReadAt("log", 101, 199); !bytes.Equal(got, make([]byte, 199)) {
		t.Fatal("Truncate grew the file over stale bytes")
	}
}

func TestObserverEventsAndOrder(t *testing.T) {
	o := NewObserverFS(NewMemFS())
	var events []Op
	o.Subscribe(ObserverFunc(func(op Op) { events = append(events, op) }))

	o.Create("f")
	o.WriteAt("f", 0, []byte("data"))
	o.Rename("f", "g")
	o.Unlink("g")

	kinds := []OpKind{OpCreate, OpWrite, OpRename, OpUnlink}
	if len(events) != len(kinds) {
		t.Fatalf("got %d events, want %d", len(events), len(kinds))
	}
	for i, k := range kinds {
		if events[i].Kind != k {
			t.Fatalf("event %d = %v, want %v", i, events[i].Kind, k)
		}
	}
	if events[2].Path != "f" || events[2].Dst != "g" {
		t.Fatalf("rename event paths: %+v", events[2])
	}
}

func TestObserverNoEventOnFailure(t *testing.T) {
	o := NewObserverFS(NewMemFS())
	n := 0
	o.Subscribe(ObserverFunc(func(op Op) { n++ }))
	if err := o.Unlink("missing"); err == nil {
		t.Fatal("unlink of missing file succeeded")
	}
	if n != 0 {
		t.Fatalf("failed op emitted %d events", n)
	}
}

func TestApplyDispatch(t *testing.T) {
	m := NewMemFS()
	ops := []Op{
		{Kind: OpMkdir, Path: "d"},
		{Kind: OpCreate, Path: "d/f"},
		{Kind: OpWrite, Path: "d/f", Off: 0, Data: []byte("xy")},
		{Kind: OpTruncate, Path: "d/f", Size: 1},
		{Kind: OpLink, Path: "d/f", Dst: "d/g"},
		{Kind: OpRename, Path: "d/g", Dst: "d/h"},
		{Kind: OpClose, Path: "d/f"},
		{Kind: OpFsync, Path: "d/f"},
		{Kind: OpUnlink, Path: "d/h"},
		{Kind: OpUnlink, Path: "d/f"},
		{Kind: OpRmdir, Path: "d"},
	}
	for i, op := range ops {
		if err := Apply(m, op); err != nil {
			t.Fatalf("Apply op %d (%v): %v", i, op, err)
		}
	}
	if err := Apply(m, Op{Kind: 200}); err == nil {
		t.Fatal("Apply accepted unknown op kind")
	}
}

func TestErrorsAreClassified(t *testing.T) {
	m := NewMemFS()
	if err := m.Unlink("nope"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("Unlink error = %v, want ErrNotExist", err)
	}
	m.Mkdir("d")
	if err := m.Mkdir("d"); !errors.Is(err, ErrExist) {
		t.Fatalf("Mkdir error = %v, want ErrExist", err)
	}
	m.Create("d/f")
	if err := m.Rmdir("d"); !errors.Is(err, ErrNotEmpty) {
		t.Fatalf("Rmdir error = %v, want ErrNotEmpty", err)
	}
}

func TestOpString(t *testing.T) {
	cases := map[string]Op{
		"write f off=3 len=2": {Kind: OpWrite, Path: "f", Off: 3, Data: []byte("ab")},
		"rename a b":          {Kind: OpRename, Path: "a", Dst: "b"},
		"truncate f 7":        {Kind: OpTruncate, Path: "f", Size: 7},
		"unlink f":            {Kind: OpUnlink, Path: "f"},
	}
	for want, op := range cases {
		if got := op.String(); got != want {
			t.Errorf("String = %q, want %q", got, want)
		}
	}
}

func BenchmarkMemFSWrite(b *testing.B) {
	m := NewMemFS()
	m.Create("f")
	data := make([]byte, 4096)
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		if err := m.WriteAt("f", int64(i%1024)*4096, data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkObserverOverhead(b *testing.B) {
	o := NewObserverFS(NewMemFS())
	o.Subscribe(ObserverFunc(func(op Op) {}))
	o.Create("f")
	data := make([]byte, 4096)
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		if err := o.WriteAt("f", int64(i%1024)*4096, data); err != nil {
			b.Fatal(err)
		}
	}
}
