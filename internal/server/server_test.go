package server

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/block"
	"repro/internal/cdc"
	"repro/internal/metrics"
	"repro/internal/rsync"
	"repro/internal/version"
	"repro/internal/wire"
)

func v(cli uint32, n uint64) version.ID { return version.ID{Client: cli, Count: n} }

func randBytes(seed int64, n int) []byte {
	p := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(p)
	return p
}

func push(t *testing.T, s *Server, from uint32, nodes ...*wire.Node) *wire.PushReply {
	t.Helper()
	return s.Push(from, &wire.Batch{Client: from, Nodes: nodes})
}

func mustOK(t *testing.T, r *wire.PushReply) {
	t.Helper()
	for i, st := range r.Statuses {
		if st != wire.StatusOK {
			t.Fatalf("node %d status = %d (err %q)", i, st, r.Err)
		}
	}
}

func TestCreateWriteTruncate(t *testing.T) {
	s := New(nil)
	cli := s.Register()
	mustOK(t, push(t, s, cli,
		&wire.Node{Kind: wire.NCreate, Path: "f", Ver: v(cli, 1)},
		&wire.Node{Kind: wire.NWrite, Path: "f", Base: v(cli, 1), Ver: v(cli, 2),
			Extents: []wire.Extent{{Off: 0, Data: []byte("hello world")}}},
		&wire.Node{Kind: wire.NTruncate, Path: "f", Size: 5, Base: v(cli, 2), Ver: v(cli, 3)},
	))
	got, ok := s.FileContent("f")
	if !ok || !bytes.Equal(got, []byte("hello")) {
		t.Fatalf("content = %q, %v", got, ok)
	}
	if s.Version("f") != v(cli, 3) {
		t.Fatalf("version = %v", s.Version("f"))
	}
}

func TestWriteWithGapZeroFills(t *testing.T) {
	s := New(nil)
	cli := s.Register()
	mustOK(t, push(t, s, cli,
		&wire.Node{Kind: wire.NCreate, Path: "f", Ver: v(cli, 1)},
		&wire.Node{Kind: wire.NWrite, Path: "f", Base: v(cli, 1), Ver: v(cli, 2),
			Extents: []wire.Extent{{Off: 10, Data: []byte("x")}}},
	))
	got, _ := s.FileContent("f")
	want := append(make([]byte, 10), 'x')
	if !bytes.Equal(got, want) {
		t.Fatalf("content = %v", got)
	}
}

func TestRenameLinkUnlink(t *testing.T) {
	s := New(nil)
	cli := s.Register()
	s.SeedFile("a", []byte("content"))
	mustOK(t, push(t, s, cli,
		&wire.Node{Kind: wire.NLink, Path: "a", Dst: "b", Ver: v(cli, 1)},
		&wire.Node{Kind: wire.NRename, Path: "a", Dst: "c", Ver: v(cli, 2)},
		&wire.Node{Kind: wire.NUnlink, Path: "b", Base: v(cli, 1)},
	))
	if _, ok := s.FileContent("a"); ok {
		t.Fatal("a survives rename")
	}
	if _, ok := s.FileContent("b"); ok {
		t.Fatal("b survives unlink")
	}
	got, ok := s.FileContent("c")
	if !ok || !bytes.Equal(got, []byte("content")) {
		t.Fatalf("c = %q, %v", got, ok)
	}
	if s.Version("c") != v(cli, 2) {
		t.Fatalf("c version = %v", s.Version("c"))
	}
}

func TestDeltaAgainstBasePath(t *testing.T) {
	// The Word atomic group: rename f->t0, create t1, delta t1 (base t0),
	// rename t1->f, then unlink t0.
	s := New(nil)
	cli := s.Register()
	oldContent := randBytes(1, 20000)
	s.SeedFile("f", oldContent)

	newContent := append([]byte(nil), oldContent...)
	copy(newContent[5000:5100], randBytes(2, 100))
	d := rsync.DeltaLocal(oldContent, newContent, 4096, nil)

	r := s.Push(cli, &wire.Batch{Client: cli, Atomic: true, Nodes: []*wire.Node{
		{Kind: wire.NRename, Path: "f", Dst: "t0", Ver: v(cli, 1)},
		{Kind: wire.NCreate, Path: "t1", Ver: v(cli, 2)},
		{Kind: wire.NDelta, Path: "t1", BasePath: "t0", Delta: d, Base: v(cli, 2), Ver: v(cli, 3)},
		{Kind: wire.NRename, Path: "t1", Dst: "f", Base: v(cli, 3), Ver: v(cli, 4)},
	}})
	mustOK(t, r)
	mustOK(t, push(t, s, cli, &wire.Node{Kind: wire.NUnlink, Path: "t0", Base: v(cli, 1)}))

	got, ok := s.FileContent("f")
	if !ok || !bytes.Equal(got, newContent) {
		t.Fatal("transactional update did not reproduce new content")
	}
	if _, ok := s.FileContent("t0"); ok {
		t.Fatal("t0 not cleaned up")
	}
}

func TestDeltaAgainstSelf(t *testing.T) {
	s := New(nil)
	cli := s.Register()
	oldContent := randBytes(3, 10000)
	s.SeedFile("f", oldContent)
	newContent := append([]byte(nil), oldContent...)
	newContent = append(newContent, randBytes(4, 500)...)
	d := rsync.DeltaLocal(oldContent, newContent, 4096, nil)
	mustOK(t, push(t, s, cli,
		&wire.Node{Kind: wire.NDelta, Path: "f", Delta: d, Ver: v(cli, 1)}))
	got, _ := s.FileContent("f")
	if !bytes.Equal(got, newContent) {
		t.Fatal("self-delta mismatched")
	}
}

func TestFullNode(t *testing.T) {
	s := New(nil)
	cli := s.Register()
	content := randBytes(5, 5000)
	mustOK(t, push(t, s, cli, &wire.Node{Kind: wire.NFull, Path: "f", Full: content, Ver: v(cli, 1)}))
	got, _ := s.FileContent("f")
	if !bytes.Equal(got, content) {
		t.Fatal("full node mismatched")
	}
}

func TestCDCNodeWithDedup(t *testing.T) {
	s := New(nil)
	cli := s.Register()
	cfg := cdc.Config{MinSize: 64, AvgSize: 256, MaxSize: 1024}
	content := randBytes(6, 10000)
	chunks := cdc.Split(content, cfg, nil)

	// First upload: all chunk data present.
	var refs []wire.ChunkRef
	for _, c := range chunks {
		refs = append(refs, wire.ChunkRef{Hash: c.Hash, Len: c.Len, Data: content[c.Off : c.Off+c.Len]})
	}
	mustOK(t, push(t, s, cli, &wire.Node{Kind: wire.NCDC, Path: "f", Chunks: refs, Ver: v(cli, 1)}))
	got, _ := s.FileContent("f")
	if !bytes.Equal(got, content) {
		t.Fatal("cdc assembly mismatched")
	}

	// Second upload of a locally-edited file: unchanged chunks as bare
	// references (dedup), changed chunks with data.
	edited := append([]byte(nil), content...)
	copy(edited[5000:5010], randBytes(7, 10))
	echunks := cdc.Split(edited, cfg, nil)
	refs = refs[:0]
	for _, c := range echunks {
		ref := wire.ChunkRef{Hash: c.Hash, Len: c.Len}
		if !chunkKnown(chunks, c.Hash) {
			ref.Data = edited[c.Off : c.Off+c.Len]
		}
		refs = append(refs, ref)
	}
	mustOK(t, push(t, s, cli, &wire.Node{Kind: wire.NCDC, Path: "f", Base: v(cli, 1), Chunks: refs, Ver: v(cli, 2)}))
	got, _ = s.FileContent("f")
	if !bytes.Equal(got, edited) {
		t.Fatal("deduplicated cdc assembly mismatched")
	}
}

func chunkKnown(chunks []cdc.Chunk, h block.Strong) bool {
	for _, c := range chunks {
		if c.Hash == h {
			return true
		}
	}
	return false
}

func TestCDCUnknownChunkFails(t *testing.T) {
	s := New(nil)
	cli := s.Register()
	r := push(t, s, cli, &wire.Node{Kind: wire.NCDC, Path: "f",
		Chunks: []wire.ChunkRef{{Hash: [16]byte{1}, Len: 10}}, Ver: v(cli, 1)})
	if r.Statuses[0] != wire.StatusError {
		t.Fatalf("status = %d, want error", r.Statuses[0])
	}
	if _, ok := s.FileContent("f"); ok {
		t.Fatal("failed cdc node left partial state")
	}
}

func TestAtomicBatchRollsBackOnError(t *testing.T) {
	s := New(nil)
	cli := s.Register()
	s.SeedFile("keep", []byte("original"))
	r := s.Push(cli, &wire.Batch{Client: cli, Atomic: true, Nodes: []*wire.Node{
		{Kind: wire.NWrite, Path: "keep", Ver: v(cli, 1),
			Extents: []wire.Extent{{Off: 0, Data: []byte("CLOBBER!")}}},
		{Kind: wire.NRename, Path: "missing", Dst: "x", Ver: v(cli, 2)},
	}})
	for _, st := range r.Statuses {
		if st != wire.StatusError {
			t.Fatalf("statuses = %v, want all error", r.Statuses)
		}
	}
	got, _ := s.FileContent("keep")
	if !bytes.Equal(got, []byte("original")) {
		t.Fatalf("atomic rollback failed: %q", got)
	}
	if !s.Version("keep").IsZero() {
		t.Fatal("version survived rollback")
	}
}

func TestConflictFirstWriteWins(t *testing.T) {
	s := New(nil)
	a := s.Register()
	b := s.Register() // two clients => history retained

	// Client A creates and writes the file.
	mustOK(t, push(t, s, a,
		&wire.Node{Kind: wire.NCreate, Path: "f", Ver: v(a, 1)},
		&wire.Node{Kind: wire.NWrite, Path: "f", Base: v(a, 1), Ver: v(a, 2),
			Extents: []wire.Extent{{Off: 0, Data: []byte("AAAA")}}},
	))
	s.Poll(b) // b observes

	// Both edit concurrently from base <a,2>. A wins the race.
	mustOK(t, push(t, s, a, &wire.Node{Kind: wire.NWrite, Path: "f",
		Base: v(a, 2), Ver: v(a, 3), Extents: []wire.Extent{{Off: 0, Data: []byte("A2")}}}))
	r := push(t, s, b, &wire.Node{Kind: wire.NWrite, Path: "f",
		Base: v(a, 2), Ver: v(b, 1), Extents: []wire.Extent{{Off: 2, Data: []byte("B!")}}})

	if r.Statuses[0] != wire.StatusConflict {
		t.Fatalf("status = %d, want conflict", r.Statuses[0])
	}
	// First write won: f holds A's content.
	got, _ := s.FileContent("f")
	if !bytes.Equal(got, []byte("A2AA")) {
		t.Fatalf("f = %q, first-write-wins violated", got)
	}
	// B's update was applied to its proper base and kept as a conflict
	// version.
	if len(r.Conflicts) != 1 {
		t.Fatalf("conflicts = %v", r.Conflicts)
	}
	cf, ok := s.FileContent(r.Conflicts[0])
	if !ok || !bytes.Equal(cf, []byte("AAB!")) {
		t.Fatalf("conflict file = %q, %v; want update applied to base AAAA", cf, ok)
	}
}

func TestForwardingToOtherClients(t *testing.T) {
	s := New(nil)
	a := s.Register()
	b := s.Register()
	mustOK(t, push(t, s, a, &wire.Node{Kind: wire.NCreate, Path: "f", Ver: v(a, 1)}))

	if got := s.Poll(a); len(got) != 0 {
		t.Fatal("sender received its own batch")
	}
	batches := s.Poll(b)
	if len(batches) != 1 || batches[0].Nodes[0].Path != "f" {
		t.Fatalf("forwarded = %+v", batches)
	}
	// Poll drains.
	if got := s.Poll(b); len(got) != 0 {
		t.Fatal("Poll did not drain outbox")
	}
}

func TestNoForwardingWithSingleClient(t *testing.T) {
	s := New(nil)
	a := s.Register()
	mustOK(t, push(t, s, a, &wire.Node{Kind: wire.NCreate, Path: "f", Ver: v(a, 1)}))
	if got := s.Poll(a); len(got) != 0 {
		t.Fatal("single client got forwarded data")
	}
}

func TestFetchAndFetchRange(t *testing.T) {
	s := New(nil)
	s.Register()
	content := randBytes(8, 1000)
	s.SeedFile("f", content)
	rep := s.Fetch("f")
	if !rep.Exists || !bytes.Equal(rep.Content, content) {
		t.Fatal("Fetch mismatched")
	}
	if rep := s.Fetch("missing"); rep.Exists {
		t.Fatal("Fetch of missing file claims existence")
	}
	part, err := s.FetchRange("f", 100, 50)
	if err != nil || !bytes.Equal(part, content[100:150]) {
		t.Fatalf("FetchRange = %v, %v", part, err)
	}
	if _, err := s.FetchRange("missing", 0, 1); err == nil {
		t.Fatal("FetchRange of missing file succeeded")
	}
	past, err := s.FetchRange("f", 2000, 10)
	if err != nil || len(past) != 0 {
		t.Fatalf("FetchRange past EOF = %v, %v", past, err)
	}
}

func TestStaleBaseOnStructureNode(t *testing.T) {
	s := New(nil)
	cli := s.Register()
	s.SeedFile("f", []byte("x"))
	mustOK(t, push(t, s, cli, &wire.Node{Kind: wire.NWrite, Path: "f",
		Ver: v(cli, 1), Extents: []wire.Extent{{Off: 0, Data: []byte("y")}}}))
	// Unlink with stale base conflicts.
	r := push(t, s, cli, &wire.Node{Kind: wire.NUnlink, Path: "f", Base: v(cli, 99)})
	if r.Statuses[0] != wire.StatusConflict {
		t.Fatalf("stale unlink status = %d", r.Statuses[0])
	}
	if _, ok := s.FileContent("f"); !ok {
		t.Fatal("file deleted despite conflict")
	}
}

func TestMkdirRmdir(t *testing.T) {
	s := New(nil)
	cli := s.Register()
	mustOK(t, push(t, s, cli,
		&wire.Node{Kind: wire.NMkdir, Path: "d"},
		&wire.Node{Kind: wire.NRmdir, Path: "d"},
	))
}

func TestServerMeterCharged(t *testing.T) {
	m := metrics.NewCPUMeter(metrics.PC)
	s := New(m)
	cli := s.Register()
	data := randBytes(9, 100000)
	mustOK(t, push(t, s, cli,
		&wire.Node{Kind: wire.NCreate, Path: "f", Ver: v(cli, 1)},
		&wire.Node{Kind: wire.NWrite, Path: "f", Base: v(cli, 1), Ver: v(cli, 2),
			Extents: []wire.Extent{{Off: 0, Data: data}}},
	))
	if m.NanoTicks() == 0 {
		t.Fatal("server meter uncharged")
	}
}

func TestConflictDeltaAppliedToHistoricBase(t *testing.T) {
	// A losing delta must be applied to the base version it was encoded
	// against (retrieved from history), not to the current content.
	s := New(nil)
	a := s.Register()
	b := s.Register()

	base := randBytes(20, 20000)
	mustOK(t, push(t, s, a, &wire.Node{Kind: wire.NFull, Path: "f", Full: base, Ver: v(a, 1)}))
	s.Poll(b)

	// A moves on; B's delta was computed against v(a,1).
	mustOK(t, push(t, s, a, &wire.Node{Kind: wire.NFull, Path: "f",
		Full: randBytes(21, 5000), Base: v(a, 1), Ver: v(a, 2)}))

	edited := append([]byte(nil), base...)
	copy(edited[100:200], randBytes(22, 100))
	d := rsync.DeltaLocal(base, edited, 4096, nil)
	r := push(t, s, b, &wire.Node{Kind: wire.NDelta, Path: "f", Delta: d,
		Base: v(a, 1), Ver: v(b, 1)})
	if r.Statuses[0] != wire.StatusConflict || len(r.Conflicts) != 1 {
		t.Fatalf("reply = %+v", r)
	}
	cf, ok := s.FileContent(r.Conflicts[0])
	if !ok || !bytes.Equal(cf, edited) {
		t.Fatal("conflict file does not hold the delta applied to its proper base")
	}
}

func TestAtomicGroupConflictMaterializesAllContent(t *testing.T) {
	s := New(nil)
	a := s.Register()
	s.Register() // second client => history kept

	mustOK(t, push(t, s, a,
		&wire.Node{Kind: wire.NCreate, Path: "x", Ver: v(a, 1)},
		&wire.Node{Kind: wire.NWrite, Path: "x", Base: v(a, 1), Ver: v(a, 2),
			Extents: []wire.Extent{{Off: 0, Data: []byte("current")}}},
	))

	// An atomic group with one stale node: everything conflicts, the
	// content-bearing members get conflict copies, and the live tree is
	// untouched.
	r := s.Push(a, &wire.Batch{Client: a, Atomic: true, Nodes: []*wire.Node{
		{Kind: wire.NWrite, Path: "x", Base: v(a, 99), Ver: v(a, 10),
			Extents: []wire.Extent{{Off: 0, Data: []byte("STALE")}}},
		{Kind: wire.NWrite, Path: "y", Ver: v(a, 11),
			Extents: []wire.Extent{{Off: 0, Data: []byte("sibling")}}},
	}})
	for _, st := range r.Statuses {
		if st != wire.StatusConflict {
			t.Fatalf("statuses = %v", r.Statuses)
		}
	}
	got, _ := s.FileContent("x")
	if !bytes.Equal(got, []byte("current")) {
		t.Fatalf("live tree changed: %q", got)
	}
	if _, ok := s.FileContent("y"); ok {
		t.Fatal("sibling applied despite group conflict")
	}
	if len(r.Conflicts) == 0 {
		t.Fatal("no conflict copies materialized")
	}
}

func TestRollbackRestoresDirectories(t *testing.T) {
	s := New(nil)
	cli := s.Register()
	r := s.Push(cli, &wire.Batch{Client: cli, Atomic: true, Nodes: []*wire.Node{
		{Kind: wire.NMkdir, Path: "newdir"},
		{Kind: wire.NRename, Path: "missing", Dst: "x", Ver: v(cli, 1)},
	}})
	if r.Statuses[0] != wire.StatusError {
		t.Fatalf("statuses = %v", r.Statuses)
	}
	// The mkdir must have rolled back: re-creating it succeeds cleanly
	// and rmdir works.
	mustOK(t, push(t, s, cli,
		&wire.Node{Kind: wire.NMkdir, Path: "newdir"},
		&wire.Node{Kind: wire.NRmdir, Path: "newdir"},
	))
}

func TestHeadReportsVersionAndExistence(t *testing.T) {
	s := New(nil)
	cli := s.Register()
	if _, ok := s.Head("nope"); ok {
		t.Fatal("Head claims existence of missing file")
	}
	s.SeedFile("seeded", []byte("x"))
	ver, ok := s.Head("seeded")
	if !ok || !ver.IsZero() {
		t.Fatalf("Head(seeded) = %v, %v", ver, ok)
	}
	mustOK(t, push(t, s, cli, &wire.Node{Kind: wire.NFull, Path: "f",
		Full: []byte("y"), Ver: v(cli, 7)}))
	ver, ok = s.Head("f")
	if !ok || ver != v(cli, 7) {
		t.Fatalf("Head(f) = %v, %v", ver, ok)
	}
}

func TestAppliedLogOrder(t *testing.T) {
	s := New(nil)
	cli := s.Register()
	mustOK(t, push(t, s, cli,
		&wire.Node{Kind: wire.NCreate, Path: "first", Ver: v(cli, 1)},
		&wire.Node{Kind: wire.NCreate, Path: "second", Ver: v(cli, 2)},
	))
	// A failed node must not enter the log.
	push(t, s, cli, &wire.Node{Kind: wire.NRename, Path: "ghost", Dst: "x", Ver: v(cli, 3)})

	log := s.AppliedLog()
	if len(log) != 2 || log[0].Path != "first" || log[1].Path != "second" {
		t.Fatalf("AppliedLog = %+v", log)
	}
}

func TestChunkStoreBudgetEviction(t *testing.T) {
	old := wire.ChunkStoreBudget
	wire.ChunkStoreBudget = 1000
	defer func() { wire.ChunkStoreBudget = old }()

	s := New(nil)
	cli := s.Register()
	first := wire.ChunkRef{Hash: [16]byte{1}, Len: 600, Data: make([]byte, 600)}
	second := wire.ChunkRef{Hash: [16]byte{2}, Len: 600, Data: make([]byte, 600)}
	mustOK(t, push(t, s, cli, &wire.Node{Kind: wire.NCDC, Path: "a",
		Chunks: []wire.ChunkRef{first}, Ver: v(cli, 1)}))
	mustOK(t, push(t, s, cli, &wire.Node{Kind: wire.NCDC, Path: "b",
		Chunks: []wire.ChunkRef{second}, Ver: v(cli, 2)})) // evicts chunk 1

	// Referencing the evicted chunk now fails cleanly.
	r := push(t, s, cli, &wire.Node{Kind: wire.NCDC, Path: "c",
		Chunks: []wire.ChunkRef{{Hash: [16]byte{1}, Len: 600}}, Ver: v(cli, 3)})
	if r.Statuses[0] != wire.StatusError {
		t.Fatalf("evicted chunk reference status = %v", r.Statuses[0])
	}
	// Re-carrying the data re-registers it.
	mustOK(t, push(t, s, cli, &wire.Node{Kind: wire.NCDC, Path: "c",
		Chunks: []wire.ChunkRef{first}, Ver: v(cli, 4)}))
}

// checkChunkStore asserts the chunk store's own bookkeeping: the byte count
// is the residents' size and within budget, and the FIFO holds each
// resident exactly once.
func checkChunkStore(t *testing.T, s *Server, where string) {
	t.Helper()
	s.chunkMu.Lock()
	defer s.chunkMu.Unlock()
	var total int64
	for _, d := range s.chunks {
		total += int64(len(d))
	}
	if total != s.chunkBytes || total > wire.ChunkStoreBudget {
		t.Errorf("%s: resident %d bytes, counted %d, budget %d", where, total, s.chunkBytes, wire.ChunkStoreBudget)
	}
	seen := make(map[block.Strong]bool, len(s.chunkFIFO))
	for _, h := range s.chunkFIFO {
		if _, ok := s.chunks[h]; !ok || seen[h] {
			t.Errorf("%s: FIFO entry %x is not resident or repeats", where, h[:3])
		}
		seen[h] = true
	}
	if len(seen) != len(s.chunks) {
		t.Errorf("%s: %d residents, %d in the FIFO", where, len(s.chunks), len(seen))
	}
}

// Several clients push new chunks on disjoint paths while Save runs in a
// loop. The store must keep exact bookkeeping, hold exactly the tail of the
// global insertion order — a chunk whose push returned before another's
// began was inserted first, so it may neither outlive the other nor follow
// it in the FIFO — and round-trip through Save/Load with its FIFO.
func TestChunkStoreConcurrentPushSave(t *testing.T) {
	const (
		clients   = 4
		perClient = 40
		chunkLen  = 100
		resident  = 10
	)
	old := wire.ChunkStoreBudget
	wire.ChunkStoreBudget = resident * chunkLen
	defer func() { wire.ChunkStoreBudget = old }()

	s := New(nil)
	// Each push is bracketed by two ticks of a shared counter: if one
	// push's end tick precedes another's start tick, its chunk went in first.
	type window struct{ start, end int64 }
	var (
		tick    atomic.Int64
		winMu   sync.Mutex
		windows = make(map[block.Strong]window)
		pushers sync.WaitGroup
	)
	for c := range clients {
		id := s.Register()
		pushers.Add(1)
		go func() {
			defer pushers.Done()
			for i := range perClient {
				h := block.Strong{byte(c), byte(i), 1}
				ref := wire.ChunkRef{Hash: h, Len: chunkLen, Data: bytes.Repeat([]byte{byte(i)}, chunkLen)}
				start := tick.Add(1)
				r := push(t, s, id, &wire.Node{Kind: wire.NCDC, Path: fmt.Sprintf("c%d/f%d", c, i),
					Chunks: []wire.ChunkRef{ref}, Ver: v(id, uint64(i+1))})
				end := tick.Add(1)
				if r.Statuses[0] != wire.StatusOK {
					t.Errorf("client %d push %d: %v %s", c, i, r.Statuses[0], r.Err)
				}
				winMu.Lock()
				windows[h] = window{start, end}
				winMu.Unlock()
			}
		}()
	}
	done := make(chan struct{})
	go func() { pushers.Wait(); close(done) }()
	for saves, finished := 0, false; !finished; saves++ {
		select {
		case <-done:
			finished = true
		default:
		}
		var buf bytes.Buffer
		if err := s.Save(&buf); err != nil {
			t.Fatalf("save %d: %v", saves, err)
		}
		mid := New(nil)
		if err := mid.Load(&buf); err != nil {
			t.Fatalf("load %d: %v", saves, err)
		}
		checkChunkStore(t, mid, fmt.Sprintf("snapshot %d", saves))
	}

	checkChunkStore(t, s, "final")
	if len(s.chunkFIFO) != resident {
		t.Fatalf("%d residents, want %d", len(s.chunkFIFO), resident)
	}
	for i, a := range s.chunkFIFO {
		for _, b := range s.chunkFIFO[i+1:] {
			if windows[b].end < windows[a].start {
				t.Errorf("FIFO has %x before %x, which was inserted first", a[:3], b[:3])
			}
		}
	}
	for h, w := range windows {
		if _, ok := s.chunks[h]; ok {
			continue
		}
		for _, r := range s.chunkFIFO {
			if windows[r].end < w.start {
				t.Errorf("%x is resident but was inserted before evicted %x", r[:3], h[:3])
			}
		}
	}

	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	s2 := New(nil)
	if err := s2.Load(&buf); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s.chunks, s2.chunks) || !reflect.DeepEqual(s.chunkFIFO, s2.chunkFIFO) || s.chunkBytes != s2.chunkBytes {
		t.Fatal("chunk store did not round-trip through Save/Load")
	}
}
