package server

import (
	"bytes"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/extent"
	"repro/internal/metrics"
	"repro/internal/rsync"
	"repro/internal/wire"
)

// Tests of the server's file state as copy-on-write page tables: what a push
// costs, what it shares, and what readers can see while it runs.

const bigFile = 32 << 20

func copiedBytes(m *metrics.CPUMeter) int64 { return m.Breakdown()["copy_bytes"] }

// A sub-page write into a big shared file costs a page and a table, not the
// file — and the revisions kept for conflict resolution cost tables too.
func TestSmallWriteIntoBigSharedFileAllocatesOnePage(t *testing.T) {
	s := New(nil)
	a := s.Register()
	s.Register() // second member: history is retained, batches are forwarded
	model := randBytes(1, bigFile)
	s.SeedFile("chat.db", model)

	var revs [][]byte // expected content at version <a, i+1>
	write := func(i int) {
		data := randBytes(int64(100+i), 1024)
		off := int64(i)*5*extent.PageSize + 300
		mustOK(t, push(t, s, a, &wire.Node{Kind: wire.NWrite, Path: "chat.db",
			Base: s.Version("chat.db"), Ver: v(a, uint64(i+1)),
			Extents: []wire.Extent{{Off: off, Data: data}}}))
		copy(model[off:], data)
		revs = append(revs, append([]byte(nil), model...))
	}
	write(0) // warm up: maps, outbox, history slice
	for i := 1; i <= HistoryDepth; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		write(i)
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc - uint64(len(model)); got >= 256<<10 {
			// (the test's own copy of the model is subtracted)
			t.Fatalf("push %d: a 1 KiB write into a %d MiB file allocated %d KiB, want < 256", i, bigFile>>20, got>>10)
		}
	}

	if got, _ := s.FileContent("chat.db"); !bytes.Equal(got, model) {
		t.Fatal("live content differs from the model")
	}
	sh := s.shard("chat.db")
	sh.mu.RLock()
	hist := append([]revision(nil), sh.history["chat.db"]...)
	sh.mu.RUnlock()
	if len(hist) != HistoryDepth {
		t.Fatalf("retained %d revisions, want %d", len(hist), HistoryDepth)
	}
	for _, rev := range hist {
		if want := revs[rev.ver.Count-1]; !bytes.Equal(rev.content.Bytes(), want) {
			t.Fatalf("revision %v does not read back as the content at that version", rev.ver)
		}
	}
}

// Several nodes of one transaction writing one page copy it once; a value
// shared mid-transaction (a link) is not written through afterwards.
func TestTransactionCopiesAPageOnceAndNeverWritesASharedOne(t *testing.T) {
	m := metrics.NewCPUMeter(metrics.PC)
	s := New(m)
	cli := s.Register()
	seed := randBytes(2, 4*extent.PageSize)
	s.SeedFile("f", seed)

	before := copiedBytes(m)
	mustOK(t, s.Push(cli, &wire.Batch{Client: cli, Atomic: true, Nodes: []*wire.Node{
		{Kind: wire.NWrite, Path: "f", Ver: v(cli, 1), Extents: []wire.Extent{{Off: extent.PageSize + 10, Data: []byte("first")}}},
		{Kind: wire.NWrite, Path: "f", Base: v(cli, 1), Ver: v(cli, 2), Extents: []wire.Extent{{Off: extent.PageSize + 500, Data: []byte("second")}}},
	}}))
	if got, want := copiedBytes(m)-before, int64(extent.PageSize+len("second")); got != want {
		t.Fatalf("two writes to one page in one transaction copied %d bytes, want %d (the page once, plus the data)", got, want)
	}

	mustOK(t, s.Push(cli, &wire.Batch{Client: cli, Atomic: true, Nodes: []*wire.Node{
		{Kind: wire.NWrite, Path: "f", Base: v(cli, 2), Ver: v(cli, 3), Extents: []wire.Extent{{Off: 0, Data: []byte("before-link")}}},
		{Kind: wire.NLink, Path: "f", Dst: "g", Base: v(cli, 3), Ver: v(cli, 4)},
		{Kind: wire.NWrite, Path: "f", Base: v(cli, 3), Ver: v(cli, 5), Extents: []wire.Extent{{Off: 0, Data: []byte("AFTER")}}},
	}}))
	f, _ := s.FileContent("f")
	g, _ := s.FileContent("g")
	if !bytes.HasPrefix(f, []byte("AFTERe-link")) || !bytes.HasPrefix(g, []byte("before-link")) {
		t.Fatalf("f = %q, g = %q: the write after the link must reach f alone", f[:11], g[:11])
	}
}

func TestFailedAtomicBatchOverBigFileRollsBack(t *testing.T) {
	s := New(nil)
	a := s.Register()
	s.Register()
	seed := randBytes(3, bigFile)
	s.SeedFile("chat.db", seed)
	mustOK(t, push(t, s, a, &wire.Node{Kind: wire.NWrite, Path: "chat.db", Ver: v(a, 1),
		Extents: []wire.Extent{{Off: 7, Data: []byte("committed")}}}))
	copy(seed[7:], "committed")

	r := s.Push(a, &wire.Batch{Client: a, Atomic: true, Nodes: []*wire.Node{
		{Kind: wire.NWrite, Path: "chat.db", Base: v(a, 1), Ver: v(a, 2),
			Extents: []wire.Extent{{Off: 0, Data: randBytes(4, 3*extent.PageSize)}, {Off: bigFile - 10, Data: randBytes(5, 4096)}}},
		{Kind: wire.NTruncate, Path: "chat.db", Size: 100, Base: v(a, 2), Ver: v(a, 3)},
		{Kind: wire.NCreate, Path: "side", Ver: v(a, 4)},
		{Kind: wire.NTruncate, Path: "missing", Size: 5, Ver: v(a, 5)},
	}})
	if r.Err == "" || r.Statuses[0] != wire.StatusError {
		t.Fatalf("batch with a failing node: statuses %v, err %q", r.Statuses, r.Err)
	}
	if got, _ := s.FileContent("chat.db"); !bytes.Equal(got, seed) {
		t.Fatal("content after rollback is not byte-identical to the content before the batch")
	}
	if got := s.Version("chat.db"); got != v(a, 1) {
		t.Fatalf("version after rollback = %v", got)
	}
	if _, ok := s.FileContent("side"); ok {
		t.Fatal("a file created by the failed batch survived")
	}
}

// The losing side of a conflict is applied to the revision it was made
// against. That revision shares its pages with the live file, so building
// the conflict copy costs the pages the loser wrote, not the file.
func TestConflictCopyIsBuiltFromASharedRevision(t *testing.T) {
	m := metrics.NewCPUMeter(metrics.PC)
	s := New(m)
	a := s.Register()
	b := s.Register()
	base := randBytes(6, 8*extent.PageSize+123)
	mustOK(t, push(t, s, a, &wire.Node{Kind: wire.NFull, Path: "doc", Ver: v(a, 1), Full: base}))
	s.Poll(b)

	winner := []byte("A was here")
	mustOK(t, push(t, s, a, &wire.Node{Kind: wire.NWrite, Path: "doc", Base: v(a, 1), Ver: v(a, 2),
		Extents: []wire.Extent{{Off: 2 * extent.PageSize, Data: winner}}}))

	before := copiedBytes(m)
	loser := []byte("B wrote this")
	off := int64(5*extent.PageSize + 9)
	r := push(t, s, b, &wire.Node{Kind: wire.NWrite, Path: "doc", Base: v(a, 1), Ver: v(b, 1),
		Extents: []wire.Extent{{Off: off, Data: loser}}})
	if r.Statuses[0] != wire.StatusConflict || len(r.Conflicts) != 1 {
		t.Fatalf("statuses %v, conflicts %v", r.Statuses, r.Conflicts)
	}
	if got, want := copiedBytes(m)-before, int64(extent.PageSize); got != want {
		t.Fatalf("materialising the conflict copied %d bytes, want one page (%d)", got, want)
	}

	wantLive := append([]byte(nil), base...)
	copy(wantLive[2*extent.PageSize:], winner)
	if got, _ := s.FileContent("doc"); !bytes.Equal(got, wantLive) {
		t.Fatal("first write did not win")
	}
	wantConflict := append([]byte(nil), base...)
	copy(wantConflict[off:], loser)
	if got, _ := s.FileContent(r.Conflicts[0]); !bytes.Equal(got, wantConflict) {
		t.Fatal("conflict copy is not the loser's write applied to the version it was made against")
	}
}

// Readers never hold up a push and never see half of one: every version the
// writer commits fills the whole file with one byte value and stamps that
// value as the version count, so any torn read shows up as a mixed buffer or
// as a content/version mismatch.
func TestReadersObserveWholeVersions(t *testing.T) {
	const size = 5*extent.PageSize + 777
	const versions = 150
	s := New(nil)
	w := s.Register()
	s.Register()
	fill := func(k int) []byte { return bytes.Repeat([]byte{byte(k)}, size) }
	mustOK(t, push(t, s, w, &wire.Node{Kind: wire.NFull, Path: "f", Ver: v(w, 1), Full: fill(1)}))

	uniform := func(p []byte) bool { return len(p) > 0 && bytes.Count(p, p[:1]) == len(p) }
	done := make(chan struct{})
	var wg sync.WaitGroup
	reader := func(check func() string) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if msg := check(); msg != "" {
					t.Error(msg)
					return
				}
			}
		}()
	}
	reader(func() string {
		fr := s.Fetch("f")
		if len(fr.Content) != size || !uniform(fr.Content) || fr.Content[0] != byte(fr.Ver.Count) {
			return "Fetch returned a torn version"
		}
		return ""
	})
	reader(func() string {
		p, err := s.FetchRange("f", extent.PageSize-100, 3*extent.PageSize)
		if err != nil || len(p) != 3*extent.PageSize || !uniform(p) {
			return "FetchRange returned a torn version"
		}
		return ""
	})
	reader(func() string {
		var buf bytes.Buffer
		if err := s.Save(&buf); err != nil {
			return "Save: " + err.Error()
		}
		restored := New(nil)
		if err := restored.Load(&buf); err != nil {
			return "Load: " + err.Error()
		}
		c, _ := restored.FileContent("f")
		if len(c) != size || !uniform(c) || c[0] != byte(restored.Version("f").Count) {
			return "Save captured a torn version"
		}
		return ""
	})

	for k := 2; k <= versions; k++ {
		// Alternate whole-file replacement with in-place extents that
		// rewrite every page, so both paths publish under the readers.
		n := &wire.Node{Kind: wire.NFull, Path: "f", Base: v(w, uint64(k-1)), Ver: v(w, uint64(k)), Full: fill(k)}
		if k%2 == 0 {
			n = &wire.Node{Kind: wire.NWrite, Path: "f", Base: n.Base, Ver: n.Ver,
				Extents: []wire.Extent{{Off: 0, Data: fill(k)[:size/2]}, {Off: size / 2, Data: fill(k)[size/2:]}}}
		}
		mustOK(t, s.PushEncoded(w, wire.NewEncodedBatch(&wire.Batch{Client: w, Nodes: []*wire.Node{n}})))
	}
	close(done)
	wg.Wait()
}

// A hostile delta is refused with the error rsync.Patch gives for it, and
// leaves nothing behind.
func TestHostileDeltaRejectedAsPatchRejectsIt(t *testing.T) {
	base := randBytes(8, 3*extent.PageSize)
	for name, d := range map[string]*rsync.Delta{
		"copy past base":  {TargetLen: 10, Ops: []rsync.Op{{Kind: rsync.OpCopy, Off: int64(len(base)) - 5, Len: 10}}},
		"negative offset": {TargetLen: 10, Ops: []rsync.Op{{Kind: rsync.OpCopy, Off: -1, Len: 10}}},
		"negative length": {TargetLen: 10, Ops: []rsync.Op{{Kind: rsync.OpCopy, Off: 0, Len: -10}}},
		"longer than claimed": {TargetLen: 10, Ops: []rsync.Op{
			{Kind: rsync.OpCopy, Off: 0, Len: 2 * extent.PageSize}, {Kind: rsync.OpData, Data: []byte("tail")}}},
		"shorter than claimed": {TargetLen: 1 << 40, Ops: []rsync.Op{{Kind: rsync.OpData, Data: []byte("tiny")}}},
		"unknown op":           {TargetLen: 1, Ops: []rsync.Op{{Kind: 9}}},
	} {
		t.Run(name, func(t *testing.T) {
			_, want := rsync.Patch(base, d, nil)
			if want == nil {
				t.Fatal("rsync.Patch accepts this delta; the case tests nothing")
			}
			s := New(nil)
			cli := s.Register()
			s.SeedFile("f", base)
			r := push(t, s, cli, &wire.Node{Kind: wire.NDelta, Path: "f", Ver: v(cli, 1), Delta: d})
			if r.Statuses[0] != wire.StatusError || !strings.HasSuffix(r.Err, want.Error()) {
				t.Fatalf("reply err = %q, want it to end in rsync.Patch's %q", r.Err, want)
			}
			if got, _ := s.FileContent("f"); !bytes.Equal(got, base) || !s.Version("f").IsZero() {
				t.Fatal("a rejected delta changed the file")
			}
		})
	}
}
