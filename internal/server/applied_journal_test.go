package server

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/wire"
)

// Applied log, direct unit: concurrent appends against concurrent snapshots
// must preserve (a) batch contiguity — one append's ops stay adjacent — and
// (b) each appender's own batch order, in every observed snapshot. Run under
// -race this also exercises the log's locking.
func TestAppliedLogConcurrentAppendSnapshot(t *testing.T) {
	const (
		writers = 8
		batches = 100
		perOp   = 3
	)
	var l appliedLog

	check := func(ops []AppliedOp, where string) {
		lastBatch := make(map[int]int) // writer -> last batch index seen
		for i := 0; i < len(ops); {
			var w, b, k int
			if _, err := fmt.Sscanf(ops[i].Path, "w%d/b%d/o%d", &w, &b, &k); err != nil {
				t.Fatalf("%s: unparseable op path %q", where, ops[i].Path)
			}
			if k != 0 {
				t.Fatalf("%s: batch w%d/b%d starts mid-batch at op %d", where, w, b, k)
			}
			// The whole batch must be adjacent.
			for j := 1; j < perOp; j++ {
				want := fmt.Sprintf("w%d/b%d/o%d", w, b, j)
				if i+j >= len(ops) || ops[i+j].Path != want {
					t.Fatalf("%s: batch w%d/b%d torn at offset %d", where, w, b, j)
				}
			}
			if prev, seen := lastBatch[w]; seen && b <= prev {
				t.Fatalf("%s: writer %d batch %d observed after batch %d", where, w, b, prev)
			}
			lastBatch[w] = b
			i += perOp
		}
	}

	stop := make(chan struct{})
	var readerDone sync.WaitGroup
	readerDone.Add(1)
	go func() { // concurrent reader
		defer readerDone.Done()
		for {
			select {
			case <-stop:
				return
			default:
				check(l.snapshot(), "mid-run snapshot")
			}
		}
	}()
	var writersDone sync.WaitGroup
	for w := 0; w < writers; w++ {
		writersDone.Add(1)
		go func(w int) {
			defer writersDone.Done()
			for b := 0; b < batches; b++ {
				ops := make([]AppliedOp, perOp)
				for k := range ops {
					ops[k] = AppliedOp{Kind: wire.NFull, Path: fmt.Sprintf("w%d/b%d/o%d", w, b, k)}
				}
				l.append(ops)
			}
		}(w)
	}
	writersDone.Wait()
	close(stop)
	readerDone.Wait()

	final := l.snapshot()
	if len(final) != writers*batches*perOp {
		t.Fatalf("final snapshot has %d ops, want %d", len(final), writers*batches*perOp)
	}
	check(final, "final snapshot")
}

// Restore must work across shard counts: a snapshot taken from an 8-shard
// server reloads into the 1-shard oracle with the applied order intact, and
// appends continue the order afterwards.
func TestAppliedLogRestoreAcrossShardCounts(t *testing.T) {
	s1 := newServer(nil, nil, 8)
	cli := s1.Register()
	for i := 1; i <= 20; i++ {
		r := s1.Push(cli, keyedBatch(cli, uint64(i), fmt.Sprintf("f%d", i), []byte{byte(i)}))
		if r.Statuses[0] != wire.StatusOK {
			t.Fatalf("push %d: %+v", i, r)
		}
	}
	var snap bytes.Buffer
	if err := s1.Save(&snap); err != nil {
		t.Fatal(err)
	}

	s2 := newServer(nil, nil, 1)
	if err := s2.Load(&snap); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s1.AppliedLog(), s2.AppliedLog()) {
		t.Fatal("applied order changed across shard-count restore")
	}
	s2.Attach(cli)
	if r := s2.Push(cli, keyedBatch(cli, 21, "f21", []byte{21})); r.Statuses[0] != wire.StatusOK {
		t.Fatalf("post-restore push: %+v", r)
	}
	got := s2.AppliedLog()
	if len(got) != 21 || got[20].Path != "f21" {
		t.Fatalf("post-restore append broke the order: %d ops, last %+v", len(got), got[len(got)-1])
	}
}

// Concurrent pushes against concurrent snapshots (Save quiesces the world,
// append holds shard locks): the final snapshot must round-trip into a
// fresh 1-shard server byte-identically. The -race run is the point.
func TestConcurrentPushSnapshotRestore(t *testing.T) {
	s := newServer(nil, nil, 8)
	const clients = 4
	ids := make([]uint32, clients)
	for i := range ids {
		ids[i] = s.Register()
	}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 1; i <= 50; i++ {
				b := keyedBatch(ids[c], uint64(i), fmt.Sprintf("c%d/f%d", c, i%5), []byte{byte(i)})
				if r := s.Push(ids[c], b); r.Err != "" {
					t.Errorf("client %d push %d: %s", c, i, r.Err)
					return
				}
			}
		}(c)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		var buf bytes.Buffer
		if err := s.Save(&buf); err != nil {
			t.Fatalf("mid-run save: %v", err)
		}
		select {
		case <-done:
			// Final state: snapshot and restore must agree with the source.
			var finalBuf bytes.Buffer
			if err := s.Save(&finalBuf); err != nil {
				t.Fatal(err)
			}
			s2 := newServer(nil, nil, 1)
			if err := s2.Load(&finalBuf); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(s.Files(), s2.Files()) {
				t.Fatal("restored files differ")
			}
			if !reflect.DeepEqual(s.AppliedLog(), s2.AppliedLog()) {
				t.Fatal("restored applied log differs")
			}
			return
		default:
		}
	}
}

// Crash-replay: acknowledged pushes recorded in the journal survive a crash
// with no snapshot at all — a fresh server replays them in commit order,
// with zero duplicate applications.
func TestJournalReplayAfterCrash(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := New(nil)
	s.SetJournal(j)
	cli := s.Register()
	for i := 1; i <= 5; i++ {
		r := s.Push(cli, keyedBatch(cli, uint64(i), fmt.Sprintf("f%d", i), []byte{byte(i)}))
		if r.Statuses[0] != wire.StatusOK {
			t.Fatalf("push %d: %+v", i, r)
		}
	}
	// "Crash": the server object is dropped with no snapshot ever taken.
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenJournal(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	s2 := New(nil)
	n, err := j2.Replay(s2)
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("replayed %d entries, want 5", n)
	}
	if !reflect.DeepEqual(s.Files(), s2.Files()) {
		t.Fatal("replayed state differs from pre-crash state")
	}
	if !reflect.DeepEqual(s.AppliedLog(), s2.AppliedLog()) {
		t.Fatal("replayed applied order differs")
	}
	if d := s2.DuplicateApplies(); d != 0 {
		t.Fatalf("DuplicateApplies after replay = %d, want 0", d)
	}
}

// Snapshot-then-replay: with a snapshot mid-stream, replay re-pushes only
// post-boundary entries; anything it does re-push that the snapshot already
// covers is absorbed by the restored dedup state. TruncateSnapshotted then
// drops the covered prefix and the journal still replays correctly.
func TestJournalSnapshotBoundaryAndTruncate(t *testing.T) {
	dir := t.TempDir()
	state := t.TempDir() + "/state.db"
	j, err := OpenJournal(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := New(nil)
	s.SetJournal(j)
	cli := s.Register()
	push := func(seq int) {
		b := keyedBatch(cli, uint64(seq), fmt.Sprintf("f%d", seq), []byte{byte(seq)})
		if r := s.Push(cli, b); r.Statuses[0] != wire.StatusOK {
			t.Fatalf("push %d: %+v", seq, r)
		}
	}
	push(1)
	push(2)
	if err := s.SaveFile(state); err != nil { // marks the journal boundary
		t.Fatal(err)
	}
	push(3)
	push(4)
	if err := j.Close(); err != nil { // crash after 4 acknowledged pushes
		t.Fatal(err)
	}

	restart := func() *Server {
		t.Helper()
		s2 := New(nil)
		if _, err := s2.LoadFile(state); err != nil {
			t.Fatal(err)
		}
		j2, err := OpenJournal(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer j2.Close()
		n, err := j2.Replay(s2)
		if err != nil {
			t.Fatal(err)
		}
		if n != 2 {
			t.Fatalf("replayed %d entries, want 2 (post-boundary only)", n)
		}
		if d := s2.DuplicateApplies(); d != 0 {
			t.Fatalf("DuplicateApplies = %d, want 0", d)
		}
		if !reflect.DeepEqual(s.Files(), s2.Files()) {
			t.Fatal("recovered state differs")
		}
		return s2
	}
	s2 := restart()

	// A snapshot of the recovered server + truncation leaves a journal that
	// replays to the same place.
	j3, err := OpenJournal(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	s2.SetJournal(j3)
	if err := s2.SaveFile(state); err != nil {
		t.Fatal(err)
	}
	dropped, err := j3.TruncateSnapshotted()
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 4 {
		t.Fatalf("truncated %d entries, want 4", dropped)
	}
	if err := j3.Close(); err != nil {
		t.Fatal(err)
	}
	s3 := New(nil)
	if _, err := s3.LoadFile(state); err != nil {
		t.Fatal(err)
	}
	j4, err := OpenJournal(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer j4.Close()
	if n, err := j4.Replay(s3); err != nil || n != 0 {
		t.Fatalf("replay after truncate: n=%d err=%v, want 0 entries", n, err)
	}
	if !reflect.DeepEqual(s.Files(), s3.Files()) {
		t.Fatal("state after truncate+restart differs")
	}
}
