package server

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"repro/internal/metrics"
	"repro/internal/version"
	"repro/internal/wire"
)

// ---------------------------------------------------------------------------
// Oracle property test: a seeded multi-client op script applied concurrently
// to the sharded server must end in exactly the state the 1-shard
// (global-lock) server reaches replaying the same script serially. Each
// client owns a disjoint path universe and submits its batches in program
// order, so the final state is schedule-independent and the comparison is
// exact: files, contents, versions, directories — including the conflict
// copies that deliberately stale-based batches materialize.
// ---------------------------------------------------------------------------

// opgen generates one client's deterministic batch script. It tracks the
// server-side version each path will have at each point of the client's
// program order (valid because no other client touches these paths).
type opgen struct {
	r      *rand.Rand
	id     uint32
	paths  []string
	ctr    *version.Counter
	vers   map[string]version.ID
	exists map[string]bool
}

func newOpgen(seed int64, id uint32, nPaths int) *opgen {
	g := &opgen{
		r:      rand.New(rand.NewSource(seed)),
		id:     id,
		ctr:    version.NewCounter(id),
		vers:   make(map[string]version.ID),
		exists: make(map[string]bool),
	}
	for j := 0; j < nPaths; j++ {
		g.paths = append(g.paths, fmt.Sprintf("c%d/f%d", id, j))
	}
	return g
}

func (g *opgen) pick() string { return g.paths[g.r.Intn(len(g.paths))] }

func (g *opgen) content() []byte {
	p := make([]byte, 1+g.r.Intn(200))
	g.r.Read(p)
	return p
}

// fullNode builds a valid whole-file write and advances the model.
func (g *opgen) fullNode(p string) *wire.Node {
	n := &wire.Node{Kind: wire.NFull, Path: p, Base: g.vers[p], Ver: g.ctr.Next(), Full: g.content()}
	g.vers[p] = n.Ver
	g.exists[p] = true
	return n
}

// existingPath returns a path with a non-zero version, or "" if none yet.
func (g *opgen) existingPath() string {
	var have []string
	for _, p := range g.paths {
		if g.exists[p] {
			have = append(have, p)
		}
	}
	if len(have) == 0 {
		return ""
	}
	return have[g.r.Intn(len(have))]
}

// next generates the client's next batch.
func (g *opgen) next(seq uint64) *wire.Batch {
	b := &wire.Batch{Client: g.id, Seq: seq}
	switch roll := g.r.Intn(10); {
	case roll < 3: // single whole-file write
		b.Nodes = []*wire.Node{g.fullNode(g.pick())}

	case roll < 5: // atomic multi-file batch spanning shards
		b.Atomic = true
		perm := g.r.Perm(len(g.paths))
		k := 2 + g.r.Intn(3)
		for _, pi := range perm[:k] {
			b.Nodes = append(b.Nodes, g.fullNode(g.paths[pi]))
		}

	case roll < 6: // extent write (creates the file if absent)
		p := g.pick()
		n := &wire.Node{Kind: wire.NWrite, Path: p, Base: g.vers[p], Ver: g.ctr.Next()}
		for e := 0; e <= g.r.Intn(3); e++ {
			d := make([]byte, 1+g.r.Intn(50))
			g.r.Read(d)
			n.Extents = append(n.Extents, wire.Extent{Off: int64(g.r.Intn(100)), Data: d})
		}
		g.vers[p] = n.Ver
		g.exists[p] = true
		b.Nodes = []*wire.Node{n}

	case roll < 7: // deliberate stale base: conflicts, state unchanged
		p := g.existingPath()
		if p == "" {
			b.Nodes = []*wire.Node{g.fullNode(g.pick())}
			break
		}
		stale := version.ID{Client: g.id, Count: g.vers[p].Count + 50}
		b.Nodes = []*wire.Node{{
			Kind: wire.NFull, Path: p, Base: stale, Ver: g.ctr.Next(), Full: g.content(),
		}}

	case roll < 8: // atomic group with one stale member: all-or-nothing conflict
		if len(g.paths) < 2 {
			b.Nodes = []*wire.Node{g.fullNode(g.pick())}
			break
		}
		perm := g.r.Perm(len(g.paths))
		p1, p2 := g.paths[perm[0]], g.paths[perm[1]]
		b.Atomic = true
		b.Nodes = []*wire.Node{
			{Kind: wire.NFull, Path: p1, Base: g.vers[p1], Ver: g.ctr.Next(), Full: g.content()},
			{Kind: wire.NFull, Path: p2,
				Base: version.ID{Client: g.id, Count: g.vers[p2].Count + 99},
				Ver:  g.ctr.Next(), Full: g.content()},
		}

	case roll < 9: // truncate or unlink an existing file
		p := g.existingPath()
		if p == "" {
			b.Nodes = []*wire.Node{g.fullNode(g.pick())}
			break
		}
		if g.r.Intn(2) == 0 {
			n := &wire.Node{Kind: wire.NTruncate, Path: p, Size: int64(g.r.Intn(100)),
				Base: g.vers[p], Ver: g.ctr.Next()}
			g.vers[p] = n.Ver
			b.Nodes = []*wire.Node{n}
		} else {
			b.Nodes = []*wire.Node{{Kind: wire.NUnlink, Path: p, Base: g.vers[p]}}
			delete(g.vers, p)
			g.exists[p] = false
		}

	default: // mkdir
		b.Nodes = []*wire.Node{{Kind: wire.NMkdir,
			Path: fmt.Sprintf("c%d/d%d", g.id, g.r.Intn(4))}}
	}
	return b
}

// snapshotOf captures a server's comparable state.
type flatState struct {
	files map[string][]byte
	vers  map[string]version.ID
	dirs  []string
}

func snapshotOf(s *Server) flatState {
	st := flatState{files: make(map[string][]byte), vers: make(map[string]version.ID)}
	for _, p := range s.Files() {
		c, _ := s.FileContent(p)
		st.files[p] = c
		st.vers[p] = s.Version(p)
	}
	st.dirs = s.Dirs()
	sort.Strings(st.dirs)
	return st
}

func diffStates(t *testing.T, sharded, oracle flatState) {
	t.Helper()
	if len(sharded.files) != len(oracle.files) {
		t.Errorf("file count: sharded %d, oracle %d", len(sharded.files), len(oracle.files))
	}
	for p, oc := range oracle.files {
		sc, ok := sharded.files[p]
		if !ok {
			t.Errorf("path %q: in oracle, missing from sharded server", p)
			continue
		}
		if !bytes.Equal(sc, oc) {
			t.Errorf("path %q: content diverged (%d vs %d bytes)", p, len(sc), len(oc))
		}
		if sharded.vers[p] != oracle.vers[p] {
			t.Errorf("path %q: version %v vs %v", p, sharded.vers[p], oracle.vers[p])
		}
	}
	for p := range sharded.files {
		if _, ok := oracle.files[p]; !ok {
			t.Errorf("path %q: in sharded server, missing from oracle", p)
		}
	}
	if fmt.Sprint(sharded.dirs) != fmt.Sprint(oracle.dirs) {
		t.Errorf("dirs diverged: %v vs %v", sharded.dirs, oracle.dirs)
	}
}

func TestShardedMatchesGlobalLockOracle(t *testing.T) {
	const (
		nSeeds   = 24
		nClients = 4
		nBatches = 25
		nPaths   = 6
	)
	for seed := int64(1); seed <= nSeeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			sharded := New(nil)
			oracle := newServer(nil, nil, 1)
			if len(oracle.shards) != 1 {
				t.Fatalf("oracle has %d shards, want 1", len(oracle.shards))
			}

			// Register the same client IDs on both servers, then generate
			// each client's script against its own path universe.
			scripts := make([][]*wire.Batch, nClients)
			ids := make([]uint32, nClients)
			for i := 0; i < nClients; i++ {
				id := sharded.Register()
				if oid := oracle.Register(); oid != id {
					t.Fatalf("client ID mismatch: %d vs %d", id, oid)
				}
				ids[i] = id
				g := newOpgen(seed*131+int64(i), id, nPaths)
				for k := 0; k < nBatches; k++ {
					scripts[i] = append(scripts[i], g.next(uint64(k+1)))
				}
			}

			// Concurrent run on the sharded server: one goroutine per
			// client, batches in program order, reads sprinkled in.
			var wg sync.WaitGroup
			for i := 0; i < nClients; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					for k, b := range scripts[i] {
						sharded.Push(ids[i], b)
						if k%3 == 0 {
							sharded.Head(b.Nodes[0].Path)
							sharded.Poll(ids[i])
						}
						if k%7 == 0 {
							sharded.Fetch(b.Nodes[0].Path)
						}
					}
				}(i)
			}
			wg.Wait()

			// Serial round-robin replay on the 1-shard oracle (any order
			// respecting per-client program order must give this state).
			for k := 0; k < nBatches; k++ {
				for i := 0; i < nClients; i++ {
					oracle.Push(ids[i], scripts[i][k])
				}
			}

			diffStates(t, snapshotOf(sharded), snapshotOf(oracle))
			if d := sharded.DuplicateApplies(); d != 0 {
				t.Errorf("sharded server double-applied %d keyed batches", d)
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Randomized concurrency stress: many goroutines hammer one sharded server
// with pushes on *shared* paths (real cross-client races), atomic batches
// spanning shards, polls, reads, snapshots, and concurrent replays of the
// same keyed batch. Run under -race; the only hard invariants are "no keyed
// batch applies twice" and "the server stays responsive and self-consistent".
// ---------------------------------------------------------------------------

func TestConcurrentStressRandomOps(t *testing.T) {
	s := New(nil)
	sharedPaths := make([]string, 8)
	for i := range sharedPaths {
		sharedPaths[i] = fmt.Sprintf("shared/f%d", i)
	}

	const workers = 6
	const iters = 60
	ids := make([]uint32, workers)
	for i := range ids {
		ids[i] = s.Register()
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w) * 977))
			ctr := version.NewCounter(ids[w])
			for i := 0; i < iters; i++ {
				switch r.Intn(8) {
				case 0, 1: // racy write: base read and push race with others
					p := sharedPaths[r.Intn(len(sharedPaths))]
					base := s.Version(p)
					s.Push(ids[w], &wire.Batch{Client: ids[w], Nodes: []*wire.Node{{
						Kind: wire.NFull, Path: p, Base: base, Ver: ctr.Next(),
						Full: []byte(fmt.Sprintf("w%d-i%d", w, i)),
					}}})
				case 2: // atomic batch spanning several shards
					b := &wire.Batch{Client: ids[w], Atomic: true}
					for _, pi := range r.Perm(len(sharedPaths))[:3] {
						p := sharedPaths[pi]
						b.Nodes = append(b.Nodes, &wire.Node{
							Kind: wire.NFull, Path: p, Base: s.Version(p),
							Ver: ctr.Next(), Full: []byte("atomic"),
						})
					}
					s.Push(ids[w], b)
				case 3:
					s.Poll(ids[w])
				case 4:
					s.Fetch(sharedPaths[r.Intn(len(sharedPaths))])
					s.Head(sharedPaths[r.Intn(len(sharedPaths))])
				case 5:
					s.Files()
					s.OutboxStats()
				case 6: // snapshot concurrently with pushes
					if err := s.Save(io.Discard); err != nil {
						t.Errorf("Save: %v", err)
					}
				case 7: // private-path write (uncontended shard traffic)
					p := fmt.Sprintf("w%d/own", w)
					s.Push(ids[w], &wire.Batch{Client: ids[w], Nodes: []*wire.Node{{
						Kind: wire.NFull, Path: p, Base: s.Version(p), Ver: ctr.Next(),
						Full: []byte("own"),
					}}})
				}
			}
		}(w)
	}

	// Two extra goroutines share one client ID and push the *same* keyed
	// batches concurrently — every Seq must apply exactly once.
	replayID := s.Register()
	replayBatches := make([]*wire.Batch, 30)
	for k := range replayBatches {
		base := version.ID{}
		if k > 0 {
			base = version.ID{Client: replayID, Count: uint64(k)}
		}
		replayBatches[k] = &wire.Batch{Client: replayID, Seq: uint64(k + 1), Nodes: []*wire.Node{{
			Kind: wire.NFull, Path: "replay/f", Full: []byte(fmt.Sprintf("v%d", k)),
			Base: base,
			Ver:  version.ID{Client: replayID, Count: uint64(k + 1)},
		}}}
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, b := range replayBatches {
				s.Push(replayID, b)
			}
		}()
	}
	wg.Wait()

	if d := s.DuplicateApplies(); d != 0 {
		t.Fatalf("%d keyed batches applied more than once", d)
	}
	// Every listed file must be readable and every shared path must hold
	// one of the contents some client pushed (no torn or phantom state).
	for _, p := range s.Files() {
		if _, ok := s.FileContent(p); !ok {
			t.Fatalf("Files() listed %q but FileContent says it is gone", p)
		}
	}
	if c, ok := s.FileContent("replay/f"); !ok || string(c) != "v29" {
		t.Fatalf("replay/f = %q, %v; want final keyed write v29", c, ok)
	}
	// The server is still fully operational after the storm.
	last := s.Register()
	r := s.Push(last, &wire.Batch{Client: last, Nodes: []*wire.Node{{
		Kind: wire.NFull, Path: "post/storm", Ver: version.ID{Client: last, Count: 1},
		Full: []byte("ok"),
	}}})
	if r.Statuses[0] != wire.StatusOK {
		t.Fatalf("post-storm push status %d (%s)", r.Statuses[0], r.Err)
	}
}

// ---------------------------------------------------------------------------
// Outbox bounding (satellite 1): past OutboxDepthLimit the oldest forwarded
// batches are evicted, the drops and peak surface in OutboxStats and on the
// wired SyncMeter, and a poll drains exactly the retained newest batches.
// ---------------------------------------------------------------------------

func TestOutboxBoundedEviction(t *testing.T) {
	old := OutboxDepthLimit
	OutboxDepthLimit = 8
	defer func() { OutboxDepthLimit = old }()

	s := New(nil)
	sm := &metrics.SyncMeter{}
	s.SetSyncMeter(sm)
	pusher := s.Register()
	idle := s.Register() // never polls until the end

	for i := 1; i <= 20; i++ {
		r := s.Push(pusher, &wire.Batch{Client: pusher, Nodes: []*wire.Node{{
			Kind: wire.NFull, Path: fmt.Sprintf("f%d", i),
			Ver:  version.ID{Client: pusher, Count: uint64(i)},
			Full: []byte("x"),
		}}})
		if r.Statuses[0] != wire.StatusOK {
			t.Fatalf("push %d: status %d", i, r.Statuses[0])
		}
	}

	st := s.OutboxStats()
	if st.Depth != 8 || st.Peak != 8 || st.Drops != 12 {
		t.Fatalf("OutboxStats = %+v, want Depth 8, Peak 8, Drops 12", st)
	}
	if sm.OutboxDrops() != 12 {
		t.Fatalf("SyncMeter.OutboxDrops = %d, want 12", sm.OutboxDrops())
	}
	if sm.OutboxPeak() != 8 {
		t.Fatalf("SyncMeter.OutboxPeak = %d, want 8", sm.OutboxPeak())
	}
	stats := sm.Snapshot()
	if stats.OutboxDrops != 12 || stats.OutboxPeak != 8 {
		t.Fatalf("SyncStats = %+v, want drops 12 peak 8", stats)
	}

	got := s.Poll(idle)
	if len(got) != 8 {
		t.Fatalf("Poll drained %d batches, want the 8 newest", len(got))
	}
	for i, b := range got {
		want := fmt.Sprintf("f%d", 13+i)
		if b.Nodes[0].Path != want {
			t.Fatalf("retained batch %d is %q, want %q (oldest must be evicted)",
				i, b.Nodes[0].Path, want)
		}
	}
	if st := s.OutboxStats(); st.Depth != 0 {
		t.Fatalf("post-poll Depth = %d, want 0", st.Depth)
	}
}

// Outbox backpressure (ROADMAP follow-on): a pusher whose forwards are
// filling a slow peer's bounded outbox is told so on the reply instead of
// the forwards being dropped silently, and the signals are counted on the
// SyncMeter. Draining the outbox clears the signal.
func TestOutboxBackpressureSignaled(t *testing.T) {
	old := OutboxDepthLimit
	OutboxDepthLimit = 4
	defer func() { OutboxDepthLimit = old }()

	s := New(nil)
	sm := &metrics.SyncMeter{}
	s.SetSyncMeter(sm)
	pusher := s.Register()
	idle := s.Register() // slow poller

	pushOne := func(i int) *wire.PushReply {
		t.Helper()
		r := s.Push(pusher, &wire.Batch{Client: pusher, Nodes: []*wire.Node{{
			Kind: wire.NFull, Path: fmt.Sprintf("f%d", i),
			Ver:  version.ID{Client: pusher, Count: uint64(i)},
			Full: []byte("x"),
		}}})
		if r.Statuses[0] != wire.StatusOK {
			t.Fatalf("push %d: status %d (%s)", i, r.Statuses[0], r.Err)
		}
		return r
	}

	// Below the bound: no backpressure.
	for i := 1; i <= 3; i++ {
		if pushOne(i).Throttled {
			t.Fatalf("push %d throttled at depth %d (limit 4)", i, i)
		}
	}
	// At the bound (one forward away from evicting) and past it: every
	// reply carries the signal.
	for i := 4; i <= 10; i++ {
		if !pushOne(i).Throttled {
			t.Fatalf("push %d not throttled with the outbox at its bound", i)
		}
	}
	if got := sm.OutboxThrottles(); got != 7 {
		t.Fatalf("OutboxThrottles = %d, want 7", got)
	}
	if stats := sm.Snapshot(); stats.OutboxThrottles != 7 {
		t.Fatalf("SyncStats.OutboxThrottles = %d, want 7", stats.OutboxThrottles)
	}

	// Once the slow peer catches up, pushes flow without the signal.
	if got := s.Poll(idle); len(got) != 4 {
		t.Fatalf("Poll drained %d batches, want 4", len(got))
	}
	if pushOne(11).Throttled {
		t.Fatal("push throttled after the peer drained its outbox")
	}
}

// newServer must round the shard count up to a power of two and never go
// below 1; New gets DefaultShards.
func TestShardCountRounding(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{0, 1}, {1, 1}, {2, 2}, {3, 4}, {5, 8}, {64, 64}, {65, 128},
	} {
		if got := len(newServer(nil, nil, tc.in).shards); got != tc.want {
			t.Errorf("newServer(%d) → %d shards, want %d", tc.in, got, tc.want)
		}
	}
	if got := len(New(nil).shards); got != DefaultShards {
		t.Errorf("New → %d shards, want %d", got, DefaultShards)
	}
}
