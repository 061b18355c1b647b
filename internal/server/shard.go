package server

import (
	"hash/fnv"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/extent"
	"repro/internal/version"
	"repro/internal/wire"
)

// The server's file state is striped across a fixed power-of-two number of
// shards keyed by fnv32a(path), so Push batches touching disjoint files
// apply concurrently instead of serializing on one global mutex. Every path
// derived from a batch — node paths, rename/link destinations, delta base
// paths, and the (deterministic) conflict-file names a losing batch could
// materialize — is resolved to its shard up front; the batch then takes its
// shard locks in ascending index order, which makes multi-shard atomic
// (backindex) batches deadlock-free while staying all-or-nothing.
//
// Lock ordering (outermost first; a later level must never be held while
// acquiring an earlier one):
//
//  1. clientState.pushMu — serializes one client's keyed pushes
//     (dedup-check → apply → reply-record must be atomic per client).
//     Whole-server operations (Save, DuplicateApplies) take many pushMus
//     in ascending client-ID order, never while holding clientMu.
//  2. fileShard.mu — in ascending shard index, the batch's precomputed
//     lock set. Read-only RPCs take a single shard's RLock.
//  3. Server.clientMu — registry lookup/insert/iteration only; no other
//     lock is ever acquired while it is held.
//  4. Journal.mu — taken under the batch's shard locks on the push path
//     (WAL-before-apply) and with the full quiesce set held during Save's
//     journal-boundary capture; no server lock is acquired under it.
//  5. The leaf mutexes — clientState.outMu, Server.chunkMu,
//     appliedLog.mu: at most one of them held at a time, and no lock is
//     acquired under any of them.

// DefaultShards is the number of file-state stripes. Fixed and power-of-two
// so shardFor is a mask, large enough that 16 concurrent clients on random
// paths rarely collide (birthday bound ≈ 1 - e^(-16²/2·64) ≈ 0.86 for one
// collision among 64, but each collision only pairwise serializes).
const DefaultShards = 64

// fileShard is one stripe of the server's per-path state: contents,
// directories, versions, and the recent-revision history used for conflict
// materialization. Everything in it is guarded by mu — the maps, that is:
// the extent.File values in them are immutable, so a reader that has copied
// one out under the lock needs the lock no longer.
type fileShard struct {
	mu      sync.RWMutex
	files   map[string]extent.File
	dirs    map[string]bool
	vers    map[string]version.ID
	history map[string][]revision
}

func newFileShard() *fileShard {
	return &fileShard{
		files:   make(map[string]extent.File),
		dirs:    make(map[string]bool),
		vers:    make(map[string]version.ID),
		history: make(map[string][]revision),
	}
}

// getVer mirrors version.Map.Get on the shard's slice of the version map.
func (sh *fileShard) getVer(path string) version.ID { return sh.vers[path] }

// setVer mirrors version.Map.Set (zero deletes).
func (sh *fileShard) setVer(path string, id version.ID) {
	if id.IsZero() {
		delete(sh.vers, path)
		return
	}
	sh.vers[path] = id
}

// shardFor maps a path to its stripe.
func (s *Server) shardFor(path string) uint32 {
	h := fnv.New32a()
	h.Write([]byte(path))
	return h.Sum32() & s.shardMask
}

// shard returns the stripe owning path. The caller must hold the shard's
// lock (via a batchLocks set covering path, or a direct RLock).
func (s *Server) shard(path string) *fileShard {
	return s.shards[s.shardFor(path)]
}

// batchLocks is the sorted, deduplicated set of shard indices a batch may
// touch, locked in ascending order.
type batchLocks struct {
	s    *Server
	idxs []uint32
}

// lockSetFor computes every shard the batch can possibly touch: node paths,
// rename/link destinations, delta base paths, and the conflict-file names
// that first-write-wins reconciliation would create if the batch loses. The
// conflict names are deterministic (path, pusher, version counter), so the
// full set is known before any lock is taken.
func (s *Server) lockSetFor(from uint32, b *wire.Batch) *batchLocks {
	seen := make(map[uint32]struct{}, len(b.Nodes)*2)
	add := func(path string) {
		if path == "" {
			return
		}
		seen[s.shardFor(path)] = struct{}{}
	}
	for _, n := range b.Nodes {
		add(n.Path)
		add(n.Dst)
		add(n.BasePath)
		if conflictEligible(n.Kind) {
			add(conflictName(n, from))
		}
	}
	bl := &batchLocks{s: s, idxs: make([]uint32, 0, len(seen))}
	for idx := range seen {
		bl.idxs = append(bl.idxs, idx)
	}
	sort.Slice(bl.idxs, func(i, j int) bool { return bl.idxs[i] < bl.idxs[j] })
	return bl
}

// lock acquires the set's shard locks in ascending index order (the
// deadlock-freedom rule for atomic batches spanning shards).
//
//deltavet:lockorder-helper
func (bl *batchLocks) lock() {
	for _, idx := range bl.idxs {
		bl.s.shards[idx].mu.Lock()
	}
}

// unlock releases in reverse order.
//
//deltavet:lockorder-helper
func (bl *batchLocks) unlock() {
	for i := len(bl.idxs) - 1; i >= 0; i-- {
		bl.s.shards[bl.idxs[i]].mu.Unlock()
	}
}

// OutboxDepthLimit bounds how many forwarded batches the server retains per
// client. A sharing client that never Polls (dead, wedged, or partitioned)
// otherwise grows server memory without limit; past the bound the oldest
// batches are dropped — safe because forwarding is an optimization: a client
// that missed a forward re-synchronizes the affected file via Head/Fetch on
// its next conflict or resync pass. It is a variable only so tests can
// exercise the bound cheaply.
var OutboxDepthLimit = 1024

// clientState is everything the server keeps per client: the forwarding
// outbox (outMu), and the idempotency state — reply cache plus the
// duplicate-apply audit trail — which only the client's own serialized
// pushes mutate (pushMu).
type clientState struct {
	// pushMu serializes keyed pushes from this client so the
	// dedup-check → apply → record sequence is atomic per (client, seq).
	// Real clients submit in order over one connection, so this is
	// uncontended in the fast path.
	pushMu      sync.Mutex
	dedup       *replyCache
	appliedSeqs map[uint64]int

	// registered reports whether the ID was minted by Register or bound by
	// Attach (and therefore receives forwarded batches); a bare pusher that
	// skipped registration gets idempotency state but no outbox.
	// Guarded by Server.clientMu.
	registered bool

	// group points at the client's sharing group (nil for a bare pusher
	// until its first push resolves the default group). Atomic so the push
	// hot path reads it without the registry lock.
	group atomic.Pointer[groupInfo]

	// outbox holds forwarded batches as shared, immutable EncodedBatch
	// values: every sharing peer's outbox (and the journal) points at the
	// same value, so fan-out to N peers is N pointer pushes — no per-peer
	// payload copy, and at most one payload encode batch-wide.
	outMu      sync.Mutex
	outbox     []*wire.EncodedBatch
	outDrops   int64 // forwarded batches evicted past OutboxDepthLimit
	outPeak    int   // high-water outbox depth
	outPending int   // current depth (mirrors len(outbox) for stats)
}

// enqueue appends a forwarded batch, evicting the oldest past the bound.
// It reports the resulting depth and how many batches were dropped.
func (cs *clientState) enqueue(b *wire.EncodedBatch) (depth int, dropped int64) {
	cs.outMu.Lock()
	defer cs.outMu.Unlock()
	cs.outbox = append(cs.outbox, b)
	if limit := OutboxDepthLimit; limit > 0 && len(cs.outbox) > limit {
		over := len(cs.outbox) - limit
		// Copy the tail forward so the backing array does not pin the
		// dropped batches alive.
		cs.outbox = append(cs.outbox[:0], cs.outbox[over:]...)
		cs.outDrops += int64(over)
		dropped = int64(over)
	}
	cs.outPending = len(cs.outbox)
	if cs.outPending > cs.outPeak {
		cs.outPeak = cs.outPending
	}
	return cs.outPending, dropped
}

// drain swaps the outbox out under the client's own lock — O(1) regardless
// of depth, so a polling client never blocks pushers for long.
func (cs *clientState) drain() []*wire.EncodedBatch {
	cs.outMu.Lock()
	out := cs.outbox
	cs.outbox = nil
	cs.outPending = 0
	cs.outMu.Unlock()
	return out
}

// lookupClient returns the client's state, or nil if the ID is unknown.
func (s *Server) lookupClient(id uint32) *clientState {
	s.clientMu.RLock()
	cs := s.clients[id]
	s.clientMu.RUnlock()
	return cs
}

// ensureClient returns the client's state, creating unregistered state on
// first use (a bare pusher gets idempotency tracking without an outbox).
func (s *Server) ensureClient(id uint32) *clientState {
	if cs := s.lookupClient(id); cs != nil {
		return cs
	}
	s.clientMu.Lock()
	defer s.clientMu.Unlock()
	cs := s.clients[id]
	if cs == nil {
		cs = newClientState()
		s.clients[id] = cs
	}
	return cs
}

func newClientState() *clientState {
	return &clientState{
		dedup:       &replyCache{replies: make(map[uint64]*wire.PushReply)},
		appliedSeqs: make(map[uint64]int),
	}
}

// clientSnapshot returns the registry's (id, state) pairs in ascending ID
// order, taken under the registry lock but used outside it (per the lock
// ordering rule, pushMu/outMu must not be acquired while clientMu is held).
func (s *Server) clientSnapshot() []clientRef {
	s.clientMu.RLock()
	out := make([]clientRef, 0, len(s.clients))
	for id, cs := range s.clients {
		out = append(out, clientRef{id: id, cs: cs})
	}
	s.clientMu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

type clientRef struct {
	id uint32
	cs *clientState
}

// lockAllShards takes every shard lock in ascending order (whole-server
// operations: Save, Files, Load).
//
//deltavet:lockorder-helper
func (s *Server) lockAllShards() {
	for _, sh := range s.shards {
		sh.mu.Lock()
	}
}

//deltavet:lockorder-helper
func (s *Server) unlockAllShards() {
	for i := len(s.shards) - 1; i >= 0; i-- {
		s.shards[i].mu.Unlock()
	}
}

// lockOne write-locks a single shard outside any batch — the entry point
// for seeding and single-path maintenance. A lone acquisition is trivially
// consistent with the ascending-order rule.
//
//deltavet:lockorder-helper
func (sh *fileShard) lockOne() { sh.mu.Lock() }

// unlockOne releases a lockOne acquisition.
//
//deltavet:lockorder-helper
func (sh *fileShard) unlockOne() { sh.mu.Unlock() }
