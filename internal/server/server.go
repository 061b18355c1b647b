// Package server implements the cloud side of the sync protocol. Per the
// paper's design goal, it is deliberately thin: it stores files, applies the
// incremental data clients generate (write extents, rsync deltas, CDC chunk
// lists, whole files), enforces client-assigned version control with
// first-write-wins conflict reconciliation (§III-C), applies DeltaCFS's
// backindex batches transactionally (§III-E), and forwards applied updates
// to other clients sharing the files (§III-D).
//
// Server state is path-sharded (shard.go): batches touching disjoint files
// apply concurrently, read-only RPCs take shared locks, and per-client state
// (reply cache, outbox) lives under per-client locks. Everything else — the
// chunk store and the applied-op log — sits behind one leaf mutex each.
package server

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/block"
	"repro/internal/extent"
	"repro/internal/metrics"
	"repro/internal/storagefault"
	"repro/internal/version"
	"repro/internal/wire"
)

// HistoryDepth is how many recent versions of each file the server retains
// for conflict resolution ("servers keep recent versions of files, the
// incremental data can still be applied to the proper file to generate the
// conflict version"). History is only recorded while more than one client is
// registered — a single writer can never conflict with itself.
const HistoryDepth = 3

// revision is one retained file version. Its content shares pages with the
// live file and with the other revisions: retaining it retains a table.
type revision struct {
	ver     version.ID
	content extent.File
}

// ReplyCacheDepth bounds how many PushReplies the server retains per client
// for answering replayed batches. Replays older than the cache window are
// still detected (via the max-applied Seq) and acknowledged with an empty OK
// reply rather than re-applied.
const ReplyCacheDepth = 64

// replyCache is one client's idempotency state: the highest batch Seq the
// server has applied for the client, plus a bounded FIFO of recent replies so
// ambiguous retransmissions get the exact original answer back.
type replyCache struct {
	maxSeq  uint64
	replies map[uint64]*wire.PushReply
	order   []uint64
}

func (rc *replyCache) record(seq uint64, reply *wire.PushReply) {
	if seq > rc.maxSeq {
		rc.maxSeq = seq
	}
	rc.replies[seq] = reply
	rc.order = append(rc.order, seq)
	for len(rc.order) > ReplyCacheDepth {
		delete(rc.replies, rc.order[0])
		rc.order = rc.order[1:]
	}
}

// Server is the cloud store. All methods are safe for concurrent use.
type Server struct {
	// shards stripe the per-path state; immutable after New.
	shards    []*fileShard
	shardMask uint32

	// The content-addressed chunk store (Seafile/Dropbox dedup), bounded to
	// wire.ChunkStoreBudget bytes with global-FIFO eviction that clients
	// mirror insert-for-insert (baseline.ChunkTracker). chunkMu guards the
	// residency map, the FIFO (insertion order) and the resident byte count.
	chunkMu    sync.Mutex
	chunks     map[block.Strong][]byte
	chunkFIFO  []block.Strong
	chunkBytes int64

	// clients is the per-client state registry; groups indexes the sharing
	// groups (forwarding scope) by group ID. Both are guarded by clientMu.
	clientMu   sync.RWMutex
	clients    map[uint32]*clientState
	groups     map[uint32]*groupInfo
	nextClient uint32

	// applied records the order in which operations were committed, for
	// the upload-ordering experiment (Table IV) and the snapshot.
	applied appliedLog

	// journal, when set, is the durable push WAL: every batch is recorded
	// before it is applied, under the batch's shard locks, so a replay
	// after a crash re-applies in commit order (journal.go).
	journal atomic.Pointer[Journal]

	// degraded, when set, is the read-only mode reason: the journal could
	// not make a batch durable (poisoned WAL, ENOSPC), so writes are
	// refused with a typed wire error while reads keep serving. Cleared
	// only by ClearDegraded (an operator action after fixing storage).
	degraded atomic.Pointer[string]

	// fsys is the file-IO layer SaveFile/LoadFile write through
	// (storagefault.OS when Options.FS is nil).
	fsys storagefault.FS

	meter     *metrics.CPUMeter
	syncMeter atomic.Pointer[metrics.SyncMeter]
}

// groupInfo is one sharing group: the registered members that receive each
// other's forwarded batches. size is read lock-free on the push hot path
// (the sharing gate); members is guarded by Server.clientMu.
type groupInfo struct {
	size    atomic.Int32
	members map[uint32]*clientState
}

// AppliedOp is one committed operation in server order.
type AppliedOp struct {
	Kind wire.NodeKind
	Path string
}

// appliedLog is the applied-op log: every committed operation, in commit
// order. A transaction appends its ops while it still holds its batch's
// shard locks, so two batches touching the same path appear in the order
// they committed, and one batch's ops stay adjacent.
type appliedLog struct {
	mu  sync.Mutex
	ops []AppliedOp
}

func (l *appliedLog) append(ops []AppliedOp) {
	l.mu.Lock()
	l.ops = append(l.ops, ops...)
	l.mu.Unlock()
}

func (l *appliedLog) snapshot() []AppliedOp {
	l.mu.Lock()
	defer l.mu.Unlock()
	return slices.Clone(l.ops)
}

// replace resets the log to exactly ops (snapshot restore).
func (l *appliedLog) replace(ops []AppliedOp) {
	l.mu.Lock()
	l.ops = ops
	l.mu.Unlock()
}

// Options configures a server.
type Options struct {
	// FS is the file-IO layer snapshots (SaveFile/LoadFile) write
	// through. nil means the real file system; the crash-point harness
	// substitutes a storagefault.SimDisk or Injector.
	FS storagefault.FS
}

// New returns an empty server, charging CPU work to meter (may be nil).
func New(meter *metrics.CPUMeter) *Server {
	return NewWithOptions(meter, Options{})
}

// NewWithOptions is New with an explicit snapshot file-IO layer.
func NewWithOptions(meter *metrics.CPUMeter, o Options) *Server {
	return newServer(meter, o.FS, DefaultShards)
}

// newServer returns an empty server with the given file-state shard count,
// rounded up to a power of two (minimum 1). A 1-shard server serializes
// every batch on a single lock: the global-lock oracle the property tests
// compare the sharded server against.
func newServer(meter *metrics.CPUMeter, fsys storagefault.FS, shards int) *Server {
	n := 1
	for n < shards {
		n <<= 1
	}
	if fsys == nil {
		fsys = storagefault.OS
	}
	s := &Server{
		shards:    make([]*fileShard, n),
		shardMask: uint32(n - 1),
		chunks:    make(map[block.Strong][]byte),
		clients:   make(map[uint32]*clientState),
		groups:    make(map[uint32]*groupInfo),
		fsys:      fsys,
		meter:     meter,
	}
	for i := range s.shards {
		s.shards[i] = newFileShard()
	}
	s.shard(".").dirs["."] = true
	return s
}

// enterDegraded switches the server into read-only degraded mode. The first
// reason wins; later failures while already degraded are redundant.
func (s *Server) enterDegraded(reason string) {
	s.degraded.CompareAndSwap(nil, &reason)
}

// Degraded returns the read-only mode reason ("" when healthy).
func (s *Server) Degraded() string {
	if r := s.degraded.Load(); r != nil {
		return *r
	}
	return ""
}

// ClearDegraded re-enables writes. Call only after the storage fault is
// actually fixed (journal reopened on healthy storage): clearing it over a
// still-poisoned journal just degrades again on the next push.
func (s *Server) ClearDegraded() { s.degraded.Store(nil) }

// SetSyncMeter wires a fault-tolerance meter (may be nil) that counts
// reply-cache dedup hits and outbox drops.
func (s *Server) SetSyncMeter(m *metrics.SyncMeter) {
	s.syncMeter.Store(m)
}

// syncM returns the wired SyncMeter (nil-safe: all its methods accept nil).
func (s *Server) syncM() *metrics.SyncMeter { return s.syncMeter.Load() }

// Meter returns the server's CPU meter.
func (s *Server) Meter() *metrics.CPUMeter { return s.meter }

// Register assigns a new client ID in the default sharing group (group 0 —
// the historical "everyone shares with everyone" namespace) and creates its
// forwarding outbox.
func (s *Server) Register() uint32 { return s.RegisterGroup(0) }

// RegisterGroup assigns a new client ID in the given sharing group. Batches
// are forwarded only to other registered members of the pusher's group, and
// conflict history is retained only while a group has more than one member —
// the multi-tenant scope that keeps forwarding O(group) instead of
// O(all clients) when thousands of unrelated tenants share one server.
func (s *Server) RegisterGroup(group uint32) uint32 {
	s.clientMu.Lock()
	s.nextClient++
	id := s.nextClient
	cs := s.clients[id]
	if cs == nil {
		cs = newClientState()
		s.clients[id] = cs
	}
	fresh := !cs.registered
	cs.registered = true
	s.joinGroupLocked(id, cs, group, fresh)
	s.clientMu.Unlock()
	return id
}

// joinGroupLocked binds cs to its sharing group's registry. The caller holds
// clientMu.
func (s *Server) joinGroupLocked(id uint32, cs *clientState, group uint32, fresh bool) {
	gi := s.groups[group]
	if gi == nil {
		gi = &groupInfo{members: make(map[uint32]*clientState)}
		s.groups[group] = gi
	}
	gi.members[id] = cs
	cs.group.Store(gi)
	if fresh {
		gi.size.Add(1)
	}
}

// Attach re-binds a reconnecting transport to an existing client ID: the
// outbox (and any idempotency state) survives, and the ID space stays
// collision-free even if the ID was minted before a server restart. A fresh
// ID (minted before a restart the server forgot) lands in the default group.
func (s *Server) Attach(client uint32) {
	if client == 0 {
		return
	}
	s.clientMu.Lock()
	if client > s.nextClient {
		s.nextClient = client
	}
	cs := s.clients[client]
	if cs == nil {
		cs = newClientState()
		s.clients[client] = cs
	}
	fresh := !cs.registered
	cs.registered = true
	group := uint32(0)
	if gi := cs.group.Load(); gi != nil && !fresh {
		// Already a member; nothing to rebind.
		s.clientMu.Unlock()
		return
	}
	s.joinGroupLocked(client, cs, group, fresh)
	s.clientMu.Unlock()
}

// SeedFile installs initial content outside the measured run (both sides of
// an experiment start from identical state). No version is assigned: the
// file starts at the zero version, matching clients that seed the same way.
func (s *Server) SeedFile(path string, content []byte) {
	f := extent.New(content, nil)
	sh := s.shard(path)
	sh.lockOne()
	sh.files[path] = f
	sh.unlockOne()
}

// SeedChunk installs a content-addressed chunk in the server's chunk store
// outside the measured run (matching a client primed to treat the chunk as
// server-known).
func (s *Server) SeedChunk(h block.Strong, data []byte) {
	s.storeChunk(h, append([]byte(nil), data...))
}

// storeChunk inserts a chunk, evicting global-FIFO past the budget.
// Re-inserting a resident chunk is a no-op (matching the client-side
// tracker). The FIFO — the order the client tracker replays — is the order
// the inserts took chunkMu in.
func (s *Server) storeChunk(h block.Strong, data []byte) {
	s.chunkMu.Lock()
	defer s.chunkMu.Unlock()
	if _, resident := s.chunks[h]; resident {
		return
	}
	s.chunks[h] = data
	s.chunkFIFO = append(s.chunkFIFO, h)
	s.chunkBytes += int64(len(data))
	for s.chunkBytes > wire.ChunkStoreBudget && len(s.chunkFIFO) > 0 {
		old := s.chunkFIFO[0]
		s.chunkFIFO = s.chunkFIFO[1:]
		s.chunkBytes -= int64(len(s.chunks[old]))
		delete(s.chunks, old)
	}
}

// chunk returns a copy-free reference to a resident chunk. The slice stays
// valid after chunkMu is released even if the chunk is then evicted:
// eviction drops the map entry, not the backing array.
func (s *Server) chunk(h block.Strong) ([]byte, bool) {
	s.chunkMu.Lock()
	d, ok := s.chunks[h]
	s.chunkMu.Unlock()
	return d, ok
}

// body returns path's current content and version. The value is immutable,
// so readers take it under the shard's read lock and copy out of it after
// releasing the lock: a reader of a big file never holds up a push.
func (s *Server) body(path string) (extent.File, version.ID, bool) {
	sh := s.shard(path)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	f, ok := sh.files[path]
	return f, sh.getVer(path), ok
}

// FileContent returns a copy of the file's current content.
func (s *Server) FileContent(path string) ([]byte, bool) {
	f, _, ok := s.body(path)
	if !ok {
		return nil, false
	}
	return f.Bytes(), true
}

// Files returns the stored paths in sorted order. Shard count and map
// iteration must not leak into the result: callers (snapshots, test
// oracles) compare these listings across configurations.
func (s *Server) Files() []string {
	var out []string
	for _, sh := range s.shards {
		sh.mu.RLock()
		for p := range sh.files {
			out = append(out, p)
		}
		sh.mu.RUnlock()
	}
	sort.Strings(out)
	return out
}

// Dirs returns the stored directory paths in sorted order.
func (s *Server) Dirs() []string {
	var out []string
	for _, sh := range s.shards {
		sh.mu.RLock()
		for p := range sh.dirs {
			out = append(out, p)
		}
		sh.mu.RUnlock()
	}
	sort.Strings(out)
	return out
}

// AppliedLog returns the order in which operations were committed.
func (s *Server) AppliedLog() []AppliedOp {
	return s.applied.snapshot()
}

// Head returns path's current version and existence — the metadata lookup
// clients use to (re)synchronize their version maps after a restart.
func (s *Server) Head(path string) (version.ID, bool) {
	sh := s.shard(path)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	_, ok := sh.files[path]
	return sh.getVer(path), ok
}

// Version returns the current version of path.
func (s *Server) Version(path string) version.ID {
	sh := s.shard(path)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.getVer(path)
}

// Fetch returns a file's content and version.
func (s *Server) Fetch(path string) *wire.FetchReply {
	s.meter.RPC(1)
	f, ver, ok := s.body(path)
	if !ok {
		return &wire.FetchReply{}
	}
	out := f.Bytes()
	s.meter.Copy(int64(len(out)))
	s.meter.Net(int64(len(out)))
	return &wire.FetchReply{Content: out, Ver: ver, Exists: true}
}

// FetchRange returns part of a file (clipped at EOF).
func (s *Server) FetchRange(path string, off, n int64) ([]byte, error) {
	s.meter.RPC(1)
	f, _, ok := s.body(path)
	if !ok {
		return nil, fmt.Errorf("server: fetch range: %s does not exist", path)
	}
	if off < 0 || n < 0 {
		return nil, fmt.Errorf("server: fetch range: negative range")
	}
	if off >= f.Size() {
		return nil, nil
	}
	out := make([]byte, min(n, f.Size()-off))
	f.ReadAt(out, off)
	s.meter.Copy(int64(len(out)))
	s.meter.Net(int64(len(out)))
	return out, nil
}

// Poll drains the forwarding outbox of the given client. The drain is an
// O(1) slice swap under the client's own lock, so polling never contends
// with pushes beyond that single pointer exchange.
func (s *Server) Poll(client uint32) []*wire.Batch {
	ebs := s.PollEncoded(client)
	if ebs == nil {
		return nil
	}
	out := make([]*wire.Batch, len(ebs))
	for i, eb := range ebs {
		out[i] = eb.Batch()
	}
	return out
}

// PollEncoded drains the client's outbox in encoded form: the transport
// splices each batch's already-encoded payload into a binary poll response
// verbatim, so delivering one push to N pollers costs at most one encode
// total, not N.
func (s *Server) PollEncoded(client uint32) []*wire.EncodedBatch {
	cs := s.lookupClient(client)
	if cs == nil {
		return nil
	}
	out := cs.drain()
	for _, eb := range out {
		s.meter.Net(eb.Batch().WireSize())
	}
	return out
}

// OutboxStats reports forwarding-outbox pressure aggregated over clients.
type OutboxStats struct {
	// Depth is the current total of undelivered forwarded batches.
	Depth int
	// Peak is the highest per-client depth observed.
	Peak int
	// Drops counts forwarded batches evicted past OutboxDepthLimit.
	Drops int64
}

// OutboxStats returns the current forwarding-outbox pressure.
func (s *Server) OutboxStats() OutboxStats {
	var st OutboxStats
	for _, ref := range s.clientSnapshot() {
		ref.cs.outMu.Lock()
		st.Depth += ref.cs.outPending
		if ref.cs.outPeak > st.Peak {
			st.Peak = ref.cs.outPeak
		}
		st.Drops += ref.cs.outDrops
		ref.cs.outMu.Unlock()
	}
	return st
}

// Push applies a batch from the given client. Atomic batches are applied
// all-or-nothing. On a version conflict, first-write-wins: the server's
// current content stays the latest version and the incoming update is
// materialized as a conflict file (for every file the batch touches, per
// §III-E's atomic-group conflict rule).
//
// Concurrency: the batch's shard lock set is computed up front and taken in
// ascending order; batches on disjoint shards run in parallel. A keyed batch
// additionally holds its client's pushMu across check→apply→record so a
// racing replay of the same Seq can never double-apply.
func (s *Server) Push(from uint32, b *wire.Batch) *wire.PushReply {
	return s.PushEncoded(from, wire.NewEncodedBatch(b))
}

// PushEncoded is Push for batches that travel with their binary wire
// payload: the journal appends eb's exact bytes and the forwarding fan-out
// enqueues eb itself into every sharing peer's outbox, so one accepted
// batch is encoded at most once end to end (zero times when it arrived
// over the binary transport).
func (s *Server) PushEncoded(from uint32, eb *wire.EncodedBatch) *wire.PushReply {
	b := eb.Batch()
	s.meter.RPC(1)
	s.meter.Net(b.WireSize())

	// Trust boundary: everything in b is attacker-controlled until it
	// passes shape validation. Reject before touching dedup state or any
	// shard — a malformed batch must leave no trace.
	if err := b.Validate(); err != nil {
		statuses := make([]wire.ApplyStatus, len(b.Nodes))
		for i := range statuses {
			statuses[i] = wire.StatusError
		}
		return &wire.PushReply{Statuses: statuses, Err: err.Error()}
	}

	// Read-only degraded mode: the journal can no longer make batches
	// durable, so accepting this push would hand out an ack the next
	// crash breaks. Refuse with the typed marker ResilientClient
	// classifies as retryable-after-backoff; reads are unaffected.
	if reason := s.Degraded(); reason != "" {
		s.syncM().DegradedReject()
		statuses := make([]wire.ApplyStatus, len(b.Nodes))
		for i := range statuses {
			statuses[i] = wire.StatusError
		}
		return &wire.PushReply{Statuses: statuses, Err: wire.DegradedMsg(reason)}
	}

	cs := s.ensureClient(from)

	// Idempotency: a keyed batch at or below the highest Seq applied for
	// this client is a replay of an ambiguous push — answer it from the
	// reply cache (or with an empty OK for replays past the cache window)
	// without re-applying or re-forwarding.
	if b.Seq != 0 {
		cs.pushMu.Lock()
		defer cs.pushMu.Unlock()
		if b.Seq <= cs.dedup.maxSeq {
			s.syncM().DedupHit()
			if cached, ok := cs.dedup.replies[b.Seq]; ok {
				return cached
			}
			return &wire.PushReply{Statuses: make([]wire.ApplyStatus, len(b.Nodes))}
		}
	}

	reply := &wire.PushReply{Statuses: make([]wire.ApplyStatus, len(b.Nodes))}

	// The sharing gate — forwarding and conflict-history retention — is
	// scoped to the pusher's sharing group: a lock-free size read, so ten
	// thousand single-tenant clients never pay for each other's pushes.
	gi := cs.group.Load()
	if gi == nil {
		gi = s.defaultGroup(cs)
	}
	share := gi != nil && gi.size.Load() > 1

	locks := s.lockSetFor(from, b)
	locks.lock()

	// Durability: record the batch in the push journal (when wired) while
	// holding the batch's shard locks and before applying — WAL discipline;
	// replay re-applies journaled batches in exactly this commit order.
	if j := s.journal.Load(); j != nil {
		//deltavet:allow blockunderlock WAL-before-apply: the journal append must happen inside the batch's lock scope so replay order is commit order; the fsync is group-committed
		if err := j.Record(from, eb); err != nil {
			locks.unlock()
			// A journal that cannot append is a storage failure (poisoned
			// WAL after a failed fsync, ENOSPC), and per fsyncgate it will
			// not heal by retrying: enter read-only degraded mode so every
			// refusal from here on is honest and typed. The batch was NOT
			// applied — the client keeps it buffered and retries after the
			// operator repairs storage.
			reason := fmt.Sprintf("journal: %v", err)
			s.enterDegraded(reason)
			s.syncM().DegradedReject()
			for i := range reply.Statuses {
				reply.Statuses[i] = wire.StatusError
			}
			reply.Err = wire.DegradedMsg(reason)
			return reply
		}
	}

	if b.Atomic {
		s.pushAtomic(from, b, reply, share)
	} else {
		for i, n := range b.Nodes {
			s.applyOne(from, n, i, reply, share)
		}
	}

	// Forward the batch to every other registered member of the pusher's
	// sharing group (§III-D: "when the cloud receives data from a client,
	// besides storing the data it also forwards the data to other shared
	// clients"). Forwarding happens while the shard locks are still held so
	// two batches racing on the same file land in every outbox in their
	// commit order.
	if share {
		dropped, peak := s.forward(from, gi, eb)
		// Backpressure: tell the pusher when a peer's outbox is at its
		// bound (evicting, or one more forward away from it) instead of
		// dropping forwards silently. The push itself still succeeded.
		if dropped > 0 || (OutboxDepthLimit > 0 && peak >= OutboxDepthLimit) {
			reply.Throttled = true
			s.syncM().OutboxThrottle()
		}
	}

	locks.unlock()

	if b.Seq != 0 {
		cs.appliedSeqs[b.Seq]++
		cs.dedup.record(b.Seq, reply)
	}
	return reply
}

// defaultGroup resolves the default sharing group for a client that pushed
// without registering (bare pushers get idempotency state but no explicit
// group). The lookup is cached on the client state so subsequent pushes
// skip the registry lock.
func (s *Server) defaultGroup(cs *clientState) *groupInfo {
	s.clientMu.RLock()
	gi := s.groups[0]
	s.clientMu.RUnlock()
	if gi != nil {
		cs.group.Store(gi)
	}
	return gi
}

// forward appends eb to the outbox of every other registered member of the
// pusher's sharing group, reporting how many batches the enqueues evicted
// and the deepest outbox seen. All outboxes share the one immutable
// EncodedBatch — fan-out is O(peers) pointer pushes with no payload copy.
// The caller holds the batch's shard locks; the registry read-lock is
// released before any outbox lock is taken (lock ordering rule 3).
func (s *Server) forward(from uint32, gi *groupInfo, eb *wire.EncodedBatch) (int64, int) {
	type fwdTarget struct {
		id uint32
		cs *clientState
	}
	s.clientMu.RLock()
	targets := make([]fwdTarget, 0, len(gi.members))
	for id, cs := range gi.members {
		if id != from && cs.registered {
			targets = append(targets, fwdTarget{id, cs})
		}
	}
	s.clientMu.RUnlock()
	// Enqueue in client-id order so outbox contents are identical across
	// runs regardless of registry map iteration.
	sort.Slice(targets, func(i, j int) bool { return targets[i].id < targets[j].id })
	sm := s.syncM()
	var dropped int64
	var peak int
	for _, t := range targets {
		depth, d := t.cs.enqueue(eb)
		dropped += d
		if depth > peak {
			peak = depth
		}
	}
	sm.OutboxDepth(int64(peak))
	if dropped > 0 {
		sm.OutboxDrop(dropped)
	}
	return dropped, peak
}

// DuplicateApplies returns how many keyed batches were applied more than
// once — the duplicate-apply tripwire chaos tests assert stays zero. The
// count is maintained independently of the dedup logic it checks.
func (s *Server) DuplicateApplies() int {
	dups := 0
	for _, ref := range s.clientSnapshot() {
		ref.cs.pushMu.Lock()
		for _, n := range ref.cs.appliedSeqs {
			if n > 1 {
				dups += n - 1
			}
		}
		ref.cs.pushMu.Unlock()
	}
	return dups
}

// applyOne applies a single (non-atomic) node. The caller holds the batch's
// shard locks.
func (s *Server) applyOne(from uint32, n *wire.Node, i int, reply *wire.PushReply, share bool) {
	tx := newTxn(s, share)
	err := s.applyNode(tx, n)
	switch {
	case errors.Is(err, errConflict):
		tx.rollback()
		reply.Statuses[i] = wire.StatusConflict
		reply.Conflicts = append(reply.Conflicts, s.materializeConflict(from, []*wire.Node{n})...)
	case err != nil:
		tx.rollback()
		reply.Statuses[i] = wire.StatusError
		reply.Err = err.Error()
	default:
		tx.commit()
		reply.Statuses[i] = wire.StatusOK
	}
}

// pushAtomic applies all nodes or none. If any node conflicts, the whole
// group becomes a conflict (§III-E): none of it is applied to the live tree
// and every content-bearing file in the group gets a conflict copy. Version
// checks run during application, so bases chaining within the batch (node
// k's base is node k-1's version) resolve correctly.
func (s *Server) pushAtomic(from uint32, b *wire.Batch, reply *wire.PushReply, share bool) {
	tx := newTxn(s, share)
	for i, n := range b.Nodes {
		err := s.applyNode(tx, n)
		if err == nil {
			continue
		}
		tx.rollback()
		if errors.Is(err, errConflict) {
			for j := range b.Nodes {
				reply.Statuses[j] = wire.StatusConflict
			}
			reply.Conflicts = append(reply.Conflicts, s.materializeConflict(from, b.Nodes)...)
			return
		}
		for j := range b.Nodes {
			reply.Statuses[j] = wire.StatusError
		}
		reply.Err = fmt.Sprintf("node %d (%s %s): %v", i, n.Kind, n.Path, err)
		return
	}
	tx.commit()
	for j := range b.Nodes {
		reply.Statuses[j] = wire.StatusOK
	}
}
