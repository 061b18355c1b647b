package server

import (
	"bufio"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"maps"
	"path/filepath"
	"slices"

	"repro/internal/block"
	"repro/internal/extent"
	"repro/internal/storagefault"
	"repro/internal/version"
	"repro/internal/wire"
)

// The paper leaves the server-side system design to future work (§VI),
// envisioning wimpy machines fronting large disks. This file provides the
// piece a deployable server minimally needs: durable state. Save serializes
// the full server state (files, versions, the bounded chunk store) and Load
// restores it, so cmd/deltacfs-server can persist across restarts with a
// snapshot-on-shutdown (plus periodic) policy. Client outboxes are volatile
// by design: a reconnecting client re-syncs via Head metadata.
//
// The snapshot format is shard-agnostic: shards are merged into the flat
// maps of snapshot v2 on Save and redistributed on Load, so snapshots move
// freely between servers with different shard counts (including the
// 1-shard oracle configuration).

// snapshotReplyCache is one client's serialized idempotency state. Seqs and
// Replies are parallel slices in FIFO insertion order.
type snapshotReplyCache struct {
	MaxSeq  uint64
	Seqs    []uint64
	Replies []*wire.PushReply
}

// snapshotState is the serialized form of the server's durable state.
type snapshotState struct {
	Version int
	Files   map[string][]byte
	Dirs    map[string]bool
	Vers    map[string]version.ID
	Chunks  map[block.Strong][]byte
	// ChunkFIFO preserves eviction order across restarts so clients that
	// also persisted their trackers stay in lockstep.
	ChunkFIFO []block.Strong
	Applied   []AppliedOp

	// Version 2 fields. NextClient keeps the ID space collision-free when
	// clients reattach after a restart; Dedup and AppliedSeqs carry the
	// idempotency state so a replay of a batch applied just before a crash
	// is still absorbed (and still audited) after recovery.
	NextClient  uint32
	Dedup       map[uint32]snapshotReplyCache
	AppliedSeqs map[uint32]map[uint64]int

	// Version 3 field: sharing-group membership (client ID → group ID) for
	// every registered client, so forwarding scope survives a restart.
	Groups map[uint32]uint32
}

const snapshotVersion = 3

// Save writes the server's durable state to w. The server is quiesced only
// while the state is captured, not while it is written: file bodies are
// immutable values, so the capture takes their tables and the flattening and
// encoding happen after every lock is released.
func (s *Server) Save(w io.Writer) error {
	state, files := s.capture()
	for p, f := range files {
		state.Files[p] = f.Bytes()
	}
	if err := gob.NewEncoder(w).Encode(state); err != nil {
		return fmt.Errorf("server: save: %w", err)
	}
	return nil
}

// capture takes a consistent cut of the durable state: per-client push locks
// in ascending client-ID order, then every shard lock (the same
// outermost-first order Push uses, so a snapshot can never deadlock with
// in-flight batches), then the chunk store. Everything a later push could
// change is copied out — tables and maps, never file contents — and the
// journal's snapshot boundary is captured under the same locks.
func (s *Server) capture() (*snapshotState, map[string]extent.File) {
	refs := s.clientSnapshot()
	for _, ref := range refs {
		ref.cs.pushMu.Lock()
	}
	defer func() {
		for i := len(refs) - 1; i >= 0; i-- {
			refs[i].cs.pushMu.Unlock()
		}
	}()
	s.lockAllShards()
	defer s.unlockAllShards()
	s.clientMu.RLock()
	nextClient := s.nextClient
	groups := make(map[uint32]uint32)
	for gid, gi := range s.groups {
		for id := range gi.members {
			groups[id] = gid
		}
	}
	s.clientMu.RUnlock()
	s.chunkMu.Lock()
	chunks := maps.Clone(s.chunks)
	chunkFIFO := slices.Clone(s.chunkFIFO)
	s.chunkMu.Unlock()
	state := &snapshotState{
		Version:     snapshotVersion,
		Files:       make(map[string][]byte),
		Dirs:        make(map[string]bool),
		Vers:        make(map[string]version.ID),
		Chunks:      chunks,
		ChunkFIFO:   chunkFIFO,
		Applied:     s.applied.snapshot(),
		NextClient:  nextClient,
		Dedup:       make(map[uint32]snapshotReplyCache, len(refs)),
		AppliedSeqs: make(map[uint32]map[uint64]int, len(refs)),
		Groups:      groups,
	}
	files := make(map[string]extent.File)
	for _, sh := range s.shards {
		for p, f := range sh.files {
			files[p] = f
			if v := sh.getVer(p); !v.IsZero() {
				state.Vers[p] = v
			}
		}
		for p := range sh.dirs {
			state.Dirs[p] = true
		}
	}
	for _, ref := range refs {
		rc := ref.cs.dedup
		if rc.maxSeq == 0 && len(rc.order) == 0 && len(ref.cs.appliedSeqs) == 0 {
			continue
		}
		src := snapshotReplyCache{MaxSeq: rc.maxSeq, Seqs: append([]uint64(nil), rc.order...)}
		for _, seq := range rc.order {
			src.Replies = append(src.Replies, rc.replies[seq])
		}
		state.Dedup[ref.id] = src
		if len(ref.cs.appliedSeqs) > 0 {
			state.AppliedSeqs[ref.id] = maps.Clone(ref.cs.appliedSeqs)
		}
	}
	// Every batch the cut holds has been journaled (Record runs under shard
	// locks before apply), and no batch can commit until the locks drop.
	// Capturing the journal boundary here means TruncateSnapshotted drops
	// exactly the entries the snapshot covers — nothing the snapshot missed.
	// The boundary is only committed durably by SaveFile once the snapshot
	// itself is atomically in place.
	if j := s.journal.Load(); j != nil {
		//deltavet:allow blockunderlock journal boundary must be captured while the snapshot quiesce set is held
		j.captureSnapshot()
	}
	return state, files
}

// Load restores state saved by Save into a fresh server. It must be called
// before any client registers.
func (s *Server) Load(r io.Reader) error {
	var state snapshotState
	if err := gob.NewDecoder(r).Decode(&state); err != nil {
		return fmt.Errorf("server: load: %w", err)
	}
	// Version 1 snapshots (pre idempotency) load fine: the dedup state
	// simply rebuilds empty, which is safe — at worst one ambiguous replay
	// from before the upgrade re-applies. Version 2 (pre sharing-group)
	// snapshots rebuild with no memberships; clients rejoin on Attach.
	if state.Version < 1 || state.Version > snapshotVersion {
		return fmt.Errorf("server: load: unsupported snapshot version %d", state.Version)
	}
	// Registration check first, on its own (clientMu is never held while
	// shard locks are acquired — the Push lock order). Load's contract is a
	// fresh, unshared server; the locks below are belt-and-suspenders.
	s.clientMu.Lock()
	if s.nextClient != 0 {
		s.clientMu.Unlock()
		return fmt.Errorf("server: load: clients already registered")
	}
	s.clientMu.Unlock()
	s.lockAllShards()

	for _, sh := range s.shards {
		sh.files = make(map[string]extent.File)
		sh.dirs = make(map[string]bool)
		sh.vers = make(map[string]version.ID)
		sh.history = make(map[string][]revision)
	}
	for p, c := range state.Files {
		s.shard(p).files[p] = extent.New(c, nil)
	}
	if state.Dirs != nil {
		for p := range state.Dirs {
			s.shard(p).dirs[p] = true
		}
	} else {
		s.shard(".").dirs["."] = true
	}
	for p, v := range state.Vers {
		s.shard(p).setVer(p, v)
	}
	s.unlockAllShards()

	var chunkBytes int64
	for _, d := range state.Chunks {
		chunkBytes += int64(len(d))
	}
	if state.Chunks == nil {
		state.Chunks = make(map[block.Strong][]byte)
	}
	s.chunkMu.Lock()
	s.chunks, s.chunkFIFO, s.chunkBytes = state.Chunks, state.ChunkFIFO, chunkBytes
	s.chunkMu.Unlock()

	s.applied.replace(state.Applied)

	s.clientMu.Lock()
	defer s.clientMu.Unlock()
	s.nextClient = state.NextClient
	for id, src := range state.Dedup {
		cs := s.clients[id]
		if cs == nil {
			cs = newClientState()
			s.clients[id] = cs
		}
		rc := &replyCache{
			maxSeq:  src.MaxSeq,
			replies: make(map[uint64]*wire.PushReply, len(src.Seqs)),
			order:   src.Seqs,
		}
		for i, seq := range src.Seqs {
			if i < len(src.Replies) {
				rc.replies[seq] = src.Replies[i]
			}
		}
		cs.dedup = rc
	}
	for id, seqs := range state.AppliedSeqs {
		cs := s.clients[id]
		if cs == nil {
			cs = newClientState()
			s.clients[id] = cs
		}
		if seqs != nil {
			cs.appliedSeqs = seqs
		}
	}
	// Restore sharing-group membership (v3). Members come back registered so
	// forwarding scope — and the sharing gate for conflict history — matches
	// the pre-restart state even before every client reattaches.
	for id, gid := range state.Groups {
		cs := s.clients[id]
		if cs == nil {
			cs = newClientState()
			s.clients[id] = cs
		}
		fresh := !cs.registered
		cs.registered = true
		s.joinGroupLocked(id, cs, gid, fresh)
	}
	return nil
}

// SaveFile writes the state to path atomically (write temp, fsync, rename,
// fsync the directory so the rename itself survives a crash). All IO goes
// through the server's storagefault.FS so crash-point harnesses can fork the
// disk at every step of the replace sequence.
func (s *Server) SaveFile(path string) error {
	tmp := path + ".tmp"
	f, err := storagefault.Create(s.fsys, tmp)
	if err != nil {
		return fmt.Errorf("server: save file: %w", err)
	}
	w := bufio.NewWriter(f)
	if err := s.Save(w); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := s.fsys.Rename(tmp, path); err != nil {
		return err
	}
	if err := syncDir(s.fsys, filepath.Dir(path)); err != nil {
		return err
	}
	// Only now — snapshot renamed and the rename made durable — may the
	// journal's snapshot boundary advance. Committing it any earlier lets a
	// crash (or a failed snapshot fsync) truncate acked entries whose
	// snapshot never landed.
	if j := s.journal.Load(); j != nil {
		j.commitSnapshot()
	}
	return nil
}

// syncDirHook, when non-nil, replaces the directory fsync. Crash-ordering
// tests intercept it to observe the rename -> dir-fsync sequence.
var syncDirHook func(dir string) error

// syncDir makes a completed rename in dir durable: until the parent
// directory's metadata is fsynced, a crash may forget the rename and
// resurrect the previous snapshot under the final name.
func syncDir(fsys storagefault.FS, dir string) error {
	if syncDirHook != nil {
		return syncDirHook(dir)
	}
	return fsys.SyncDir(dir)
}

// LoadFile restores state from path. A missing file is not an error (fresh
// server); the second return value reports whether state was loaded.
func (s *Server) LoadFile(path string) (bool, error) {
	f, err := storagefault.Open(s.fsys, path)
	if errors.Is(err, fs.ErrNotExist) {
		return false, nil
	}
	if err != nil {
		return false, fmt.Errorf("server: load file: %w", err)
	}
	defer f.Close()
	if err := s.Load(bufio.NewReader(f)); err != nil {
		return false, err
	}
	return true, nil
}
