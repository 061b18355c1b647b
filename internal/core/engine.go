// Package core implements the DeltaCFS client engine — the paper's primary
// contribution. The engine sits in the file-operation path (the FUSE
// position: it implements vfs.FS over a backing store) and adaptively
// combines two incremental sync mechanisms:
//
//   - NFS-like file RPC (default): intercepted write payloads are the
//     incremental data; they batch into Sync Queue write nodes and upload
//     after a short delay.
//   - Delta encoding (triggered): when the relation table identifies a
//     transactional update — or when an in-place update has rewritten more
//     than half the file — a local rsync (bitwise comparison, no strong
//     checksums) runs between the file's preserved old version and its new
//     content, and the resulting delta replaces the buffered raw writes.
//
// Around this core the engine provides the paper's §III-C/§III-E machinery:
// client-assigned versions, block-checksum integrity with crash scanning,
// causally-consistent upload via backindex batches, and application of
// updates forwarded from other clients.
package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/block"
	"repro/internal/clock"
	"repro/internal/integrity"
	"repro/internal/kvstore"
	"repro/internal/metrics"
	"repro/internal/relation"
	"repro/internal/rsync"
	"repro/internal/syncqueue"
	"repro/internal/undolog"
	"repro/internal/version"
	"repro/internal/vfs"
	"repro/internal/wire"
)

// TrashDir is where unlinked files are preserved until their relation
// entries expire (§III-A: "we move it into a dedicated folder temporarily").
const TrashDir = ".deltacfs/trash"

// Config configures an Engine.
type Config struct {
	// Backing is the local file system beneath the interception layer.
	Backing vfs.FS
	// Endpoint is the cloud connection.
	Endpoint wire.Endpoint
	// Clock is the logical clock shared with the trace replayer.
	Clock *clock.Clock
	// Meter accounts client CPU work (may be nil).
	Meter *metrics.CPUMeter
	// KV persists block checksums and the dirty-file set. If nil, a
	// memory-only store is used.
	KV *kvstore.Store
	// UploadDelay is the Sync Queue delay (default 3 s).
	UploadDelay time.Duration
	// RelationTimeout is the relation-table entry expiry (default 2 s).
	RelationTimeout time.Duration
	// Checksums enables the integrity layer (DeltaCFSc in Table III).
	Checksums bool
	// BlockSize is the local-rsync block size (default 4 KB).
	BlockSize int
	// InPlaceThreshold is the fraction of a file an in-place update must
	// rewrite before delta encoding is attempted on it (default 0.5).
	InPlaceThreshold float64
	// DisableDelta turns off every delta-encoding trigger (relation table
	// and in-place), leaving pure NFS-like file RPC. Ablation knob: it
	// quantifies what the adaptive combination buys over interception
	// alone.
	DisableDelta bool
	// QueueHighWater bounds the unsent-batch buffer retained across push
	// failures (default DefaultQueueHighWater); reaching it marks the
	// engine Offline.
	QueueHighWater int64
	// SyncMeter counts fault-tolerance events — degraded time here; retries
	// and reconnects when the same meter is shared with a ResilientClient
	// (may be nil).
	SyncMeter *metrics.SyncMeter
}

// Stats counts engine activity.
type Stats struct {
	DeltaTriggers   int // relation-table-triggered delta encodings
	InPlaceDeltas   int // >50% in-place updates compressed by local rsync
	UploadedBatches int
	UploadedNodes   int
	Conflicts       int // server-reported conflicts on our pushes
	RemoteApplied   int // forwarded nodes applied locally
	RemoteConflicts int // forwarded updates that conflicted locally
	Corruptions     int // corrupted blocks detected on read
	Recovered       int // files recovered from the cloud
	KVErrors        int // failed advisory KV writes (dirty-set, checksum bookkeeping)
}

// pendingBase is a deferred delta base: where the old version is preserved
// locally and which version the cloud still holds.
type pendingBase struct {
	basePath string
	baseVer  version.ID
}

// Engine is the DeltaCFS client. It implements vfs.FS (the interception
// surface applications write through) and trace.Target. Public methods are
// safe for concurrent use: a mutex serializes the bookkeeping fast path,
// like the FUSE dispatch loop, while triggered delta encodings run on a
// bounded worker pool outside the lock and are joined back in at the next
// operation on a name they pin (or before any upload).
type Engine struct {
	// mu serializes the bookkeeping loop itself — the engine's equivalent
	// of a FUSE dispatch thread — so RPCs and KV writes intentionally run
	// under it; it is a scheduling lock, not a data lock.
	//deltavet:allow blockunderlock serial engine loop blocks by design
	mu      sync.Mutex
	cfg     Config
	backing vfs.FS
	ep      wire.Endpoint
	clk     *clock.Clock
	meter   *metrics.CPUMeter
	pool    *deltaPool

	q       *syncqueue.Queue
	rel     *relation.Table
	undo    *undolog.Log
	integ   *integrity.Store
	kv      *kvstore.Store
	counter *version.Counter
	vers    *version.Map

	// pendingDelta maps a path being rewritten (after unlink/create-over)
	// to its preserved old version; resolved at pack time.
	pendingDelta map[string]pendingBase
	// trashVer remembers the cloud-visible version a file had when it was
	// unlinked into the trash, so a triggered delta can chain onto it.
	trashVer      map[string]version.ID
	trashSeq      int
	stateDirReady bool

	lastPoll    time.Duration
	lastPushErr error

	// Fault-tolerance state (health.go). unsent holds converted batches
	// whose push failed, oldest first; batchSeq is the idempotency-key
	// counter — durable client state like the version counter, NOT reset by
	// DropVolatileState (a replayed key must never alias a new batch).
	unsent      []*wire.Batch
	unsentBytes int64
	batchSeq    uint64
	consecFails int
	lastTickAt  time.Duration
	syncMeter   *metrics.SyncMeter

	stats         Stats
	lastKVErr     error
	conflictFiles []string

	clientID uint32
}

// New builds an engine and registers it with the cloud.
func New(cfg Config) (*Engine, error) {
	if cfg.Backing == nil || cfg.Endpoint == nil || cfg.Clock == nil {
		return nil, errors.New("core: Backing, Endpoint and Clock are required")
	}
	if cfg.UploadDelay <= 0 {
		cfg.UploadDelay = syncqueue.DefaultDelay
	}
	if cfg.RelationTimeout <= 0 {
		cfg.RelationTimeout = relation.DefaultTimeout
	}
	if cfg.BlockSize <= 0 {
		cfg.BlockSize = block.DefaultBlockSize
	}
	if cfg.InPlaceThreshold <= 0 {
		cfg.InPlaceThreshold = 0.5
	}
	if cfg.QueueHighWater <= 0 {
		cfg.QueueHighWater = DefaultQueueHighWater
	}
	kv := cfg.KV
	if kv == nil {
		var err error
		kv, err = kvstore.Open("")
		if err != nil {
			return nil, err
		}
	}
	id, err := cfg.Endpoint.Register()
	if err != nil {
		return nil, fmt.Errorf("core: register: %w", err)
	}
	e := &Engine{
		cfg:          cfg,
		backing:      cfg.Backing,
		ep:           cfg.Endpoint,
		clk:          cfg.Clock,
		meter:        cfg.Meter,
		q:            syncqueue.New(cfg.UploadDelay),
		rel:          relation.New(cfg.RelationTimeout),
		undo:         undolog.New(cfg.Meter),
		integ:        integrity.New(kv, cfg.Meter),
		kv:           kv,
		counter:      version.NewCounter(id),
		vers:         version.NewMap(),
		pendingDelta: make(map[string]pendingBase),
		trashVer:     make(map[string]version.ID),
		pool:         newDeltaPool(),
		clientID:     id,
		syncMeter:    cfg.SyncMeter,
	}
	return e, nil
}

// ClientID returns the server-assigned client ID.
func (e *Engine) ClientID() uint32 { return e.clientID }

// Stats returns a snapshot of engine counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// ConflictFiles returns conflict-file paths reported by the server or
// created locally for conflicting forwarded updates.
func (e *Engine) ConflictFiles() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]string(nil), e.conflictFiles...)
}

// QueueLen returns the number of nodes awaiting upload (for tests).
func (e *Engine) QueueLen() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.q.Len()
}

// QueueBufferedBytes returns the payload bytes awaiting upload.
func (e *Engine) QueueBufferedBytes() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.q.BufferedBytes()
}

// FS implements trace.Target: applications issue operations through the
// engine itself.
func (e *Engine) FS() vfs.FS { return e }

// ---- vfs.FS implementation (the interception path) ----

// readRange adapts the backing store for the undo log.
func (e *Engine) readRange(path string) func(off, n int64) ([]byte, error) {
	return func(off, n int64) ([]byte, error) {
		data, err := e.backing.ReadAt(path, off, n)
		e.meter.DiskIO(int64(len(data)))
		return data, err
	}
}

// readBlock adapts the backing store for the integrity store.
func (e *Engine) readBlock(path string) func(b int64) ([]byte, error) {
	return func(b int64) ([]byte, error) {
		data, err := e.backing.ReadAt(path, b*integrity.BlockSize, integrity.BlockSize)
		e.meter.DiskIO(int64(len(data)))
		return data, err
	}
}

// ensureTracked begins undo logging for path at its current (pre-update)
// size, on the first modification since the last sync point.
func (e *Engine) ensureTracked(path string) {
	if e.undo.Tracking(path) {
		return
	}
	st, err := e.backing.Stat(path)
	if err != nil {
		e.undo.Track(path, 0)
		return
	}
	e.undo.Track(path, st.Size)
}

// markDirty persists path into the recently-modified set used by the
// post-crash integrity scan.
func (e *Engine) markDirty(path string) {
	e.noteKVErr(e.kv.Put([]byte("dirty/"+path), nil))
}

func (e *Engine) clearDirty(path string) {
	e.noteKVErr(e.kv.Delete([]byte("dirty/" + path)))
}

// noteKVErr records a failed advisory KV or checksum-store write. These
// writes are best-effort by design — a stale dirty-set only makes the
// post-crash scan do more work, never less — but failures must surface in
// Stats instead of vanishing at the call site.
func (e *Engine) noteKVErr(err error) {
	if err != nil {
		e.stats.KVErrors++
		e.lastKVErr = err
	}
}

// LastKVError returns the most recent advisory-write failure (nil if none).
func (e *Engine) LastKVError() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.lastKVErr
}

// stamp assigns base and new versions for a node modifying path.
func (e *Engine) stamp(n *syncqueue.Node, path string) {
	n.Base = e.vers.Get(path)
	n.Ver = e.counter.Next()
	e.vers.Set(path, n.Ver)
}

// Create implements vfs.FS. A create over an existing file truncates it, so
// the old content is preserved via the undo log; if the name matches a
// relation entry (the unlink-then-rewrite pattern), the preserved old
// version becomes the pending delta base.
func (e *Engine) Create(path string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.pool.joinPath(path)
	e.meter.FSOp(1)
	if ent, ok := e.rel.Lookup(path, e.clk.Now()); ok && ent.FromUnlink && !e.cfg.DisableDelta {
		// Transactional update identified at re-creation (Table I trigger
		// 1). The delta runs at pack time, against the preserved file.
		e.pendingDelta[path] = pendingBase{basePath: ent.Dst, baseVer: e.trashVer[ent.Dst]}
		delete(e.trashVer, ent.Dst)
		e.rel.Remove(path)
	}
	if err := e.backing.Create(path); err != nil {
		return err
	}
	e.markDirty(path)
	if e.cfg.Checksums {
		if err := e.integ.Remove(path); err != nil {
			return err
		}
	}
	n := &syncqueue.Node{Kind: syncqueue.KindCreate, Path: path, At: e.clk.Now()}
	e.stamp(n, path)
	e.q.Append(n)
	// The create node travels to the cloud as an explicit truncate-to-zero,
	// so the undo baseline for subsequent writes is the empty file — the
	// old content is NOT reconstructible cloud-side past this point.
	e.undo.Reset(path)
	return nil
}

// WriteAt implements vfs.FS: the NFS-like file RPC path. The payload is the
// incremental data; no scanning, chunking or fingerprinting happens here.
func (e *Engine) WriteAt(path string, off int64, data []byte) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.pool.joinPath(path)
	e.meter.FSOp(1)
	e.ensureTracked(path)
	if err := e.undo.BeforeWrite(path, off, int64(len(data)), e.readRange(path)); err != nil {
		return err
	}
	if err := e.backing.WriteAt(path, off, data); err != nil {
		return err
	}
	e.meter.Copy(int64(len(data))) // interception buffer copy
	e.markDirty(path)
	n := e.q.Write(path, off, data, e.clk.Now())
	if n.Ver.IsZero() {
		e.stamp(n, path)
	}
	if e.cfg.Checksums {
		if err := e.integ.UpdateRange(path, off, int64(len(data)), e.readBlock(path)); err != nil {
			return err
		}
	}
	return nil
}

// ReadAt implements vfs.FS. With checksums enabled, the blocks covered by
// the read are verified first; corrupted blocks are recovered from the
// cloud before the read is served (§III-E).
func (e *Engine) ReadAt(path string, off, n int64) ([]byte, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.meter.FSOp(1)
	if e.cfg.Checksums {
		if err := e.verifyAndRecoverRange(path, off, n); err != nil {
			return nil, err
		}
	}
	return e.backing.ReadAt(path, off, n)
}

// ReadFile implements vfs.FS, with the same verification as ReadAt.
func (e *Engine) ReadFile(path string) ([]byte, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.meter.FSOp(1)
	if e.cfg.Checksums {
		st, err := e.backing.Stat(path)
		if err == nil {
			if err := e.verifyAndRecoverRange(path, 0, st.Size); err != nil {
				return nil, err
			}
		}
	}
	return e.backing.ReadFile(path)
}

// Truncate implements vfs.FS.
func (e *Engine) Truncate(path string, size int64) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.pool.joinPath(path)
	e.meter.FSOp(1)
	if err := e.backing.Truncate(path, size); err != nil {
		return err
	}
	e.markDirty(path)
	n := e.q.Truncate(path, size, e.clk.Now())
	e.stamp(n, path)
	// Like create, the truncate node is an explicit cloud-side boundary:
	// the undo baseline restarts at the post-truncate state.
	e.undo.Reset(path)
	if e.cfg.Checksums {
		if err := e.integ.Truncate(path, size, e.readBlock(path)); err != nil {
			return err
		}
	}
	return nil
}

// Rename implements vfs.FS. This is where transactional updates commit, so
// both delta triggers live here: a relation entry whose src equals the
// destination name (Word pattern), or a destination that already exists
// (gedit pattern).
func (e *Engine) Rename(oldPath, newPath string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.pool.joinPath(oldPath)
	e.pool.joinPath(newPath)
	e.meter.FSOp(1)
	st, err := e.backing.Stat(oldPath)
	if err != nil {
		return err
	}
	if !st.IsDir && !e.cfg.DisableDelta {
		if ent, ok := e.rel.Lookup(newPath, e.clk.Now()); ok {
			// Table I trigger 1: newPath is being created again while its
			// old version is preserved under ent.Dst.
			if ent.FromUnlink {
				// The preserved copy is a local trash file the cloud never
				// saw; the cloud still holds newPath itself as long as its
				// queued unlink does not ship, which is only sound when the
				// unlink is the LAST pending node for the name (a later node
				// would have chained its version past the deletion). The
				// delta pins that unlink too: it reads the trash content
				// locally but names newPath as its cloud-side base, and
				// replaces the unlink only if it commits. Otherwise the
				// rename ships the raw content correctly.
				if p := e.q.Pending(newPath); len(p) > 0 && p[len(p)-1].Kind == syncqueue.KindUnlink {
					e.triggerRenameDelta(oldPath, newPath, st.Size, ent.Dst, newPath, p[len(p)-1])
				}
				_ = e.backing.Unlink(ent.Dst)
				delete(e.trashVer, ent.Dst)
			} else {
				e.triggerRenameDelta(oldPath, newPath, st.Size, ent.Dst, ent.Dst, nil)
			}
			e.rel.Remove(newPath)
		} else if dstSt, err := e.backing.Stat(newPath); err == nil && !dstSt.IsDir && dstSt.Size > 0 {
			// Table I trigger 2: the name already exists (gedit). Base is
			// the current content of newPath, still intact on the cloud at
			// the delta node's queue position.
			e.triggerRenameDelta(oldPath, newPath, st.Size, newPath, newPath, nil)
		}
	}
	if err := e.backing.Rename(oldPath, newPath); err != nil {
		return err
	}
	if !st.IsDir {
		// rename a b ⇒ relation entry a → b (a's old version now lives
		// under b).
		e.rel.Add(oldPath, newPath, false, e.clk.Now())
	}
	n := &syncqueue.Node{Kind: syncqueue.KindRename, Path: oldPath, Dst: newPath, At: e.clk.Now()}
	n.Base = e.vers.Get(oldPath)
	n.Ver = e.counter.Next()
	e.vers.Rename(oldPath, newPath)
	e.vers.Set(newPath, n.Ver)
	e.q.Append(n)

	// The rename node is an explicit cloud-side boundary for both names;
	// undo baselines restart (a moved log would reconstruct a version the
	// cloud no longer holds under the new name).
	e.undo.Reset(oldPath)
	e.undo.Reset(newPath)
	delete(e.pendingDelta, oldPath)
	delete(e.pendingDelta, newPath)
	e.markDirty(newPath)
	e.clearDirty(oldPath)
	if e.cfg.Checksums {
		if err := e.integ.Rename(oldPath, newPath); err != nil {
			return err
		}
	}
	return nil
}

// triggerRenameDelta decides a delta for the rename of srcPath onto newPath:
// srcPath's new content (size bytes), encoded against the preserved base,
// may replace srcPath's pending write node and, if not nil, the queued unlink
// of newPath it makes unnecessary (retracted). basePath is read locally;
// serverBase names the delta base as the server will resolve it at the write
// node's slot.
//
// Whether the delta may replace anything is decided first, from the queue
// alone: if the raw writes already uploaded — or a pending node would change
// the base's or the target's content after the write node — the rename
// itself carries the content and nothing is read or encoded.
func (e *Engine) triggerRenameDelta(srcPath, newPath string, size int64, basePath, serverBase string, retracted *syncqueue.Node) {
	wn := e.q.StableWrite(srcPath, serverBase, retracted)
	if wn == nil {
		return
	}
	baseContent, err := e.backing.ReadFile(basePath)
	if err != nil {
		return
	}
	e.meter.DiskIO(int64(len(baseContent)))
	target, err := e.deltaTarget(srcPath, size, wn)
	if err != nil {
		return
	}
	pins := []*syncqueue.Node{wn}
	if retracted != nil {
		pins = []*syncqueue.Node{retracted, wn}
	}
	e.stats.DeltaTriggers++
	d := &syncqueue.Node{Kind: syncqueue.KindDelta, Path: srcPath, BasePath: serverBase,
		At: e.clk.Now(), Base: wn.Base, Ver: wn.Ver}
	e.substitute(d, pins, baseContent, target, nil, srcPath, serverBase, newPath)
}

// deltaTarget returns path's current content (size bytes) as the segments a
// delta encodes. When wn's extents tile [0, size) in order — the application
// created the file and streamed it out, Table I's create-write-rename — the
// intercepted writes already are the new version and nothing is read;
// otherwise the file is read back as one segment.
func (e *Engine) deltaTarget(path string, size int64, wn *syncqueue.Node) ([]syncqueue.Extent, error) {
	if wn != nil && tiles(wn.Extents, size) {
		return wn.Extents, nil
	}
	content, err := e.backing.ReadFile(path)
	if err != nil {
		return nil, err
	}
	e.meter.DiskIO(int64(len(content)))
	return []syncqueue.Extent{{Data: content}}, nil
}

// tiles reports whether extents cover exactly [0, size), in order.
func tiles(extents []syncqueue.Extent, size int64) bool {
	var end int64
	for _, x := range extents {
		if x.Off != end {
			return false
		}
		end += int64(len(x.Data))
	}
	return end == size
}

// substitute is the one way a triggered delta reaches the queue. d is
// another encoding of the version its last pin carries; the caller has set
// its Base and Ver. The last pin is packed here, so the target segments it
// lends stay immutable while the pool encodes target against base into
// d.Delta. At the join d replaces pins only if every pin is still queued and
// d is smaller on the wire than the nodes it removes; otherwise the queue is
// untouched and the raw nodes ship. commits, if not nil, counts the commits.
// The job is registered under names: every name the pins touch.
func (e *Engine) substitute(d *syncqueue.Node, pins []*syncqueue.Node, base []byte, target []syncqueue.Extent, commits *int, names ...string) {
	e.q.Pack(d.Path)
	tail := e.q.TailSeq()
	bs, meter := e.cfg.BlockSize, e.meter
	e.pool.dispatch(names,
		func() {
			s := rsync.NewLocalScanner(base, bs, meter)
			for _, x := range target {
				s.Write(x.Data)
			}
			d.Delta = s.Finish()
		},
		func() {
			if wireSize(d) < wireSize(pins...) && e.q.Substitute(d, pins, tail) {
				if commits != nil {
					*commits++
				}
				return
			}
			d.Delta.Release() // the raw nodes ship; nothing else holds the delta
		})
}

// Link implements vfs.FS. Links need no relation entry (§III-A): the
// replacing rename that follows triggers via the name-exists rule.
func (e *Engine) Link(oldPath, newPath string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.pool.joinPath(oldPath)
	e.pool.joinPath(newPath)
	e.meter.FSOp(1)
	if err := e.backing.Link(oldPath, newPath); err != nil {
		return err
	}
	n := &syncqueue.Node{Kind: syncqueue.KindLink, Path: oldPath, Dst: newPath, At: e.clk.Now()}
	n.Base = e.vers.Get(oldPath)
	n.Ver = e.counter.Next()
	e.vers.Set(newPath, n.Ver)
	e.q.Append(n)
	e.undo.Reset(newPath)
	e.markDirty(newPath)
	if e.cfg.Checksums {
		content, err := e.backing.ReadFile(newPath)
		if err != nil {
			return err
		}
		if err := e.integ.SetFile(newPath, content); err != nil {
			return err
		}
	}
	return nil
}

// Unlink implements vfs.FS. The file is preserved in the trash directory
// and a relation entry records it, so an imminent re-creation can delta
// against it. If the file's whole lifetime is still queued, its nodes are
// dropped instead of shipping an unlink.
func (e *Engine) Unlink(path string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.pool.joinPath(path)
	e.meter.FSOp(1)
	st, err := e.backing.Stat(path)
	if err != nil {
		return err
	}
	if st.IsDir {
		return fmt.Errorf("core: unlink %s: is a directory", path)
	}
	preUnlinkVer := e.vers.Get(path)
	trash, err := e.preserveInTrash(path)
	if err != nil {
		// Preservation failed (e.g. ENOSPC per the paper): fall back to a
		// plain delete with no relation entry.
		if err := e.backing.Unlink(path); err != nil {
			return err
		}
	} else {
		e.rel.Add(path, trash, true, e.clk.Now())
		e.trashVer[trash] = preUnlinkVer
	}
	// The delete-before-upload optimization (dropping the file's queued
	// nodes instead of shipping an unlink) is only sound when the cloud
	// has never seen the file: a queued create may be O_TRUNC over content
	// the cloud already stores (seeded, or synced earlier), in which case
	// the unlink must travel. One metadata round-trip settles it.
	// The Head answer reflects only what the cloud has applied: a batch for
	// this path still waiting in the unsent buffer will reach the cloud
	// later and materialize the file there, so the elision is sound only
	// when nothing unsent references the path.
	dropped := false
	if !e.unsentReferences(path) {
		if _, exists, err := e.ep.Head(path); err == nil && !exists {
			dropped = e.q.DropPending(path)
		}
	}
	if dropped {
		e.q.Pack(path)
	} else {
		n := &syncqueue.Node{Kind: syncqueue.KindUnlink, Path: path, At: e.clk.Now()}
		n.Base = e.vers.Get(path)
		e.q.Append(n)
	}
	e.vers.Delete(path)
	e.undo.Reset(path)
	delete(e.pendingDelta, path)
	e.clearDirty(path)
	if e.cfg.Checksums {
		if err := e.integ.Remove(path); err != nil {
			return err
		}
	}
	return nil
}

// ensureStateDir creates the engine's private directories (trash, staging)
// in the backing store on first use.
func (e *Engine) ensureStateDir() {
	if !e.stateDirReady {
		_ = e.backing.Mkdir(".deltacfs")
		_ = e.backing.Mkdir(TrashDir)
		e.stateDirReady = true
	}
}

// preserveInTrash moves path into the trash directory, returning the trash
// name.
func (e *Engine) preserveInTrash(path string) (string, error) {
	e.ensureStateDir()
	e.trashSeq++
	trash := fmt.Sprintf("%s/%d", TrashDir, e.trashSeq)
	if err := e.backing.Rename(path, trash); err != nil {
		return "", err
	}
	return trash, nil
}

// Mkdir implements vfs.FS.
func (e *Engine) Mkdir(path string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.meter.FSOp(1)
	if err := e.backing.Mkdir(path); err != nil {
		return err
	}
	e.q.Append(&syncqueue.Node{Kind: syncqueue.KindMkdir, Path: path, At: e.clk.Now()})
	return nil
}

// Rmdir implements vfs.FS. Deleted directories are not preserved (§III-A).
func (e *Engine) Rmdir(path string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.meter.FSOp(1)
	if err := e.backing.Rmdir(path); err != nil {
		return err
	}
	e.q.Append(&syncqueue.Node{Kind: syncqueue.KindRmdir, Path: path, At: e.clk.Now()})
	return nil
}

// Close implements vfs.FS: the file's state changed, so its write node
// packs and the pack-time delta decision runs.
func (e *Engine) Close(path string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.pool.joinPath(path)
	e.meter.FSOp(1)
	e.packDecision(path)
	e.q.Pack(path)
	return e.backing.Close(path)
}

// Fsync implements vfs.FS.
func (e *Engine) Fsync(path string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.meter.FSOp(1)
	return e.backing.Fsync(path)
}

// Stat implements vfs.FS.
func (e *Engine) Stat(path string) (vfs.FileInfo, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.backing.Stat(path)
}

// List implements vfs.FS.
func (e *Engine) List(prefix string) ([]string, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.backing.List(prefix)
}

var _ vfs.FS = (*Engine)(nil)
