package core

import (
	"fmt"
	"time"

	"repro/internal/rsync"
	"repro/internal/syncqueue"
	"repro/internal/version"
	"repro/internal/wire"
)

// pollInterval rate-limits forwarding polls to one per logical second.
const pollInterval = time.Second

// Tick advances background processing to logical time now: relation-table
// expiry (with trash cleanup), pack-time delta decisions for aged open
// write nodes, delayed uploads, and forwarded-update polling. The trace
// replayer calls this after every clock advance.
func (e *Engine) Tick(now time.Duration) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.meterDegraded(now)
	for _, ent := range e.rel.Expire(now) {
		if ent.FromUnlink {
			_ = e.backing.Unlink(ent.Dst)
		}
	}
	for _, path := range e.q.OpenReady(now) {
		e.packDecision(path)
	}
	// Every pinned node's substitution must be decided before the queue may
	// release it for upload.
	e.pool.joinAll()
	for _, b := range e.q.PopReady(now) {
		e.pushBatch(b)
	}
	// Resume: even with nothing newly ready, retry batches stranded by
	// earlier push failures.
	e.flushUnsent()
	if now-e.lastPoll >= pollInterval {
		e.lastPoll = now
		e.pollForwarded()
	}
}

// Drain forces everything pending onto the cloud (end of trace / shutdown),
// joining all in-flight delta workers first.
func (e *Engine) Drain() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, path := range e.q.OpenReady(1<<62 - 1) {
		e.packDecision(path)
	}
	e.pool.joinAll()
	for _, b := range e.q.Drain() {
		e.pushBatch(b)
	}
	e.flushUnsent()
	e.pollForwarded()
	if n := len(e.unsent); n > 0 {
		return fmt.Errorf("core: drain: %d batches still unsent: %w", n, e.lastPushErr)
	}
	return nil
}

// packDecision runs when a write node for path stops growing (close,
// upload selection): if a relation-triggered delta is pending, or the
// in-place update rewrote more than the threshold fraction of the file, a
// local rsync delta may replace the buffered raw writes (§III-A).
func (e *Engine) packDecision(path string) {
	e.pool.joinPath(path)
	if e.cfg.DisableDelta {
		e.undo.Reset(path)
		return
	}
	if pd, ok := e.pendingDelta[path]; ok {
		e.resolvePendingDelta(path, pd)
		return
	}
	e.maybeInPlaceDelta(path)
	// The file's state at pack time becomes the base for the next update
	// cycle.
	e.undo.Reset(path)
}

// resolvePendingDelta finishes the unlink-then-rewrite pattern: the file was
// deleted (preserved in trash) and re-created; its buffered unlink/create/
// write nodes may collapse into one delta against the version the cloud
// still holds.
func (e *Engine) resolvePendingDelta(path string, pd pendingBase) {
	defer func() {
		delete(e.pendingDelta, path)
		_ = e.backing.Unlink(pd.basePath)
		e.undo.Reset(path)
	}()

	// The optimization collapses exactly the unlink/create(/write) triple
	// of this rewrite cycle. Any other pending node touching the path —
	// an older cycle's leftovers, a rename onto it, an interleaved
	// truncate — voids the invariant that the cloud's content at the
	// collapsed position is the pre-unlink version, so ship raw instead.
	pins := e.q.Pending(path)
	if (len(pins) != 2 && (len(pins) != 3 || pins[2].Kind != syncqueue.KindWrite)) ||
		pins[0].Kind != syncqueue.KindUnlink || pins[1].Kind != syncqueue.KindCreate {
		return
	}

	// Everything above decided from the queue alone; only now is anything
	// read. The target is the write node when its extents are the whole
	// file (a pair has none: the file was re-created and never written).
	st, err := e.backing.Stat(path)
	if err != nil {
		return
	}
	baseContent, err := e.backing.ReadFile(pd.basePath)
	if err != nil {
		return
	}
	e.meter.DiskIO(int64(len(baseContent)))
	last := pins[len(pins)-1]
	var wn *syncqueue.Node
	if last.Kind == syncqueue.KindWrite {
		wn = last
	}
	target, err := e.deltaTarget(path, st.Size, wn)
	if err != nil {
		return
	}
	// Without the unlink and create the cloud never deletes or truncates
	// the file, so the delta (whose target is the full new content) lands on
	// the pre-unlink version — exactly what the local rsync encodes against.
	e.stats.DeltaTriggers++
	d := &syncqueue.Node{Kind: syncqueue.KindDelta, Path: path, At: e.clk.Now(),
		Base: pd.baseVer, Ver: last.Ver}
	e.substitute(d, pins, baseContent, target, nil, path)
}

// maybeInPlaceDelta applies the §III-A extension: when an in-place update
// has overwritten more than InPlaceThreshold of the file, reconstruct the
// old version from the undo log and ship a delta if it is smaller than the
// buffered raw writes.
func (e *Engine) maybeInPlaceDelta(path string) {
	oldSize, tracked := e.undo.OldSize(path)
	if !tracked || oldSize <= 0 {
		return
	}
	preserved := e.undo.PreservedBytes(path)
	if float64(preserved) < e.cfg.InPlaceThreshold*float64(oldSize) {
		return
	}
	if !e.q.OnlyWriteNodePending(path) {
		return
	}
	wn := e.q.LatestPendingWrite(path)
	if wn == nil || wn.PayloadBytes() == 0 {
		return
	}
	current, err := e.backing.ReadFile(path)
	if err != nil {
		return
	}
	old, ok := e.undo.OldVersion(path, current)
	if !ok {
		return
	}
	e.meter.DiskIO(int64(len(current)))
	d := &syncqueue.Node{Kind: syncqueue.KindDelta, Path: path, At: e.clk.Now(),
		Base: wn.Base, Ver: wn.Ver}
	e.substitute(d, []*syncqueue.Node{wn}, old, []syncqueue.Extent{{Data: current}}, &e.stats.InPlaceDeltas, path)
}

// kindToWire maps queue node kinds onto wire node kinds.
var kindToWire = map[syncqueue.Kind]wire.NodeKind{
	syncqueue.KindCreate:   wire.NCreate,
	syncqueue.KindWrite:    wire.NWrite,
	syncqueue.KindTruncate: wire.NTruncate,
	syncqueue.KindRename:   wire.NRename,
	syncqueue.KindLink:     wire.NLink,
	syncqueue.KindUnlink:   wire.NUnlink,
	syncqueue.KindMkdir:    wire.NMkdir,
	syncqueue.KindRmdir:    wire.NRmdir,
	syncqueue.KindDelta:    wire.NDelta,
}

// pushBatch converts a queue batch to wire form, stamps its idempotency key
// and hands it to the unsent buffer, which uploads in order. The key is
// assigned exactly once here: an engine-level retransmission after a failed
// push reuses it, so the server can absorb a replay whose first attempt was
// ambiguously applied.
func (e *Engine) pushBatch(b syncqueue.Batch) {
	e.batchSeq++
	wb := &wire.Batch{Atomic: b.Atomic, Seq: e.batchSeq,
		Nodes: make([]*wire.Node, 0, len(b.Nodes))}
	for _, n := range b.Nodes {
		wb.Nodes = append(wb.Nodes, toWire(n))
	}
	e.enqueueUnsent(wb)
}

// toWire converts a queue node to its wire form.
func toWire(n *syncqueue.Node) *wire.Node {
	wn := &wire.Node{
		Kind:     kindToWire[n.Kind],
		Path:     n.Path,
		Dst:      n.Dst,
		Size:     n.Size,
		Delta:    n.Delta,
		BasePath: n.BasePath,
		Base:     n.Base,
		Ver:      n.Ver,
	}
	for _, ext := range n.Extents {
		wn.Extents = append(wn.Extents, wire.Extent{Off: ext.Off, Data: ext.Data})
	}
	return wn
}

// wireSize is what nodes cost on the wire, by the model upload traffic is
// charged from.
func wireSize(nodes ...*syncqueue.Node) int64 {
	var total int64
	for _, n := range nodes {
		total += toWire(n).WireSize()
	}
	return total
}

// LastPushError returns the most recent upload failure, if any.
func (e *Engine) LastPushError() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.lastPushErr
}

// pollForwarded applies updates other clients pushed to shared files
// (§III-D: the cloud forwards incremental data verbatim).
func (e *Engine) pollForwarded() {
	batches, err := e.ep.Poll()
	if err != nil {
		return
	}
	for _, b := range batches {
		if b.Client == e.clientID {
			continue // our own batch reflected back (defensive)
		}
		e.applyRemote(b)
	}
}

// applyRemote applies one forwarded batch to the local tree. A forwarded
// node whose base version does not match our local version means we have
// concurrent local edits: the forwarded content is materialized as a
// conflict file and the user resolves it (§III-C/§III-D).
func (e *Engine) applyRemote(b *wire.Batch) {
	// Forwarded batches are wire input too: the server validates pushes,
	// but a client cannot assume the forwarding server is honest. Reject
	// malformed batches whole before applying any node to the local tree.
	if err := b.Validate(); err != nil {
		return
	}
	for _, n := range b.Nodes {
		if err := e.applyRemoteNode(n); err != nil {
			continue
		}
	}
}

func (e *Engine) applyRemoteNode(n *wire.Node) error {
	switch n.Kind {
	case wire.NMkdir:
		return e.backing.Mkdir(n.Path)
	case wire.NRmdir:
		return e.backing.Rmdir(n.Path)
	}
	if !version.CheckBase(e.vers.Get(n.Path), n.Base) {
		e.stats.RemoteConflicts++
		name := fmt.Sprintf("%s.conflict-%d-%d", n.Path, n.Ver.Client, n.Ver.Count)
		e.conflictFiles = append(e.conflictFiles, name)
		// Best effort: the conflict is recorded either way.
		_ = e.installRemote(n, name)
		return nil
	}
	switch n.Kind {
	case wire.NCreate:
		if err := e.backing.Create(n.Path); err != nil {
			return err
		}
	case wire.NWrite:
		for _, ext := range n.Extents {
			if err := e.backing.WriteAt(n.Path, ext.Off, ext.Data); err != nil {
				return err
			}
		}
	case wire.NTruncate:
		if err := e.backing.Truncate(n.Path, n.Size); err != nil {
			return err
		}
	case wire.NRename:
		if err := e.backing.Rename(n.Path, n.Dst); err != nil {
			return err
		}
		e.vers.Rename(n.Path, n.Dst)
		e.vers.Set(n.Dst, n.Ver)
		if e.cfg.Checksums {
			e.noteKVErr(e.integ.Rename(n.Path, n.Dst))
		}
		e.stats.RemoteApplied++
		return nil
	case wire.NLink:
		if err := e.backing.Link(n.Path, n.Dst); err != nil {
			return err
		}
		e.vers.Set(n.Dst, n.Ver)
		e.stats.RemoteApplied++
		return nil
	case wire.NUnlink:
		if err := e.backing.Unlink(n.Path); err != nil {
			return err
		}
		e.vers.Delete(n.Path)
		if e.cfg.Checksums {
			e.noteKVErr(e.integ.Remove(n.Path))
		}
		e.stats.RemoteApplied++
		return nil
	case wire.NDelta, wire.NFull:
		if err := e.installRemote(n, n.Path); err != nil {
			return err
		}
	default:
		return fmt.Errorf("core: forwarded node kind %v unsupported", n.Kind)
	}
	if !n.Ver.IsZero() {
		e.vers.Set(n.Path, n.Ver)
	}
	if e.cfg.Checksums {
		content, err := e.backing.ReadFile(n.Path)
		if err == nil {
			e.noteKVErr(e.integ.SetFile(n.Path, content))
		}
	}
	e.stats.RemoteApplied++
	return nil
}

// stagePath is where a whole-file replacement is assembled before it is
// renamed onto its path. One name is enough: the engine applies one node at
// a time, and a file left behind by a client that died is truncated by the
// next Create.
const stagePath = ".deltacfs/stage"

// copyWindow bounds one base read of a streamed copy: vfs.FS.ReadAt returns a
// fresh slice, so this is the most a copy op holds in memory at a time.
const copyWindow = 1 << 20

// install makes path hold what fill writes into the (empty) staging file:
// fill runs against stagePath, which is then renamed onto path. A reader —
// or a client that dies mid-apply — finds the whole old file or the whole
// new one, never a truncated or half-written one; if fill fails the staging
// file is removed and path is untouched. The rename gives path a new inode:
// other hard links to the old one keep the old content, as they do on the
// server, whose file bodies are per path.
func (e *Engine) install(path string, fill func() error) error {
	e.ensureStateDir()
	if err := e.backing.Create(stagePath); err != nil {
		return err
	}
	if err := fill(); err != nil {
		_ = e.backing.Unlink(stagePath)
		return err
	}
	return e.backing.Rename(stagePath, path)
}

// installContent replaces path's content with content.
func (e *Engine) installContent(path string, content []byte) error {
	return e.install(path, func() error { return e.backing.WriteAt(stagePath, 0, content) })
}

// installRemote makes dst hold the content forwarded node n produces — n.Path
// itself when n applies, a conflict copy when it does not. Nodes that carry
// no content produce no file.
func (e *Engine) installRemote(n *wire.Node, dst string) error {
	switch n.Kind {
	case wire.NFull:
		return e.installContent(dst, n.Full)
	case wire.NDelta:
		basePath := n.BasePath
		if basePath == "" {
			basePath = n.Path
		}
		var baseLen int64 // a missing base is an empty one
		if st, err := e.backing.Stat(basePath); err == nil {
			baseLen = st.Size
		}
		// Exactly rsync.Patch's accept/reject, before anything is staged.
		if err := n.Delta.Check(baseLen); err != nil {
			return err
		}
		return e.install(dst, func() error { return e.stageDelta(basePath, n.Delta) })
	case wire.NWrite:
		return e.install(dst, func() error {
			if st, err := e.backing.Stat(n.Path); err == nil {
				if err := e.stageCopy(0, n.Path, 0, st.Size); err != nil {
					return err
				}
			}
			for _, ext := range n.Extents {
				if err := e.backing.WriteAt(stagePath, ext.Off, ext.Data); err != nil {
					return err
				}
			}
			return nil
		})
	}
	return nil
}

// stageDelta streams d's target into the staging file: literals are written
// straight from the decoded frame, copies are read from basePath a window at
// a time — the base and the target are never whole in memory. d has passed
// Check against basePath's size. The meter is charged as rsync.Patch would.
func (e *Engine) stageDelta(basePath string, d *rsync.Delta) error {
	// Size the file once: backings that grow by copying then never regrow.
	if err := e.backing.Truncate(stagePath, d.TargetLen); err != nil {
		return err
	}
	var at int64
	for _, op := range d.Ops {
		if op.Kind == rsync.OpCopy {
			if err := e.stageCopy(at, basePath, op.Off, op.Len); err != nil {
				return err
			}
			at += op.Len
			continue
		}
		if err := e.backing.WriteAt(stagePath, at, op.Data); err != nil {
			return err
		}
		at += int64(len(op.Data))
	}
	e.meter.Copy(d.TargetLen)
	return nil
}

// stageCopy copies src[off, off+n) to offset at of the staging file.
func (e *Engine) stageCopy(at int64, src string, off, n int64) error {
	for n > 0 {
		w := min(n, copyWindow)
		data, err := e.backing.ReadAt(src, off, w)
		if err != nil {
			return err
		}
		if int64(len(data)) != w {
			return fmt.Errorf("core: %s: short read at %d: %d of %d bytes", src, off, len(data), w)
		}
		if err := e.backing.WriteAt(stagePath, at, data); err != nil {
			return err
		}
		at, off, n = at+w, off+w, n-w
	}
	return nil
}
