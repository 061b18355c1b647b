package server

import (
	"errors"
	"fmt"

	"repro/internal/extent"
	"repro/internal/rsync"
	"repro/internal/version"
	"repro/internal/wire"
)

// errConflict signals a base-version mismatch during application.
var errConflict = errors.New("server: base version mismatch")

// txn applies the nodes of one batch (or one node of a non-atomic batch) and
// can undo them. File bodies are immutable extent.File values, so the undo
// record of a path is its old value and rollback is a map store. The caller
// holds the batch's shard locks (batchLocks) for every path the txn touches;
// while it runs, the txn's accessors (exists, file, put, remove, edit) are
// the only way file bodies are read or changed.
type txn struct {
	s *Server
	// sharing reports whether the pusher's group has more than one member;
	// it gates conflict-history retention. Sampled once by Push, before the
	// shard locks are taken.
	sharing bool
	// ops collects applied operations, appended to the server log on
	// commit only.
	ops []AppliedOp
	// files holds, for each touched path, the body and version it had
	// before the txn and the builder of its unpublished edits.
	files    map[string]pathState
	prevDirs map[string]bool
}

// pathState is the txn's record of one file path.
type pathState struct {
	prev    extent.File
	existed bool
	prevVer version.ID
	// open, when set, holds edits not yet published to the shard map, which
	// is stale for this path until file or commit publishes them. Keeping
	// the builder across nodes is what lets several writes to one file copy
	// each page once between them.
	open *extent.Builder
}

func newTxn(s *Server, sharing bool) *txn {
	return &txn{
		s:        s,
		sharing:  sharing,
		files:    make(map[string]pathState),
		prevDirs: make(map[string]bool),
	}
}

// touch records a path's state once, before the txn first changes it.
func (t *txn) touch(path string) pathState {
	ps, ok := t.files[path]
	if !ok {
		sh := t.s.shard(path)
		ps.prev, ps.existed = sh.files[path]
		ps.prevVer = sh.getVer(path)
		t.files[path] = ps
	}
	return ps
}

func (t *txn) touchDir(path string) {
	if _, ok := t.prevDirs[path]; !ok {
		t.prevDirs[path] = t.s.shard(path).dirs[path]
	}
}

// exists reports whether path is a file as the txn currently sees it.
func (t *txn) exists(path string) bool {
	if t.files[path].open != nil {
		return true
	}
	_, ok := t.s.shard(path).files[path]
	return ok
}

// file returns path's body as the txn currently sees it, publishing
// unpublished edits first: the value may be shared from here on.
func (t *txn) file(path string) (extent.File, bool) {
	sh := t.s.shard(path)
	if ps := t.files[path]; ps.open != nil {
		sh.files[path] = ps.open.File()
		ps.open = nil
		t.files[path] = ps
	}
	f, ok := sh.files[path]
	return f, ok
}

// put makes f the body of path, dropping unpublished edits.
func (t *txn) put(path string, f extent.File) {
	t.discard(path)
	t.s.shard(path).files[path] = f
}

// remove deletes path's body, dropping unpublished edits.
func (t *txn) remove(path string) {
	t.discard(path)
	delete(t.s.shard(path).files, path)
}

// discard touches path and drops its unpublished edits: the caller is about
// to replace the body outright.
func (t *txn) discard(path string) {
	if ps := t.touch(path); ps.open != nil {
		ps.open = nil
		t.files[path] = ps
	}
}

// edit returns the txn's builder for path, opened over the current body (the
// empty file if path does not exist, which the edit then creates).
func (t *txn) edit(path string) *extent.Builder {
	ps := t.touch(path)
	if ps.open == nil {
		ps.open = extent.Edit(t.s.shard(path).files[path], t.s.meter)
		t.files[path] = ps
	}
	return ps.open
}

func (t *txn) rollback() {
	for p, ps := range t.files {
		sh := t.s.shard(p)
		if ps.existed {
			sh.files[p] = ps.prev
		} else {
			delete(sh.files, p)
		}
		sh.setVer(p, ps.prevVer)
	}
	for p, existed := range t.prevDirs {
		sh := t.s.shard(p)
		if existed {
			sh.dirs[p] = true
		} else {
			delete(sh.dirs, p)
		}
	}
}

// commit finalizes the transaction: it publishes the open builders, appends
// to the server's applied-op log and, when the pusher's sharing group has
// multiple members, retains each touched file's new value as a revision for
// conflict resolution — a table that shares its pages with the live file,
// never a copy. The caller still holds the batch's shard locks, which is
// what makes the log's order agree with per-path commit order.
func (t *txn) commit() {
	t.s.applied.append(t.ops)
	for p, ps := range t.files {
		sh := t.s.shard(p)
		if ps.open != nil {
			sh.files[p] = ps.open.File()
		}
		c, ok := sh.files[p]
		if !ok || !t.sharing {
			continue
		}
		h := append(sh.history[p], revision{ver: sh.getVer(p), content: c})
		if len(h) > HistoryDepth {
			h = h[len(h)-HistoryDepth:]
		}
		sh.history[p] = h
	}
}

// checkBase verifies the node's base version against the live map.
func (t *txn) checkBase(n *wire.Node) error {
	switch n.Kind {
	case wire.NMkdir, wire.NRmdir:
		return nil
	}
	cur := t.s.shard(n.Path).getVer(n.Path)
	if !version.CheckBase(cur, n.Base) {
		return errConflict
	}
	return nil
}

// applyNode applies one node inside the transaction, including its version
// check and stamp. The caller holds the shard locks for every path the node
// names (Path, Dst, BasePath).
func (s *Server) applyNode(t *txn, n *wire.Node) error {
	if err := t.checkBase(n); err != nil {
		return err
	}
	t.ops = append(t.ops, AppliedOp{Kind: n.Kind, Path: n.Path})
	sh := s.shard(n.Path)
	switch n.Kind {
	case wire.NCreate:
		t.put(n.Path, extent.File{})

	case wire.NTruncate:
		if !t.exists(n.Path) {
			return fmt.Errorf("truncate: %s does not exist", n.Path)
		}
		if err := s.writeContent(t.edit(n.Path), extent.File{}, n); err != nil {
			return err
		}

	case wire.NWrite:
		if err := s.writeContent(t.edit(n.Path), extent.File{}, n); err != nil {
			return err
		}

	case wire.NFull:
		t.put(n.Path, extent.New(n.Full, s.meter))

	case wire.NDelta:
		basePath := n.BasePath
		if basePath == "" {
			basePath = n.Path
		}
		base, _ := t.file(basePath)
		if err := s.writeContent(t.edit(n.Path), base, n); err != nil {
			return fmt.Errorf("delta on %s (base %s): %w", n.Path, basePath, err)
		}

	case wire.NCDC:
		if err := s.writeContent(t.edit(n.Path), extent.File{}, n); err != nil {
			return err
		}
		// Carried chunks enter the store only after every reference in the
		// node has been resolved: the client built its references against
		// the store's state at push time, and an insert could evict a chunk
		// a later reference in this very node still needs.
		for _, c := range n.Chunks {
			if c.Data != nil {
				s.storeChunk(c.Hash, append([]byte(nil), c.Data...))
			}
		}

	case wire.NRename:
		c, ok := t.file(n.Path)
		if !ok {
			return fmt.Errorf("rename: %s does not exist", n.Path)
		}
		dsh := s.shard(n.Dst)
		t.put(n.Dst, c)
		t.remove(n.Path)
		// version.Map.Rename semantics across (possibly) two shards.
		if v := sh.getVer(n.Path); !v.IsZero() {
			dsh.setVer(n.Dst, v)
			sh.setVer(n.Path, version.ID{})
		} else {
			dsh.setVer(n.Dst, version.ID{})
		}

	case wire.NLink:
		c, ok := t.file(n.Path)
		if !ok {
			return fmt.Errorf("link: %s does not exist", n.Path)
		}
		// The server store has no inodes: the new name gets the same value.
		// The source is touched so that it, too, gains a revision.
		t.touch(n.Path)
		t.put(n.Dst, c)

	case wire.NUnlink:
		if !t.exists(n.Path) {
			return fmt.Errorf("unlink: %s does not exist", n.Path)
		}
		t.remove(n.Path)
		sh.setVer(n.Path, version.ID{})

	case wire.NMkdir:
		t.touchDir(n.Path)
		sh.dirs[n.Path] = true
		return nil

	case wire.NRmdir:
		t.touchDir(n.Path)
		delete(sh.dirs, n.Path)
		return nil

	default:
		return fmt.Errorf("unknown node kind %d", n.Kind)
	}

	switch n.Kind {
	case wire.NUnlink, wire.NMkdir, wire.NRmdir:
		// No version to stamp: the path is gone or is a directory.
	case wire.NRename:
		if !n.Ver.IsZero() {
			sh.setVer(n.Path, version.ID{})
			s.shard(n.Dst).setVer(n.Dst, n.Ver)
		}
	case wire.NLink:
		if !n.Ver.IsZero() {
			s.shard(n.Dst).setVer(n.Dst, n.Ver) // the new name gets the version; the source keeps its own
		}
	default:
		if !n.Ver.IsZero() {
			sh.setVer(n.Path, n.Ver)
		}
	}
	return nil
}

// writeContent turns b, a builder over the body a content-bearing node
// applies to, into the body the node produces. base is the delta base
// (NDelta only). Every byte that ends up in b's pages is copied there:
// decoded extents alias pooled frame buffers and are never kept.
func (s *Server) writeContent(b *extent.Builder, base extent.File, n *wire.Node) error {
	switch n.Kind {
	case wire.NWrite:
		var maxEnd int64
		for _, e := range n.Extents {
			if e.Off < 0 {
				return fmt.Errorf("write %s: negative extent offset %d", n.Path, e.Off)
			}
			if end := e.Off + int64(len(e.Data)); end > maxEnd {
				maxEnd = end
			}
		}
		b.Reserve(maxEnd)
		for _, e := range n.Extents {
			b.WriteAt(e.Data, e.Off)
		}
	case wire.NTruncate:
		b.Truncate(n.Size)
	case wire.NFull:
		b.Truncate(0)
		b.WriteAt(n.Full, 0)
	case wire.NDelta:
		b.Truncate(0)
		return rsync.PatchPages(b, base, n.Delta)
	case wire.NCDC:
		// Resolve and verify every chunk before assembling, and size the
		// assembly from the verified lengths, not the wire-claimed ones.
		resolved := make([][]byte, len(n.Chunks))
		var total int64
		for i, c := range n.Chunks {
			data := c.Data
			if data == nil {
				stored, ok := s.chunk(c.Hash)
				if !ok {
					return fmt.Errorf("cdc: %s references unknown chunk %x", n.Path, c.Hash[:4])
				}
				data = stored
			}
			if int64(len(data)) != c.Len {
				return fmt.Errorf("cdc: chunk %x length %d != %d", c.Hash[:4], len(data), c.Len)
			}
			resolved[i] = data
			total += int64(len(data))
		}
		b.Truncate(0)
		b.Reserve(total)
		for _, data := range resolved {
			b.WriteAt(data, b.Size())
		}
	default:
		return fmt.Errorf("node kind %v carries no content", n.Kind)
	}
	return nil
}

// conflictEligible reports whether a losing node of this kind materializes
// a conflict copy (content-bearing kinds only).
func conflictEligible(k wire.NodeKind) bool {
	switch k {
	case wire.NMkdir, wire.NRmdir, wire.NUnlink, wire.NRename, wire.NLink, wire.NCreate:
		return false
	}
	return true
}

// conflictName is the deterministic path of the conflict copy a losing node
// would create. It is known before application (it depends only on the node
// and the pusher), which is what lets lockSetFor cover conflict shards up
// front.
func conflictName(n *wire.Node, from uint32) string {
	return fmt.Sprintf("%s.conflict-%d-%d", n.Path, from, n.Ver.Count)
}

// materializeConflict implements first-write-wins reconciliation: the
// server's current content stays the latest version; the losing update is
// applied to the base version it was made against (from history) and stored
// under a conflict name. Returns the conflict paths created. The caller
// holds the batch's shard locks, which cover every conflict name.
func (s *Server) materializeConflict(from uint32, nodes []*wire.Node) []string {
	var out []string
	for _, n := range nodes {
		if !conflictEligible(n.Kind) {
			continue
		}
		base := s.historyContent(n.Path, n.Base)
		b := extent.Edit(base, s.meter)
		if err := s.writeContent(b, base, n); err != nil {
			continue
		}
		name := conflictName(n, from)
		s.shard(name).files[name] = b.File()
		out = append(out, name)
	}
	return out
}

// historyContent finds the retained revision of path at version v. A zero
// version is the empty file, and so is a revision no longer retained: the
// conflict copy then holds the losing update alone, so the user still learns
// about it. The caller holds path's shard lock.
func (s *Server) historyContent(path string, v version.ID) extent.File {
	for _, rev := range s.shard(path).history[path] {
		if rev.ver == v && !v.IsZero() {
			return rev.content
		}
	}
	return extent.File{}
}
