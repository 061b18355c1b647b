// Package syncqueue implements DeltaCFS's Sync Queue (§III-B) with the
// backindex causality mechanism (§III-E).
//
// Intercepted operations are enqueued as nodes and uploaded after a short
// delay (~3 s). Consecutive writes to the same file attach to a single
// *write node* (indexed by a path hash table) for batching; a write node is
// packed — stops accepting writes — when its file's state changes (close,
// create-over, rename, unlink, truncate) or when the uploader selects it.
//
// Two optimizations operate on non-tail nodes and therefore violate strict
// FIFO order; each records a *backindex group* — a seq range that the cloud
// must apply transactionally — exactly the paper's backindex:
//
//   - a triggered delta replaces the nodes it re-encodes (a write node, and
//     for a delete-then-rewrite its unlink and create) with one delta node
//     in the last one's slot (group: first replaced position → the tail
//     when the nodes were pinned);
//   - deleting a file whose whole lifetime is still queued removes its
//     nodes (group: first removed position → tail), so the cloud can never
//     observe a later file without an earlier one.
//
// Overlapping groups are merged. When the uploader pops a node belonging to
// a group, the entire merged range ships as one atomic batch (nodes younger
// than the upload delay ship early rather than stalling the group).
package syncqueue

import (
	"time"

	"repro/internal/rsync"
	"repro/internal/version"
)

// DefaultDelay is the upload delay the paper uses for Sync Queue nodes.
const DefaultDelay = 3 * time.Second

// Kind identifies a node type.
type Kind uint8

// Node kinds. KindDelta is produced by triggered delta encoding; the rest
// mirror intercepted operations.
const (
	KindCreate Kind = iota + 1
	KindWrite
	KindTruncate
	KindRename
	KindLink
	KindUnlink
	KindMkdir
	KindRmdir
	KindDelta
)

var kindNames = [...]string{
	KindCreate: "create", KindWrite: "write", KindTruncate: "truncate",
	KindRename: "rename", KindLink: "link", KindUnlink: "unlink",
	KindMkdir: "mkdir", KindRmdir: "rmdir", KindDelta: "delta",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return "kind(?)"
}

// Extent is one contiguous run of written bytes within a write node.
type Extent struct {
	Off  int64
	Data []byte
}

// Node is one Sync Queue element.
type Node struct {
	Seq  uint64
	Kind Kind
	Path string
	// Dst is the rename/link destination.
	Dst string
	// Extents carries a write node's batched writes, in application order.
	Extents []Extent
	// Size is the truncate length.
	Size int64
	// Delta is the rsync delta of a KindDelta node, encoded against the
	// content of BasePath at the node's queue position.
	Delta    *rsync.Delta
	BasePath string
	// Base and Ver are the file's version before and after this node.
	Base, Ver version.ID
	// At is the enqueue time (first write for a write node).
	At time.Duration

	packed bool
}

// PayloadBytes returns the data bytes the node carries.
func (n *Node) PayloadBytes() int64 {
	var total int64
	for _, e := range n.Extents {
		total += int64(len(e.Data))
	}
	if n.Delta != nil {
		total += n.Delta.LiteralBytes()
	}
	return total
}

// Batch is a set of nodes released for upload. Atomic batches must be
// applied transactionally by the cloud (they cover a backindex group).
type Batch struct {
	Nodes  []*Node
	Atomic bool
}

// group is a closed seq range to be applied transactionally.
type group struct {
	start, end uint64
}

// Queue is the Sync Queue. It is not safe for concurrent use: the engine
// calls it only under its own mutex. (The paper builds it on a lock-free
// queue so the FUSE threads never block; here one engine mutex serializes
// every intercepted operation, so there is no second thread to hand off to.)
type Queue struct {
	delay time.Duration

	nodes   []*Node // nodes[i] has Seq == baseSeq + i; nil = removed/uploaded
	baseSeq uint64
	head    int // index of the next node to upload

	open   map[string]*Node // unpacked write node per path
	groups []group          // merged, unordered

	buffered int64 // payload bytes awaiting upload
}

// New returns a queue with the given upload delay (DefaultDelay if
// non-positive).
func New(delay time.Duration) *Queue {
	if delay <= 0 {
		delay = DefaultDelay
	}
	return &Queue{delay: delay, open: make(map[string]*Node), baseSeq: 1}
}

// Len returns the number of live nodes awaiting upload.
func (q *Queue) Len() int {
	n := 0
	for i := q.head; i < len(q.nodes); i++ {
		if q.nodes[i] != nil {
			n++
		}
	}
	return n
}

// BufferedBytes returns the payload bytes awaiting upload, the signal the
// engine uses for backpressure (Table III's "Sync Queue becomes full").
func (q *Queue) BufferedBytes() int64 { return q.buffered }

func (q *Queue) tailSeq() uint64 { return q.baseSeq + uint64(len(q.nodes)) - 1 }

func (q *Queue) idx(seq uint64) int { return int(seq - q.baseSeq) }

func (q *Queue) append(n *Node) {
	n.Seq = q.baseSeq + uint64(len(q.nodes))
	q.nodes = append(q.nodes, n)
	q.buffered += n.PayloadBytes()
}

// Append enqueues a non-write node, packing any open write nodes whose file
// state it changes (Path and Dst).
func (q *Queue) Append(n *Node) {
	q.Pack(n.Path)
	if n.Dst != "" {
		q.Pack(n.Dst)
	}
	q.append(n)
}

// mergeLimit bounds an extent grown by merging contiguous writes: a write
// that would take the last extent past it starts a new extent. Merging keeps
// a file streamed in small writes from shipping (and being applied) as
// thousands of extents; the bound keeps a streamed file from being copied
// again each time its one extent outgrows its buffer.
const mergeLimit = 64 << 10

// Write attaches a write to path's open write node, creating and appending
// one if necessary, and returns the node. Attaching to a node that is no
// longer at the tail is an out-of-FIFO-order operation and records a
// backindex group from the node to the current tail.
//
// The payload is copied once. A write contiguous with the node's last extent
// merges into it while the merged extent stays within mergeLimit; the second
// write of such a run moves the extent into a mergeLimit buffer that the
// rest of the run fills, so only a run's first write is copied twice.
func (q *Queue) Write(path string, off int64, data []byte, now time.Duration) *Node {
	n, ok := q.open[path]
	if !ok {
		n = &Node{Kind: KindWrite, Path: path, At: now}
		q.append(n)
		q.open[path] = n
	} else if n.Seq != q.tailSeq() {
		q.addGroup(group{start: n.Seq, end: q.tailSeq()})
	}
	q.buffered += int64(len(data))
	if k := len(n.Extents); k > 0 {
		last := &n.Extents[k-1]
		if merged := len(last.Data) + len(data); last.Off+int64(len(last.Data)) == off && merged <= mergeLimit {
			if merged > cap(last.Data) {
				last.Data = append(make([]byte, 0, mergeLimit), last.Data...)
			}
			last.Data = append(last.Data, data...)
			return n
		}
	}
	n.Extents = append(n.Extents, Extent{Off: off, Data: append([]byte(nil), data...)})
	return n
}

// Truncate enqueues a truncate node. Buffered write data beyond the new size
// in path's open write node is superseded and dropped first (this is what
// elides a journal's contents when it is truncated to zero before upload).
// The open node is then packed.
func (q *Queue) Truncate(path string, size int64, now time.Duration) *Node {
	if n, ok := q.open[path]; ok {
		q.trimExtents(n, size)
	}
	t := &Node{Kind: KindTruncate, Path: path, Size: size, At: now}
	q.Append(t)
	return t
}

// trimExtents drops buffered bytes at or beyond size.
func (q *Queue) trimExtents(n *Node, size int64) {
	kept := n.Extents[:0]
	for _, e := range n.Extents {
		switch {
		case e.Off >= size:
			q.buffered -= int64(len(e.Data))
		case e.Off+int64(len(e.Data)) > size:
			cut := e.Off + int64(len(e.Data)) - size
			e.Data = e.Data[:size-e.Off]
			q.buffered -= cut
			kept = append(kept, e)
		default:
			kept = append(kept, e)
		}
	}
	n.Extents = kept
}

// Pack marks path's open write node immutable; future writes start a new
// node. Packing a path without an open node is a no-op.
func (q *Queue) Pack(path string) {
	if n, ok := q.open[path]; ok {
		n.packed = true
		delete(q.open, path)
	}
}

// LatestPendingWrite returns path's most recent not-yet-uploaded write node,
// or nil.
func (q *Queue) LatestPendingWrite(path string) *Node {
	for i := len(q.nodes) - 1; i >= q.head; i-- {
		n := q.nodes[i]
		if n != nil && n.Kind == KindWrite && n.Path == path {
			return n
		}
	}
	return nil
}

// TailSeq returns the seq of the newest queued node (baseSeq-1 when the queue
// has never held a node). A triggered delta pins it with its nodes, so the
// group Substitute records covers the range as of the decision, not whatever
// the tail has grown to by commit time.
func (q *Queue) TailSeq() uint64 { return q.tailSeq() }

// Substitute replaces pins, the queued nodes a triggered delta d re-encodes,
// with d, and reports whether it did. d takes the slot of the last pin (the
// node whose version it re-encodes); the other pins leave the queue; one
// backindex group covers the first pin through tail, the queue tail when the
// pins were taken. If any pin has left the queue since (uploaded or dropped),
// the queue is left untouched and the raw nodes ship. Pins are packed, so
// none of them is a path's open write node.
func (q *Queue) Substitute(d *Node, pins []*Node, tail uint64) bool {
	first := tail
	for _, p := range pins {
		if i := q.idx(p.Seq); p.Seq < q.baseSeq || i < q.head || i >= len(q.nodes) || q.nodes[i] != p {
			return false
		}
		first = min(first, p.Seq)
	}
	for _, p := range pins {
		q.buffered -= p.PayloadBytes()
		q.nodes[q.idx(p.Seq)] = nil
	}
	d.Seq = pins[len(pins)-1].Seq
	q.nodes[q.idx(d.Seq)] = d
	q.buffered += d.PayloadBytes()
	q.addGroup(group{start: first, end: tail})
	return true
}

// DropPending removes all queued trace of path — valid only when the file's
// entire lifetime is inside the queue: its earliest node is a create and no
// rename/link has since targeted the path. It returns whether the drop
// happened; if it did, the caller must not enqueue an unlink node (the cloud
// never saw the file). A backindex group covers the removed range so later
// files cannot be observed without earlier ones.
func (q *Queue) DropPending(path string) bool {
	first := -1
	var toRemove []int
	for i := q.head; i < len(q.nodes); i++ {
		n := q.nodes[i]
		if n == nil {
			continue
		}
		if n.Dst == path && (n.Kind == KindRename || n.Kind == KindLink) {
			// The queued name was produced by a rename/link; its history
			// is not self-contained. Bail out.
			return false
		}
		if n.Path != path {
			continue
		}
		switch n.Kind {
		case KindCreate, KindWrite, KindTruncate, KindDelta:
			if first == -1 {
				if n.Kind != KindCreate {
					return false // earliest node is not the file's birth
				}
				first = i
			}
			toRemove = append(toRemove, i)
		case KindRename:
			// The file is renamed away later in the queue; dropping its
			// birth would break that rename. Bail out.
			return false
		}
	}
	if first == -1 {
		return false
	}
	for _, i := range toRemove {
		n := q.nodes[i]
		q.buffered -= n.PayloadBytes()
		if q.open[path] == n {
			delete(q.open, path)
		}
		q.nodes[i] = nil
	}
	if q.baseSeq+uint64(first) <= q.tailSeq() {
		q.addGroup(group{start: q.baseSeq + uint64(first), end: q.tailSeq()})
	}
	return true
}

// addGroup inserts g, merging transitively with every overlapping or
// adjacent-by-overlap group (paper: "If there is interleaving between two
// backindexes, we merge them").
func (q *Queue) addGroup(g group) {
	kept := q.groups[:0]
	for _, h := range q.groups {
		if h.start <= g.end && g.start <= h.end {
			if h.start < g.start {
				g.start = h.start
			}
			if h.end > g.end {
				g.end = h.end
			}
		} else {
			kept = append(kept, h)
		}
	}
	q.groups = append(kept, g)
}

// groupFor expands seq range [lo, hi] to the transitive closure over all
// groups, removing consumed groups from the queue. Returns the range and
// whether any group was involved.
func (q *Queue) groupFor(lo, hi uint64) (uint64, uint64, bool) {
	atomic := false
	for changed := true; changed; {
		changed = false
		kept := q.groups[:0]
		for _, g := range q.groups {
			if g.start <= hi && lo <= g.end {
				if g.start < lo {
					lo = g.start
				}
				if g.end > hi {
					hi = g.end
				}
				atomic = true
				changed = true
			} else {
				kept = append(kept, g)
			}
		}
		q.groups = kept
	}
	return lo, hi, atomic
}

// PopReady releases every batch whose head node has aged past the upload
// delay at logical time now. Nodes pulled into an atomic group ship early
// with the group. Open write nodes are packed as they ship.
func (q *Queue) PopReady(now time.Duration) []Batch {
	var out []Batch
	for {
		// Skip tombstones.
		for q.head < len(q.nodes) && q.nodes[q.head] == nil {
			q.head++
		}
		if q.head >= len(q.nodes) {
			break
		}
		h := q.nodes[q.head]
		if h.At+q.delay > now {
			break
		}
		lo := h.Seq
		hi := h.Seq
		lo, hi, atomic := q.groupFor(lo, hi)
		if lo < q.baseSeq+uint64(q.head) {
			lo = q.baseSeq + uint64(q.head)
		}
		var nodes []*Node
		for i := q.idx(lo); i <= q.idx(hi) && i < len(q.nodes); i++ {
			n := q.nodes[i]
			if n == nil {
				continue
			}
			if !n.packed && n.Kind == KindWrite {
				q.Pack(n.Path)
			}
			q.buffered -= n.PayloadBytes()
			nodes = append(nodes, n)
			q.nodes[i] = nil
		}
		if q.idx(hi)+1 > q.head {
			q.head = q.idx(hi) + 1
		}
		if len(nodes) > 0 {
			out = append(out, Batch{Nodes: nodes, Atomic: atomic && len(nodes) > 1})
		}
	}
	q.compact()
	return out
}

// Drain releases everything regardless of age.
func (q *Queue) Drain() []Batch {
	return q.PopReady(1<<62 - 1)
}

// HasOpen reports whether path has an unpacked write node.
func (q *Queue) HasOpen(path string) bool {
	_, ok := q.open[path]
	return ok
}

// HasPendingWrite reports whether any not-yet-uploaded write node exists for
// path (open or packed).
func (q *Queue) HasPendingWrite(path string) bool {
	for i := q.head; i < len(q.nodes); i++ {
		n := q.nodes[i]
		if n != nil && n.Kind == KindWrite && n.Path == path {
			return true
		}
	}
	return false
}

// OpenReady returns the paths of open write nodes that have aged past the
// upload delay at time now — the engine runs its pack-time delta decision on
// these before calling PopReady, so never-closed files (a long-lived SQLite
// handle) still get the in-place delta optimization considered.
func (q *Queue) OpenReady(now time.Duration) []string {
	var out []string
	for p, n := range q.open {
		if n.At+q.delay <= now {
			out = append(out, p)
		}
	}
	return out
}

// OnlyWriteNodePending reports whether path's pending queue entries are
// exactly one write node — the precondition for the in-place delta
// optimization (a delta against the file's previous synced version encodes
// the file's final state; interleaved truncate/create nodes would reorder
// against it).
func (q *Queue) OnlyWriteNodePending(path string) bool {
	count := 0
	for i := q.head; i < len(q.nodes); i++ {
		n := q.nodes[i]
		if n == nil || (n.Path != path && n.Dst != path) {
			continue
		}
		if n.Kind != KindWrite {
			return false
		}
		count++
	}
	return count == 1
}

// modifiesName reports whether applying n changes (or removes) the content
// bound to name on the cloud.
func modifiesName(n *Node, name string) bool {
	if n.Path == name {
		switch n.Kind {
		case KindCreate, KindWrite, KindTruncate, KindDelta, KindRename, KindUnlink:
			return true
		}
	}
	if n.Dst == name && (n.Kind == KindRename || n.Kind == KindLink) {
		return true
	}
	return false
}

// Pending returns the not-yet-uploaded nodes whose Path or Dst equals path,
// in queue order.
func (q *Queue) Pending(path string) []*Node {
	var out []*Node
	for i := q.head; i < len(q.nodes); i++ {
		n := q.nodes[i]
		if n != nil && (n.Path == path || n.Dst == path) {
			out = append(out, n)
		}
	}
	return out
}

// StableWrite returns path's most recent pending write node if a delta
// against basePath may take its place, nil if there is none or a pending node
// newer than it, other than retracted, modifies basePath or path: an
// in-position delta is applied by the cloud at the replaced node's position,
// so its base must hold the same content there that the client encodes
// against, and its target is the content as of NOW — a later pending rename
// onto either name would be overwritten out of order. retracted (may be nil)
// is a node the delta replaces along with the write node. The engine asks
// before it reads or encodes anything.
func (q *Queue) StableWrite(path, basePath string, retracted *Node) *Node {
	w := q.LatestPendingWrite(path)
	if w == nil {
		return nil
	}
	for i := q.idx(w.Seq) + 1; i < len(q.nodes); i++ {
		if n := q.nodes[i]; n != nil && n != retracted && (modifiesName(n, basePath) || modifiesName(n, path)) {
			return nil
		}
	}
	return w
}

// compact reclaims fully-consumed prefix storage.
func (q *Queue) compact() {
	if q.head == 0 {
		return
	}
	q.baseSeq += uint64(q.head)
	q.nodes = append(q.nodes[:0], q.nodes[q.head:]...)
	q.head = 0
}
