package syncqueue

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"repro/internal/rsync"
)

const delay = 3 * time.Second

func popAll(q *Queue, now time.Duration) []*Node {
	var nodes []*Node
	for _, b := range q.PopReady(now) {
		nodes = append(nodes, b.Nodes...)
	}
	return nodes
}

func TestWriteBatchingSameFile(t *testing.T) {
	q := New(delay)
	n1 := q.Write("f", 0, []byte("aa"), 0)
	n2 := q.Write("f", 2, []byte("bb"), time.Second)
	if n1 != n2 {
		t.Fatal("writes to same file did not share a write node")
	}
	// Contiguous writes coalesce into one extent.
	if len(n1.Extents) != 1 || !bytes.Equal(n1.Extents[0].Data, []byte("aabb")) {
		t.Fatalf("extents = %+v", n1.Extents)
	}
	n3 := q.Write("f", 100, []byte("cc"), time.Second)
	if n3 != n1 || len(n1.Extents) != 2 {
		t.Fatalf("non-contiguous write handling: %+v", n1.Extents)
	}
	if q.Len() != 1 {
		t.Fatalf("Len = %d, want 1", q.Len())
	}
}

func TestWriteDataIsCopied(t *testing.T) {
	q := New(delay)
	buf := []byte("mutate")
	n := q.Write("f", 0, buf, 0)
	buf[0] = 'X'
	if !bytes.Equal(n.Extents[0].Data, []byte("mutate")) {
		t.Fatal("write node aliased the caller's buffer")
	}
}

func TestPackStopsBatching(t *testing.T) {
	q := New(delay)
	n1 := q.Write("f", 0, []byte("a"), 0)
	q.Pack("f")
	n2 := q.Write("f", 1, []byte("b"), 0)
	if n1 == n2 {
		t.Fatal("write attached to packed node")
	}
	if q.Len() != 2 {
		t.Fatalf("Len = %d, want 2", q.Len())
	}
}

func TestAppendPacksAffectedPaths(t *testing.T) {
	q := New(delay)
	w := q.Write("f", 0, []byte("a"), 0)
	q.Append(&Node{Kind: KindRename, Path: "f", Dst: "g", At: 0})
	w2 := q.Write("f", 0, []byte("b"), 0)
	if w == w2 {
		t.Fatal("rename did not pack the write node")
	}
	// Dst pack too: a rename onto a path with an open node packs it.
	w3 := q.Write("h", 0, []byte("c"), 0)
	q.Append(&Node{Kind: KindRename, Path: "x", Dst: "h", At: 0})
	w4 := q.Write("h", 0, []byte("d"), 0)
	if w3 == w4 {
		t.Fatal("rename destination did not pack the write node")
	}
}

func TestDelayGatesUpload(t *testing.T) {
	q := New(delay)
	q.Write("f", 0, []byte("x"), 10*time.Second)
	if got := popAll(q, 10*time.Second+delay-time.Millisecond); len(got) != 0 {
		t.Fatalf("popped %d nodes before delay", len(got))
	}
	got := popAll(q, 10*time.Second+delay)
	if len(got) != 1 || got[0].Kind != KindWrite {
		t.Fatalf("popped %+v", got)
	}
	if q.Len() != 0 || q.BufferedBytes() != 0 {
		t.Fatalf("queue not drained: len=%d buffered=%d", q.Len(), q.BufferedBytes())
	}
}

func TestFIFOAcrossFiles(t *testing.T) {
	q := New(delay)
	q.Append(&Node{Kind: KindCreate, Path: "a", At: 0})
	q.Append(&Node{Kind: KindCreate, Path: "b", At: time.Second})
	q.Write("a", 0, []byte("1"), 2*time.Second)
	got := popAll(q, time.Minute)
	if len(got) != 3 {
		t.Fatalf("popped %d nodes", len(got))
	}
	if got[0].Path != "a" || got[1].Path != "b" || got[2].Kind != KindWrite {
		t.Fatalf("order: %v %v %v", got[0], got[1], got[2])
	}
}

func TestTruncateSupersedesBufferedData(t *testing.T) {
	// The journal pattern: create, write, truncate-to-0 before upload.
	// The buffered journal bytes must be dropped.
	q := New(delay)
	q.Append(&Node{Kind: KindCreate, Path: "j", At: 0})
	q.Write("j", 0, bytes.Repeat([]byte{1}, 4096), 0)
	if q.BufferedBytes() != 4096 {
		t.Fatalf("buffered = %d", q.BufferedBytes())
	}
	q.Truncate("j", 0, time.Second)
	if q.BufferedBytes() != 0 {
		t.Fatalf("buffered after truncate = %d, want 0", q.BufferedBytes())
	}
	got := popAll(q, time.Minute)
	// create, (empty) write node, truncate
	var payload int64
	for _, n := range got {
		payload += n.PayloadBytes()
	}
	if payload != 0 {
		t.Fatalf("superseded journal data still uploaded: %d bytes", payload)
	}
}

func TestTruncatePartialTrim(t *testing.T) {
	q := New(delay)
	q.Write("f", 0, []byte("0123456789"), 0)
	q.Truncate("f", 4, 0)
	if q.BufferedBytes() != 4 {
		t.Fatalf("buffered = %d, want 4", q.BufferedBytes())
	}
	got := popAll(q, time.Minute)
	var w *Node
	for _, n := range got {
		if n.Kind == KindWrite {
			w = n
		}
	}
	if w == nil || !bytes.Equal(w.Extents[0].Data, []byte("0123")) {
		t.Fatalf("trimmed extents: %+v", w)
	}
}

func TestSubstitute(t *testing.T) {
	// The Word pattern (Fig 6): writes to t1 packed, then replaced by a
	// delta node; surrounding nodes keep their positions; the pinned node
	// through the tail when it was pinned becomes atomic.
	q := New(delay)
	q.Append(&Node{Kind: KindRename, Path: "f", Dst: "t0", At: 0})
	q.Append(&Node{Kind: KindCreate, Path: "t1", At: 0})
	w := q.Write("t1", 0, bytes.Repeat([]byte{9}, 1000), 0)
	q.Pack("t1") // close
	q.Append(&Node{Kind: KindRename, Path: "t1", Dst: "f", At: time.Millisecond})
	tail := q.TailSeq()

	d := &Node{
		Kind:     KindDelta,
		Path:     "t1",
		BasePath: "t0",
		Delta:    &rsync.Delta{TargetLen: 1000, Ops: []rsync.Op{{Kind: rsync.OpData, Data: []byte("small")}}},
		At:       time.Millisecond,
	}
	// Appended after the pins were taken: outside the group.
	q.Append(&Node{Kind: KindUnlink, Path: "t0", At: 2 * time.Millisecond})
	if !q.Substitute(d, []*Node{w}, tail) {
		t.Fatal("Substitute refused a queued pin")
	}
	if d.Seq != w.Seq {
		t.Fatalf("delta seq %d, want the write node's %d", d.Seq, w.Seq)
	}
	if q.BufferedBytes() != 5 {
		t.Fatalf("buffered = %d, want 5 (delta literal)", q.BufferedBytes())
	}

	// FIFO before the backindex group: rename f->t0 and create t1 ship as
	// their own batches; the replaced position through the pinned tail
	// ([delta, rename t1->f]) ships atomically; the unlink follows alone.
	batches := q.PopReady(time.Minute)
	if len(batches) != 4 {
		t.Fatalf("batches = %d, want 4", len(batches))
	}
	if batches[0].Atomic || batches[0].Nodes[0].Kind != KindRename {
		t.Fatalf("batch 0 = %+v", batches[0])
	}
	if batches[1].Atomic || batches[1].Nodes[0].Kind != KindCreate {
		t.Fatalf("batch 1 = %+v", batches[1])
	}
	if !batches[2].Atomic || len(batches[2].Nodes) != 2 ||
		batches[2].Nodes[0] != d || batches[2].Nodes[1].Kind != KindRename {
		t.Fatalf("batch 2 = %+v", batches[2])
	}
	if batches[2].Nodes[0].BasePath != "t0" {
		t.Fatal("delta node lost its base path")
	}
	if batches[3].Atomic || batches[3].Nodes[0].Kind != KindUnlink {
		t.Fatalf("batch 3 = %+v", batches[3])
	}
}

// queueState is everything Substitute may change, deep-copied.
type queueState struct {
	nodes    []Node
	groups   []group
	open     map[string]*Node
	buffered int64
	head     int
	baseSeq  uint64
}

func snapshot(q *Queue) queueState {
	st := queueState{groups: append([]group(nil), q.groups...), open: map[string]*Node{},
		buffered: q.buffered, head: q.head, baseSeq: q.baseSeq}
	for _, n := range q.nodes {
		if n != nil {
			st.nodes = append(st.nodes, *n)
		} else {
			st.nodes = append(st.nodes, Node{})
		}
	}
	for k, v := range q.open {
		st.open[k] = v
	}
	return st
}

func TestSubstituteRefusesPinsThatLeft(t *testing.T) {
	delta := func() *Node {
		return &Node{Kind: KindDelta, Path: "f", Delta: &rsync.Delta{Ops: []rsync.Op{{Kind: rsync.OpData, Data: []byte("x")}}}}
	}
	for _, tc := range []struct {
		name  string
		leave func(q *Queue, w *Node)
	}{
		{"uploaded", func(q *Queue, w *Node) { q.PopReady(time.Minute) }},
		{"dropped", func(q *Queue, w *Node) { q.DropPending("f") }},
		{"never queued", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			q := New(delay)
			c := &Node{Kind: KindCreate, Path: "f", At: 0}
			q.Append(c)
			w := q.Write("f", 0, bytes.Repeat([]byte{1}, 100), 0)
			q.Pack("f")
			tail := q.TailSeq()
			if tc.leave != nil {
				tc.leave(q, w)
			} else {
				w = &Node{Kind: KindWrite, Path: "f", Seq: w.Seq}
			}
			q.Append(&Node{Kind: KindCreate, Path: "g", At: 4 * time.Second})
			q.Write("g", 0, []byte("later"), 4*time.Second)
			before := snapshot(q)
			if q.Substitute(delta(), []*Node{c, w}, tail) {
				t.Fatal("Substitute committed with a pin no longer queued")
			}
			if after := snapshot(q); !reflect.DeepEqual(before, after) {
				t.Fatalf("refused Substitute changed the queue:\nbefore %+v\nafter  %+v", before, after)
			}
		})
	}
}

func TestDropPendingCreateDelete(t *testing.T) {
	// create a, create b, create c, delete a — the paper's causality
	// example. a's nodes are removed; b and c must ship atomically.
	q := New(delay)
	q.Append(&Node{Kind: KindCreate, Path: "a", At: 0})
	q.Write("a", 0, []byte("data-a"), 0)
	q.Append(&Node{Kind: KindCreate, Path: "b", At: 0})
	q.Append(&Node{Kind: KindCreate, Path: "c", At: 0})

	if !q.DropPending("a") {
		t.Fatal("DropPending failed for in-queue lifetime")
	}
	batches := q.PopReady(time.Minute)
	if len(batches) != 1 || !batches[0].Atomic {
		t.Fatalf("batches = %+v, want one atomic group", batches)
	}
	if len(batches[0].Nodes) != 2 ||
		batches[0].Nodes[0].Path != "b" || batches[0].Nodes[1].Path != "c" {
		t.Fatalf("group = %+v", batches[0].Nodes)
	}
}

func TestDropPendingRefusesSyncedFile(t *testing.T) {
	// File existed before (no create node in queue): must not drop.
	q := New(delay)
	q.Write("f", 0, []byte("x"), 0)
	if q.DropPending("f") {
		t.Fatal("DropPending dropped a file with no queued create")
	}
}

func TestDropPendingRefusesRenamedAway(t *testing.T) {
	q := New(delay)
	q.Append(&Node{Kind: KindCreate, Path: "a", At: 0})
	q.Append(&Node{Kind: KindRename, Path: "a", Dst: "b", At: 0})
	if q.DropPending("a") {
		t.Fatal("DropPending dropped a file that was renamed away")
	}
}

func TestDropPendingRefusesRenameTarget(t *testing.T) {
	q := New(delay)
	q.Append(&Node{Kind: KindCreate, Path: "t", At: 0})
	q.Append(&Node{Kind: KindRename, Path: "t", Dst: "f", At: 0})
	if q.DropPending("f") {
		t.Fatal("DropPending dropped a rename-produced name")
	}
}

func TestGroupsMergeOnInterleaving(t *testing.T) {
	q := New(delay)
	q.Append(&Node{Kind: KindCreate, Path: "a", At: 0})
	q.Write("a", 0, []byte("1"), 0)
	q.Append(&Node{Kind: KindCreate, Path: "b", At: 0})
	q.Write("b", 0, []byte("2"), 0)
	q.Append(&Node{Kind: KindCreate, Path: "c", At: 0})

	// Late writes to both earlier write nodes create two interleaving
	// groups; they must merge into one atomic range.
	q.Write("a", 1, []byte("3"), time.Second)
	q.Write("b", 1, []byte("4"), time.Second)

	// create a precedes both groups and ships alone; the two interleaving
	// groups [write a .. tail] and [write b .. tail] merge into one atomic
	// range of the remaining 4 nodes.
	batches := q.PopReady(time.Minute)
	if len(batches) != 2 {
		t.Fatalf("batches = %d, want 2", len(batches))
	}
	if batches[0].Atomic || batches[0].Nodes[0].Path != "a" {
		t.Fatalf("batch 0 = %+v", batches[0])
	}
	if !batches[1].Atomic || len(batches[1].Nodes) != 4 {
		t.Fatalf("merged group = %+v", batches[1])
	}
}

func TestLateWriteToHeadNodeShipsEarlyNodes(t *testing.T) {
	// A write attaches to a non-tail node; when the head becomes ready the
	// whole covered range ships, including younger nodes (upload-early
	// instead of stalling the group).
	q := New(delay)
	q.Write("f", 0, []byte("1"), 0)
	q.Append(&Node{Kind: KindCreate, Path: "g", At: 90 * time.Second})
	q.Write("f", 1, []byte("2"), 100*time.Second) // groups [f..create g..tail]

	batches := q.PopReady(101 * time.Second) // g's delay not yet elapsed
	if len(batches) != 1 || !batches[0].Atomic || len(batches[0].Nodes) != 2 {
		t.Fatalf("batches = %+v", batches)
	}
}

func TestPopPacksOpenNodes(t *testing.T) {
	q := New(delay)
	q.Write("f", 0, []byte("1"), 0)
	got := popAll(q, time.Minute)
	if len(got) != 1 {
		t.Fatalf("popped %d", len(got))
	}
	// After upload, new writes start a fresh node.
	n := q.Write("f", 1, []byte("2"), time.Minute)
	if n == got[0] {
		t.Fatal("write attached to an uploaded node")
	}
}

func TestDrain(t *testing.T) {
	q := New(delay)
	q.Write("f", 0, []byte("x"), 0)
	q.Append(&Node{Kind: KindCreate, Path: "g", At: time.Hour})
	got := 0
	for _, b := range q.Drain() {
		got += len(b.Nodes)
	}
	if got != 2 {
		t.Fatalf("Drain released %d nodes, want 2", got)
	}
}

func TestSeqStableAcrossCompaction(t *testing.T) {
	q := New(delay)
	for i := 0; i < 100; i++ {
		q.Append(&Node{Kind: KindCreate, Path: "f", At: time.Duration(i) * time.Second})
		popAll(q, time.Duration(i)*time.Second+delay)
	}
	n := q.Write("f", 0, []byte("x"), 200*time.Second)
	if n.Seq != 101 {
		t.Fatalf("Seq = %d, want 101 (monotonic across compaction)", n.Seq)
	}
}

func TestPayloadBytes(t *testing.T) {
	n := &Node{Kind: KindWrite, Extents: []Extent{{Data: []byte("abc")}, {Data: []byte("de")}}}
	if n.PayloadBytes() != 5 {
		t.Fatalf("PayloadBytes = %d", n.PayloadBytes())
	}
	d := &Node{Kind: KindDelta, Delta: &rsync.Delta{Ops: []rsync.Op{{Kind: rsync.OpData, Data: []byte("xy")}}}}
	if d.PayloadBytes() != 2 {
		t.Fatalf("delta PayloadBytes = %d", d.PayloadBytes())
	}
}

func TestKindString(t *testing.T) {
	if KindDelta.String() != "delta" || KindWrite.String() != "write" {
		t.Fatal("Kind.String broken")
	}
	if Kind(100).String() != "kind(?)" {
		t.Fatal("unknown kind string")
	}
}

func TestPendingKinds(t *testing.T) {
	q := New(delay)
	q.Append(&Node{Kind: KindUnlink, Path: "f", At: 0})
	q.Append(&Node{Kind: KindCreate, Path: "f", At: 0})
	q.Write("f", 0, []byte("x"), 0)
	q.Append(&Node{Kind: KindRename, Path: "g", Dst: "f", At: 0})
	var kinds []Kind
	for _, n := range q.Pending("f") {
		kinds = append(kinds, n.Kind)
	}
	want := []Kind{KindUnlink, KindCreate, KindWrite, KindRename}
	if len(kinds) != len(want) {
		t.Fatalf("Pending kinds = %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("Pending kinds = %v, want %v", kinds, want)
		}
	}
	if got := q.Pending("unrelated"); len(got) != 0 {
		t.Fatalf("Pending(unrelated) = %v", got)
	}
}

func TestStableWrite(t *testing.T) {
	// Base modified after the write node: refuse.
	q := New(delay)
	q.Write("tmp", 0, []byte("new"), 0)
	q.Append(&Node{Kind: KindRename, Path: "doc", Dst: "base", At: 0})
	if q.StableWrite("tmp", "base", nil) != nil {
		t.Fatal("replacement allowed despite pending base modification")
	}
	// ...unless that node is the one the delta retracts with the write.
	q1 := New(delay)
	u := &Node{Kind: KindUnlink, Path: "base", At: 0}
	w1 := q1.Write("tmp", 0, []byte("new"), 0)
	q1.Append(u)
	if got := q1.StableWrite("tmp", "base", u); got != w1 {
		t.Fatalf("StableWrite with the unlink retracted = %v, want the write node", got)
	}

	// Target modified after the write node: refuse.
	q2 := New(delay)
	q2.Write("tmp", 0, []byte("new"), 0)
	q2.Pack("tmp")
	q2.Append(&Node{Kind: KindRename, Path: "x", Dst: "tmp", At: 0})
	if q2.StableWrite("tmp", "base", nil) != nil {
		t.Fatal("replacement allowed despite pending target modification")
	}

	// Clean case: allow. A read-only mention of the base (link source)
	// does not block. The node returned is the one the substitution lands
	// on, and it keeps its extents: they are the delta's target.
	q3 := New(delay)
	q3.Append(&Node{Kind: KindRename, Path: "f", Dst: "base", At: 0}) // before: fine
	w := q3.Write("tmp", 0, []byte("new"), 0)
	q3.Append(&Node{Kind: KindLink, Path: "base", Dst: "backup", At: 0})
	if got := q3.StableWrite("tmp", "base", nil); got != w {
		t.Fatalf("StableWrite = %v, want the write node", got)
	}
	q3.Pack("tmp")
	d := &Node{Path: "tmp", Delta: &rsync.Delta{}}
	if !q3.Substitute(d, []*Node{w}, q3.TailSeq()) {
		t.Fatal("replacement refused in the clean case")
	}
	if d.Seq != w.Seq || q3.HasOpen("tmp") || !bytes.Equal(w.Extents[0].Data, []byte("new")) {
		t.Fatalf("after replacement: delta seq %d (write %d), open=%v, extents %+v", d.Seq, w.Seq, q3.HasOpen("tmp"), w.Extents)
	}

	// No write node at all: refuse.
	if New(delay).StableWrite("tmp", "base", nil) != nil {
		t.Fatal("replacement without a write node")
	}
}

func TestSubstituteCollapsesNewestCycle(t *testing.T) {
	// Delete then rewrite, twice: the delta pins only the newest cycle's
	// unlink, create and write. The older cycle stays queued; the delta
	// takes the newest write's slot; one group covers the newest unlink
	// through the pinned tail.
	q := New(delay)
	q.Append(&Node{Kind: KindUnlink, Path: "f", At: 0})
	q.Append(&Node{Kind: KindCreate, Path: "f", At: 0})
	q.Append(&Node{Kind: KindCreate, Path: "other", At: 0})
	u := &Node{Kind: KindUnlink, Path: "f", At: time.Second}
	q.Append(u)
	c := &Node{Kind: KindCreate, Path: "f", At: time.Second}
	q.Append(c)
	q.Append(&Node{Kind: KindMkdir, Path: "dir", At: time.Second})
	w := q.Write("f", 0, []byte("new"), time.Second)
	q.Pack("f")
	tail := q.TailSeq()

	d := &Node{Kind: KindDelta, Path: "f", At: time.Second, Delta: &rsync.Delta{}}
	if !q.Substitute(d, []*Node{u, c, w}, tail) {
		t.Fatal("Substitute refused queued pins")
	}
	var kinds []Kind
	for _, n := range q.Pending("f") {
		kinds = append(kinds, n.Kind)
	}
	if want := []Kind{KindUnlink, KindCreate, KindDelta}; !reflect.DeepEqual(kinds, want) {
		t.Fatalf("pending kinds for f = %v, want %v (older cycle kept, newest collapsed)", kinds, want)
	}
	if d.Seq != w.Seq {
		t.Fatalf("delta seq %d, want the write node's %d", d.Seq, w.Seq)
	}
	batches := q.PopReady(time.Minute)
	if len(batches) != 4 {
		t.Fatalf("batches = %+v, want 4", batches)
	}
	group := batches[3]
	if !group.Atomic || len(group.Nodes) != 2 || group.Nodes[0].Kind != KindMkdir || group.Nodes[1] != d {
		t.Fatalf("group batch = %+v, want atomic [mkdir, delta]", group)
	}
}

func TestBufferedBytesTracksSubstitute(t *testing.T) {
	q := New(delay)
	c := &Node{Kind: KindCreate, Path: "f"}
	q.Append(c)
	w := q.Write("f", 0, bytes.Repeat([]byte{1}, 1000), 0)
	if q.BufferedBytes() != 1000 {
		t.Fatalf("buffered = %d", q.BufferedBytes())
	}
	q.Pack("f")
	d := &Node{Path: "f", Delta: &rsync.Delta{Ops: []rsync.Op{{Kind: rsync.OpData, Data: []byte("xy")}}}}
	if !q.Substitute(d, []*Node{c, w}, q.TailSeq()) {
		t.Fatal("Substitute refused queued pins")
	}
	if q.BufferedBytes() != 2 {
		t.Fatalf("buffered after substitution = %d, want 2", q.BufferedBytes())
	}
}

func TestHasOpenAndPendingWrite(t *testing.T) {
	q := New(delay)
	if q.HasOpen("f") || q.HasPendingWrite("f") {
		t.Fatal("empty queue reports pending state")
	}
	q.Write("f", 0, []byte("x"), 0)
	if !q.HasOpen("f") || !q.HasPendingWrite("f") {
		t.Fatal("open write node not reported")
	}
	q.Pack("f")
	if q.HasOpen("f") {
		t.Fatal("packed node still open")
	}
	if !q.HasPendingWrite("f") {
		t.Fatal("packed pending write not reported")
	}
	popAll(q, time.Minute)
	if q.HasPendingWrite("f") {
		t.Fatal("uploaded write still pending")
	}
}

func TestOpenReady(t *testing.T) {
	q := New(delay)
	q.Write("old", 0, []byte("x"), 0)
	q.Write("new", 0, []byte("y"), 10*time.Second)
	ready := q.OpenReady(delay) // only "old" has aged
	if len(ready) != 1 || ready[0] != "old" {
		t.Fatalf("OpenReady = %v", ready)
	}
}

func BenchmarkWriteAttach(b *testing.B) {
	q := New(delay)
	data := bytes.Repeat([]byte{7}, 4096)
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		q.Write("f", int64(i)*4096, data, 0)
		if i%1024 == 1023 {
			q.Drain() // keep memory bounded
		}
	}
}

func BenchmarkPopReady(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		q := New(delay)
		for j := 0; j < 1000; j++ {
			q.Append(&Node{Kind: KindCreate, Path: "f", At: 0})
		}
		b.StartTimer()
		q.Drain()
	}
}
