package server

import (
	"sort"
	"sync"
	"sync/atomic"
)

// The applied-op log records the order in which content-bearing nodes were
// committed — the input of the upload-ordering experiment (Table IV) and of
// the server's durable snapshot. Until PR 6 it was a single slice behind one
// global mutex (appliedMu), which made it the last whole-server
// serialization point on the commit path: every transaction, on every shard,
// funneled through the same lock to append its ops.
//
// The striped log removes that funnel while keeping a total commit order:
//
//   - a global atomic counter assigns each committed op a dense sequence
//     number; the counter is bumped once per transaction (Add(len(ops))),
//     so a batch's ops stay contiguous;
//   - the ops are appended, with their sequence numbers, to ONE stripe
//     chosen by the batch's last sequence number — consecutive commits
//     land on different stripes, so concurrent transactions almost never
//     share an append lock;
//   - readers (AppliedLog, Save) merge: each stripe is copied under its own
//     lock, one at a time, and the union is sorted by sequence number. The
//     merge is O(n log n) but runs only on snapshot/observation paths,
//     never on the commit path.
//
// Because sequence numbers are assigned while the committing transaction
// still holds its batch's shard locks, two batches touching the same path
// get sequence numbers in their commit order; the merged view is therefore
// a linearization of the per-path commit orders, exactly as the single
// mutex provided. A 1-stripe log (the oracle and baseline configuration)
// degenerates to the old appliedMu behavior: one mutex, append order ==
// sequence order.
//
// Lock ordering: appliedStripe.mu is a leaf (level 6 in shard.go's table).
// append takes exactly one stripe lock; merge paths take one stripe lock at
// a time, never nested, with any earlier-level locks (Save's quiesce set)
// already held.

// appliedRec is one committed op with its global sequence number.
type appliedRec struct {
	seq uint64
	op  AppliedOp
}

// appliedStripe is one lock stripe of the applied-op log.
type appliedStripe struct {
	mu   sync.Mutex
	recs []appliedRec
}

// appliedLog is the striped applied-op log.
type appliedLog struct {
	seq     atomic.Uint64
	mask    uint32
	stripes []appliedStripe
}

// newAppliedLog returns an empty log with the given stripe count (rounded up
// to a power of two, minimum 1). One stripe reproduces the historical
// global-mutex behavior and is what the 1-shard oracle configuration uses.
func newAppliedLog(stripes int) *appliedLog {
	n := 1
	for n < stripes {
		n <<= 1
	}
	return &appliedLog{mask: uint32(n - 1), stripes: make([]appliedStripe, n)}
}

// append assigns the ops contiguous sequence numbers and appends them to one
// stripe. It returns the last sequence number assigned (0 if ops is empty).
// The caller is the committing transaction, still holding its batch's shard
// locks, which is what makes same-path sequence order equal commit order.
func (l *appliedLog) append(ops []AppliedOp) uint64 {
	if len(ops) == 0 {
		return 0
	}
	last := l.seq.Add(uint64(len(ops)))
	st := &l.stripes[uint32(last)&l.mask]
	st.mu.Lock()
	first := last - uint64(len(ops)) + 1
	for i, op := range ops {
		st.recs = append(st.recs, appliedRec{seq: first + uint64(i), op: op})
	}
	st.mu.Unlock()
	return last
}

// snapshot merges the stripes into the committed order: the union of all
// stripes sorted by sequence number. Stripe locks are taken one at a time.
func (l *appliedLog) snapshot() []AppliedOp {
	var recs []appliedRec
	for i := range l.stripes {
		st := &l.stripes[i]
		st.mu.Lock()
		recs = append(recs, st.recs...)
		st.mu.Unlock()
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].seq < recs[j].seq })
	out := make([]AppliedOp, len(recs))
	for i, r := range recs {
		out[i] = r.op
	}
	return out
}

// replace resets the log to exactly ops, in order (snapshot restore). The
// ops are re-sequenced 1..len and land in stripe 0; subsequent appends
// continue the sequence across all stripes.
func (l *appliedLog) replace(ops []AppliedOp) {
	for i := range l.stripes {
		st := &l.stripes[i]
		st.mu.Lock()
		st.recs = nil
		st.mu.Unlock()
	}
	st := &l.stripes[0]
	st.mu.Lock()
	for i, op := range ops {
		st.recs = append(st.recs, appliedRec{seq: uint64(i + 1), op: op})
	}
	st.mu.Unlock()
	l.seq.Store(uint64(len(ops)))
}
