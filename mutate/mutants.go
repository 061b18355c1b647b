package main

// The mutant table. Each row names an invariant the tree claims, a site by
// file and function (never by line, so the table survives edits elsewhere),
// and the operator that breaks the invariant there. Within a function, Nth
// counts matching sites in source order. Func may list alternatives
// separated by "|": the first that exists is used.
var mutants = []Mutant{
	// lock pair dropped
	{ID: "R1", Class: classLock, File: "internal/server/shard.go", Func: "clientState.enqueue", Op: dropLock("cs.outMu", 0)},
	{ID: "R2", Class: classLock, File: "internal/server/shard.go", Func: "clientState.drain", Op: dropLock("cs.outMu", 0)},
	{ID: "R3", Class: classLock, File: "internal/server/server.go", Func: "appliedLog.append", Op: dropLock("l.mu", 0)},
	{ID: "R4", Class: classLock, File: "internal/kvstore/kvstore.go", Func: "Store.Put", Op: dropLock("s.mu", 0)},
	{ID: "R5", Class: classLock, File: "internal/core/engine.go", Func: "Engine.WriteAt", Op: dropLock("e.mu", 0)},
	{ID: "R6", Class: classLock, File: "internal/kvstore/kvstore.go", Func: "Store.Delete", Op: dropLock("s.mu", 0)},
	{ID: "R7", Class: classLock, File: "internal/server/server.go", Func: "Server.storeChunk", Op: dropLock("s.chunkMu", 0)},
	{ID: "R8", Class: classLock, File: "internal/core/engine.go", Func: "Engine.Truncate", Op: dropLock("e.mu", 0)},
	{ID: "R9", Class: classLock, File: "internal/core/engine.go", Func: "Engine.Unlink", Op: dropLock("e.mu", 0)},
	{ID: "R10", Class: classLock, File: "internal/server/persist.go", Func: "Server.Load", Op: dropLock("s.chunkMu", 0)},

	// publish then mutate
	{ID: "A1", Class: classPublish, File: "internal/server/server.go", Func: "Server.joinGroupLocked", Op: hoist("Store", 0, 1, false),
		Equivalent: "the caller holds clientMu across the Store and the insert, and both readers of members (forward, capture) take clientMu"},
	{ID: "A2", Class: classPublish, File: "internal/server/server.go", Func: "Server.enterDegraded",
		Op: rewrite("s.degraded.CompareAndSwap(nil, &reason)", "p := new(string); s.degraded.CompareAndSwap(nil, p); *p = reason", 0)},

	// use after Put
	{ID: "P1", Class: classPut, File: "internal/wire/transport.go", Func: "connCodec.writeResponse", Op: hoist("putFrameBuf", 0, 2, false)},
	{ID: "P2", Class: classPut, File: "internal/wire/transport.go", Func: "NetClient.exchange", Op: hoist("putFrameBuf", 0, 2, false)},
	{ID: "P3", Class: classPut, File: "internal/rsync/delta.go", Func: "Scanner.emitCopy",
		Op: rewrite("s.d.Ops[k-1].Data = lit[:len(lit)-g]", "litPool.Put(lit[:0]); s.d.Ops[k-1].Data = lit[:len(lit)-g]", 0)},
	{ID: "P4", Class: classPut, File: "internal/core/engine.go", Func: "Engine.substitute",
		Op: rewrite("e.q.Substitute(d, pins, tail)", "func() bool { d.Delta.Release(); return e.q.Substitute(d, pins, tail) }()", 0)},

	// Close dropped
	{ID: "L1", Class: classClose, File: "internal/wire/transport.go", Func: "serveConn", Op: dropCall("Close", 0)},
	{ID: "L2", Class: classClose, File: "internal/kvstore/kvstore.go", Func: "Store.compactLocked", Op: dropCall("Close", 0)},
	{ID: "L3", Class: classClose, File: "internal/server/persist.go", Func: "Server.SaveFile", Op: dropCall("Close", 0)},
	{ID: "L4", Class: classClose, File: "internal/wire/transport.go", Func: "handshake|DialWith", Op: dropCall("Close", 1)},
	{ID: "L5", Class: classClose, File: "internal/kvstore/kvstore.go", Func: "Store.loadSnapshot", Op: dropCall("Close", 0)},
	{ID: "L6", Class: classClose, File: "internal/wire/transport.go", Func: "handshake|DialWith", Op: dropCall("Close", 0)},

	// fsync or directory fsync dropped
	{ID: "F1", Class: classSync, File: "internal/kvstore/kvstore.go", Func: "Store.commitUpTo", Op: dropCall("Sync", 0)},
	{ID: "F2", Class: classSync, File: "internal/kvstore/kvstore.go", Func: "Store.compactLocked", Op: dropCall("syncDir", 0)},
	{ID: "F3", Class: classSync, File: "internal/kvstore/kvstore.go", Func: "Store.compactLocked", Op: dropCall("Sync", 0)},
	{ID: "F12", Class: classSync, File: "internal/server/persist.go", Func: "Server.SaveFile", Op: dropCall("Sync", 0)},
	{ID: "F13", Class: classSync, File: "internal/server/persist.go", Func: "Server.SaveFile",
		Op: rewrite("syncDir(s.fsys, filepath.Dir(path))", "func(string) error { return nil }(filepath.Dir(path))", 0)},
	{ID: "F14", Class: classSync, File: "internal/undolog/persist.go", Func: "Log.SaveTo",
		Op: rewrite("fsys.SyncDir(filepath.Dir(path))", "func(string) error { return nil }(filepath.Dir(path))", 0)},

	// durability error discarded
	{ID: "F4", Class: classErr, File: "internal/undolog/persist.go", Func: "Log.SaveTo", Op: discardErr("Sync", 0)},
	{ID: "F15", Class: classErr, File: "internal/kvstore/kvstore.go", Func: "Store.Close", Op: discardErr("Sync", 0)},
	{ID: "F16", Class: classErr, File: "internal/server/persist.go", Func: "Server.SaveFile", Op: discardErr("Rename", 0)},

	// Validate dropped
	{ID: "F5", Class: classValidate, File: "internal/server/server.go", Func: "Server.PushEncoded", Op: dropCall("Validate", 0)},
	{ID: "F6", Class: classValidate, File: "internal/core/sync.go", Func: "Engine.applyRemote", Op: dropCall("Validate", 0)},

	// bounds check off by one or dropped
	{ID: "F7", Class: classBounds, File: "internal/rsync/delta.go", Func: "Delta.Check", Op: rewrite("op.Off+op.Len > baseLen", "op.Off+op.Len > baseLen+1", 0)},
	{ID: "W1", Class: classBounds, File: "internal/wire/codec.go", Func: "readFrame", Op: rewrite("n < 1 || n > MaxFrameSize", "n < 1", 0)},
	{ID: "W2", Class: classBounds, File: "internal/wire/codec.go", Func: "reader.count", Op: rewrite("int64(n)*int64(minElem) > int64(r.remaining())", "false", 0)},
	{ID: "W3", Class: classBounds, File: "internal/wire/codec.go", Func: "reader.batch", Op: rewrite("n > MaxBatchNodes", "false", 0)},

	// blocking work moved under a lock
	{ID: "F9", Class: classBlock, File: "internal/kvstore/kvstore.go", Func: "Store.commitUpTo", Op: hoist("Sync", 0, 2, false)},
	{ID: "B1", Class: classBlock, File: "internal/kvstore/kvstore.go", Func: "Store.kickCommit", Op: rewrite("\tdefault:\n", "", 0)},

	// lock order reversed
	{ID: "F10", Class: classOrder, File: "internal/server/shard.go", Func: "Server.lockSetFor",
		Op: rewrite("bl.idxs[i] < bl.idxs[j]", "bl.idxs[i] > bl.idxs[j]", 0)},

	// journal skipped or moved after apply
	{ID: "F11", Class: classJournal, File: "internal/server/server.go", Func: "Server.PushEncoded", Op: dropCall("Record", 0)},
	{ID: "J1", Class: classJournal, File: "internal/server/server.go", Func: "Server.PushEncoded", Op: hoist("pushAtomic", 0, 1, true)},
	{ID: "J2", Class: classJournal, File: "internal/kvstore/kvstore.go", Func: "Store.Put",
		Op: rewrite("valCopy := append([]byte(nil), val...)", "valCopy := append([]byte(nil), val...); s.table[string(key)] = valCopy", 0)},

	// (Client, Seq) dedup skipped
	{ID: "S1", Class: classDedup, File: "internal/server/server.go", Func: "Server.PushEncoded",
		Op: rewrite("if b.Seq <= cs.dedup.maxSeq {", "if false && b.Seq <= cs.dedup.maxSeq {", 0)},

	// substitution rule dropped: a triggered delta replaces its pinned nodes
	// only if they are all still queued and it is smaller on the wire
	{ID: "T1", Class: classSubst, File: "internal/core/engine.go", Func: "Engine.substitute",
		Op: rewrite("wireSize(d) < wireSize(pins...) && ", "", 0)},
	{ID: "T2", Class: classSubst, File: "internal/syncqueue/syncqueue.go", Func: "Queue.Substitute",
		Op: rewrite("p.Seq < q.baseSeq || i < q.head || i >= len(q.nodes) || q.nodes[i] != p", "false && i >= 0", 0)},

	// order-defining sort dropped
	{ID: "D1", Class: classSort, File: "internal/server/server.go", Func: "Server.Files", Op: dropCall("Strings", 0)},
}

// Operator classes: the invariant a mutant breaks.
const (
	classLock     = "lock pair dropped"
	classPublish  = "publish then mutate"
	classPut      = "use after Put"
	classClose    = "Close dropped"
	classSync     = "fsync dropped"
	classErr      = "durability error discarded"
	classValidate = "Validate dropped"
	classBounds   = "bounds check broken"
	classBlock    = "blocking call under lock"
	classOrder    = "lock order reversed"
	classJournal  = "journal skipped or late"
	classDedup    = "dedup skipped"
	classSort     = "sort dropped"
	classSubst    = "substitution rule dropped"
)
