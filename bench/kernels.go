package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/block"
	"repro/internal/integrity"
	"repro/internal/kvstore"
	"repro/internal/rsync"
	"repro/internal/server"
	"repro/internal/syncqueue"
	"repro/internal/undolog"
	"repro/internal/version"
	"repro/internal/wire"
)

// Direct-call kernels: one layer's public function on a fixed seeded input
// shaped like the workload that leans on it, single-threaded, with no stack
// around it. They say what a layer costs alone; the span-derived metrics say
// what it costs in place. Each figure is the median of kernelRounds rounds.
const kernelRounds = 5

// kernelCost is one kernel's cost per operation.
type kernelCost struct {
	ns, allocBytes, allocs float64
}

// timeKernel runs round() kernelRounds times; a round performs ops
// operations. The memory figures come from the last round.
func timeKernel(ops int, round func()) kernelCost {
	var ns []float64
	var ms0, ms1 runtime.MemStats
	for i := 0; i < kernelRounds; i++ {
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		round()
		d := time.Since(t0)
		runtime.ReadMemStats(&ms1)
		ns = append(ns, float64(d)/float64(ops))
	}
	return kernelCost{ns: median(ns),
		allocBytes: float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(ops),
		allocs:     float64(ms1.Mallocs-ms0.Mallocs) / float64(ops)}
}

func mbPerS(bytes int, c kernelCost) float64 { return float64(bytes) / mb / (c.ns / 1e9) }

// runKernels measures every kernel into m. dir holds the on-disk stores.
func runKernels(m map[string]float64, seed int64, dir string) error {
	rng := rand.New(rand.NewSource(seed + 5000))
	random := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}

	// rsync: a 4 MiB document and its next save — eight 200-byte edits and
	// a 24 KiB insertion, as trace.Word makes them.
	rsync.SetWorkers(1)
	defer rsync.SetWorkers(0)
	base := random(4 << 20)
	target := append([]byte(nil), base...)
	for e := 0; e < 8; e++ {
		off := rng.Intn(len(target) - 200)
		rng.Read(target[off : off+200])
	}
	pos := rng.Intn(len(target))
	target = append(target[:pos:pos], append(random(24<<10), target[pos:]...)...)
	c := timeKernel(1, func() { rsync.DeltaLocal(base, target, block.DefaultBlockSize, nil).Release() })
	m["rsync.delta_local_mb_s"], m["rsync.delta_local_alloc_mb"] = mbPerS(len(target), c), c.allocBytes/mb
	delta := rsync.DeltaLocal(base, target, block.DefaultBlockSize, nil)
	var patchErr error
	c = timeKernel(1, func() { _, patchErr = rsync.Patch(base, delta, nil) })
	if patchErr != nil {
		return fmt.Errorf("kernel rsync.patch: %w", patchErr)
	}
	m["rsync.patch_mb_s"] = mbPerS(len(target), c)

	// syncqueue: an application streaming a 4 MiB file in 64 KiB writes
	// (word_txn, bulk_append), and 1 KiB writes scattered over a file
	// (sqlite_inplace), each released through PopReady.
	chunk := random(64 << 10)
	c = timeKernel(1, func() {
		q := syncqueue.New(syncqueue.DefaultDelay)
		for off := 0; off < 4<<20; off += len(chunk) {
			q.Write("f", int64(off), chunk, 0)
		}
		q.PopReady(time.Hour)
	})
	m["syncqueue.seq_write_mb_s"] = mbPerS(4<<20, c)
	const smallWrites = 256
	offs := make([]int64, smallWrites)
	for i := range offs {
		offs[i] = int64(rng.Intn(32<<20)) &^ 4095 // distinct pages, so nothing coalesces
	}
	c = timeKernel(smallWrites, func() {
		q := syncqueue.New(syncqueue.DefaultDelay)
		for _, off := range offs {
			q.Write("f", off, chunk[:1024], 0)
		}
		q.Pack("f")
		q.PopReady(time.Hour)
	})
	m["syncqueue.small_write_ns"] = c.ns

	// wire codec: the 800 KiB write batch of bulk_append and the 256 B
	// full-file batch of small_push, through AppendBatch and back.
	ctr := version.NewCounter(1)
	bulk := &wire.Batch{Client: 1, Seq: 1, Nodes: []*wire.Node{{Kind: wire.NWrite, Path: "append0.dat",
		Extents: []wire.Extent{{Off: 0, Data: random(800 << 10)}}, Ver: ctr.Next()}}}
	small := &wire.Batch{Client: 1, Seq: 1, Nodes: []*wire.Node{{Kind: wire.NFull, Path: "c0/f0001",
		Full: random(256), Ver: ctr.Next()}}}
	var buf []byte
	c = timeKernel(20, func() {
		for i := 0; i < 20; i++ {
			buf = wire.AppendBatch(buf[:0], bulk)
		}
	})
	m["wire.encode_bulk_mb_s"] = mbPerS(800<<10, c)
	var decErr error
	c = timeKernel(20, func() {
		for i := 0; i < 20; i++ {
			_, decErr = wire.DecodeBatchPayload(buf, true)
		}
	})
	m["wire.decode_bulk_mb_s"] = mbPerS(800<<10, c)
	const smallOps = 20000
	var sbuf []byte
	c = timeKernel(smallOps, func() {
		for i := 0; i < smallOps; i++ {
			sbuf = wire.AppendBatch(sbuf[:0], small)
		}
	})
	m["wire.encode_small_ns"], m["wire.encode_small_allocs"] = c.ns, c.allocs
	c = timeKernel(smallOps, func() {
		for i := 0; i < smallOps && decErr == nil; i++ {
			_, decErr = wire.DecodeBatchPayload(sbuf, true)
		}
	})
	if decErr != nil {
		return fmt.Errorf("kernel wire.decode: %w", decErr)
	}
	m["wire.decode_small_ns"] = c.ns

	// server: PushEncoded with no wire and no journal. Small: 256 B files
	// over 4096 paths (small_push). Big file: a 1 KiB extent into a 32 MiB
	// file (sqlite_inplace), which is where the per-push copy shows.
	srv := server.New(nil)
	from := srv.Register()
	ctr = version.NewCounter(from)
	paths := make([]string, 4096)
	vers := make([]version.ID, len(paths))
	for i := range paths {
		paths[i] = fmt.Sprintf("c0/f%04d", i)
	}
	payload := random(256)
	var seq uint64
	pushFailed := 0
	push := func(n *wire.Node) {
		seq++
		r := srv.PushEncoded(from, wire.NewEncodedBatch(&wire.Batch{Client: from, Seq: seq, Nodes: []*wire.Node{n}}))
		if r.Err != "" || r.Statuses[0] != wire.StatusOK {
			pushFailed++
		}
	}
	const pushOps = 5000
	c = timeKernel(pushOps, func() {
		for i := 0; i < pushOps; i++ {
			p := (i * 31) % len(paths)
			n := &wire.Node{Kind: wire.NFull, Path: paths[p], Full: payload, Base: vers[p], Ver: ctr.Next()}
			push(n)
			vers[p] = n.Ver
		}
	})
	m["server.push_inproc_small_us"] = c.ns / 1e3
	srv.SeedFile("chat.db", random(32<<20))
	var bigVer version.ID
	const bigOps = 10
	c = timeKernel(bigOps, func() {
		for i := 0; i < bigOps; i++ {
			n := &wire.Node{Kind: wire.NWrite, Path: "chat.db", Base: bigVer, Ver: ctr.Next(),
				Extents: []wire.Extent{{Off: int64(rng.Intn(32<<20 - 1024)), Data: payload[:256]}}}
			push(n)
			bigVer = n.Ver
		}
	})
	m["server.push_inproc_bigfile_us"] = c.ns / 1e3
	if pushFailed > 0 {
		return fmt.Errorf("kernel server.push: %d pushes refused", pushFailed)
	}

	// kvstore: the client checksum store of fileserver_mix, on disk. put is
	// the buffered WAL append; put_sync adds the fsync, whose time is this
	// sandbox's disk and nothing else's.
	kv, err := kvstore.Open(filepath.Join(dir, "kernel-kv"))
	if err != nil {
		return err
	}
	key := []byte("c/fsrv/f000/00000000")
	var kvErr error
	const putOps = 20000
	c = timeKernel(putOps, func() {
		for i := 0; i < putOps && kvErr == nil; i++ {
			key[len(key)-1] = byte(i)
			key[len(key)-2] = byte(i >> 8)
			kvErr = kv.Put(key, payload[:4])
		}
	})
	m["kvstore.put_ns"] = c.ns
	const syncOps = 20
	c = timeKernel(syncOps, func() {
		for i := 0; i < syncOps && kvErr == nil; i++ {
			if kvErr = kv.Put(key, payload[:4]); kvErr == nil {
				kvErr = kv.Sync()
			}
		}
	})
	m["kvstore.put_sync_us"] = c.ns / 1e3
	if err := kv.Close(); kvErr != nil || err != nil {
		return fmt.Errorf("kernel kvstore: %v, close: %v", kvErr, err)
	}

	// integrity: checksum upkeep and verification of a 1 MiB file, over a
	// memory-only store so that only the layer itself is timed.
	mem, err := kvstore.Open("")
	if err != nil {
		return err
	}
	integ := integrity.New(mem, nil)
	content := base[:1<<20]
	readBlock := func(b int64) ([]byte, error) {
		return content[b*integrity.BlockSize : (b+1)*integrity.BlockSize], nil
	}
	var intErr error
	c = timeKernel(1, func() { intErr = integ.UpdateRange("f", 0, int64(len(content)), readBlock) })
	m["integrity.update_mb_s"] = mbPerS(len(content), c)
	c = timeKernel(1, func() {
		if bad, err := integ.Verify("f", content); err != nil || len(bad) > 0 {
			intErr = fmt.Errorf("verify: %d bad blocks, %v", len(bad), err)
		}
	})
	m["integrity.verify_mb_s"] = mbPerS(len(content), c)
	if intErr != nil {
		return fmt.Errorf("kernel integrity: %w", intErr)
	}

	// undolog: preserving the old bytes before a 4 KiB write lands in a
	// tracked 32 MiB file (sqlite_inplace's page writes).
	big := random(32 << 20)
	read := func(off, n int64) ([]byte, error) { return big[off : off+n], nil }
	var undoErr error
	c = timeKernel(smallWrites, func() {
		l := undolog.New(nil)
		l.Track("chat.db", int64(len(big)))
		for _, off := range offs {
			if off+4096 > int64(len(big)) {
				continue
			}
			if err := l.BeforeWrite("chat.db", off, 4096, read); err != nil {
				undoErr = err
			}
		}
	})
	m["undolog.before_write_us"] = c.ns / 1e3
	return undoErr
}
