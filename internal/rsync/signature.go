// Package rsync implements the rsync delta-encoding algorithm [Tridgell
// 1996] in the two forms the paper uses:
//
//   - the classic remote form (fixed-size blocks, rolling weak checksum, MD5
//     strong verification), as employed by Dropbox/librsync, and
//   - the DeltaCFS local form (paper §III-A): when both the old and the new
//     version of a file are on the same machine, strong checksums are
//     replaced by direct bitwise comparison, eliminating most of rsync's
//     per-byte CPU cost.
//
// All entry points charge a metrics.CPUMeter for the algorithmic work they
// perform, so the evaluation harness can report deterministic CPU ticks.
// The meter models the serial algorithm: the signature, which shards its base
// across workers, reports exactly the charges one pass would, so evaluation
// numbers are identical whatever the worker count — only wall-clock time
// changes. The delta scan itself is serial (Scanner, delta.go).
package rsync

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/block"
	"repro/internal/metrics"
)

// kernelWorkers overrides the kernel's parallelism when positive; zero (the
// default) means GOMAXPROCS. Set via SetWorkers.
var kernelWorkers atomic.Int32

// SetWorkers sets the number of concurrent shard workers the signature kernel
// may use. n <= 1 forces the serial path regardless of input size; n == 0
// restores the default (GOMAXPROCS). Safe to call concurrently,
// though it is intended for process setup and benchmarks.
func SetWorkers(n int) {
	if n < 0 {
		n = 0
	}
	kernelWorkers.Store(int32(n))
}

// workerCount returns the effective shard-worker count.
func workerCount() int {
	if n := int(kernelWorkers.Load()); n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// sigParallelMin is the base size, in bytes, below which signatures are
// always computed serially. Below this the spawn/join overhead of shard
// goroutines exceeds the hashing work itself (a 1 MiB base is 256 default
// blocks, tens of microseconds of checksumming), and keeping small files on
// the serial path also keeps them allocation-free beyond the signature
// itself. Declared as a variable so tests can force the parallel path on
// small inputs.
var sigParallelMin = 1 << 20

// sigBlocksPool recycles per-file signature block slices, the dominant
// allocation of repeated DeltaLocal calls on large files.
var sigBlocksPool sync.Pool

func getSigBlocks(n int) []block.Sig {
	if v := sigBlocksPool.Get(); v != nil {
		if b := v.([]block.Sig); cap(b) >= n {
			return b[:n]
		}
	}
	return make([]block.Sig, n)
}

// Sig is the signature of a base file: per-block weak (and optionally
// strong) checksums. It corresponds to what an rsync receiver transmits to
// the sender; in DeltaCFS's local mode it is computed in place and never
// crosses the network.
//
// A *Sig is safe to share across goroutines once constructed: the weak-index
// map is built exactly once behind a sync.Once, and all other fields are
// immutable after the constructor returns.
type Sig struct {
	BlockSize int
	FileLen   int64
	Blocks    []block.Sig
	// HasStrong reports whether Blocks[i].Strong is populated. The local
	// (bitwise-comparison) mode skips strong checksums entirely.
	HasStrong bool

	indexOnce sync.Once
	weakIndex map[uint32][]int
}

// Signature computes the full (weak + strong) signature of base using the
// given block size, charging meter for the rolling and MD5 passes. blockSize
// must be positive; callers normally pass block.DefaultBlockSize.
func Signature(base []byte, blockSize int, meter *metrics.CPUMeter) *Sig {
	s := signature(base, blockSize, true)
	meter.RollingHash(int64(len(base)))
	meter.StrongHash(int64(len(base)))
	return s
}

// WeakSignature computes a weak-only signature of base. This is the
// signature DeltaCFS's local mode uses: strong checksums are unnecessary
// because candidate matches are verified by bitwise comparison against the
// local base bytes.
func WeakSignature(base []byte, blockSize int, meter *metrics.CPUMeter) *Sig {
	s := signature(base, blockSize, false)
	meter.RollingHash(int64(len(base)))
	return s
}

// signature builds the per-block checksum table, sharding the base across
// workerCount() goroutines when the file is large enough to amortize the
// fan-out. Every block's checksum is a pure function of its bytes, so the
// shard split cannot change the result.
func signature(base []byte, blockSize int, withStrong bool) *Sig {
	if blockSize <= 0 {
		blockSize = block.DefaultBlockSize
	}
	nBlocks := (len(base) + blockSize - 1) / blockSize
	s := &Sig{
		BlockSize: blockSize,
		FileLen:   int64(len(base)),
		Blocks:    getSigBlocks(nBlocks),
		HasStrong: withStrong,
	}
	workers := workerCount()
	if len(base) < sigParallelMin || workers <= 1 || nBlocks < 2 {
		block.SumRange(s.Blocks, base, blockSize, withStrong, 0, nBlocks)
		return s
	}
	if workers > nBlocks {
		workers = nBlocks
	}
	per := (nBlocks + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < nBlocks; lo += per {
		hi := lo + per
		if hi > nBlocks {
			hi = nBlocks
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			block.SumRange(s.Blocks, base, blockSize, withStrong, lo, hi)
		}(lo, hi)
	}
	wg.Wait()
	return s
}

// Release returns the signature's block storage to the package pool. Only
// the owner of the signature may call it, and only when no goroutine will
// touch the signature again (DeltaLocal releases its internal signature this
// way). The signature must not be used after Release.
func (s *Sig) Release() {
	if s == nil {
		return
	}
	if s.Blocks != nil {
		sigBlocksPool.Put(s.Blocks[:0])
	}
	s.Blocks = nil
	s.weakIndex = nil
	s.indexOnce = sync.Once{}
}

// index returns the weak-checksum → block-indexes map, building it exactly
// once. The sync.Once makes a shared *Sig safe: two goroutines racing into
// index() observe one fully built map (the previous lazy build with no
// synchronization corrupted the map under concurrent DeltaRemote calls).
// Only full-size blocks participate in rolling matches; a short trailing
// block is matched separately by the delta routines.
func (s *Sig) index() map[uint32][]int {
	s.indexOnce.Do(s.buildIndex)
	return s.weakIndex
}

func (s *Sig) buildIndex() {
	m := make(map[uint32][]int, len(s.Blocks))
	for i, b := range s.Blocks {
		if s.blockLen(i) != s.BlockSize {
			continue
		}
		m[b.Weak] = append(m[b.Weak], i)
	}
	s.weakIndex = m
}

// blockLen returns the length in bytes of block i.
func (s *Sig) blockLen(i int) int {
	lo := int64(i) * int64(s.BlockSize)
	if lo >= s.FileLen {
		return 0
	}
	n := s.FileLen - lo
	if n > int64(s.BlockSize) {
		n = int64(s.BlockSize)
	}
	return int(n)
}

// tailBlock returns the index of a short trailing block, or -1 if the file
// length is an exact multiple of the block size (or the file is empty).
func (s *Sig) tailBlock() int {
	if len(s.Blocks) == 0 {
		return -1
	}
	last := len(s.Blocks) - 1
	if s.blockLen(last) == s.BlockSize {
		return -1
	}
	return last
}
