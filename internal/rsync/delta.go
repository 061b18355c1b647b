package rsync

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"repro/internal/block"
	"repro/internal/extent"
	"repro/internal/metrics"
)

// OpKind discriminates delta operations.
type OpKind uint8

const (
	// OpCopy copies Len bytes from offset Off of the base file.
	OpCopy OpKind = iota
	// OpData inserts the literal bytes in Data.
	OpData
)

// Op is one delta instruction.
type Op struct {
	Kind OpKind
	Off  int64  // base-file offset (OpCopy only)
	Len  int64  // byte count (OpCopy only; OpData uses len(Data))
	Data []byte // literal bytes (OpData only)
}

// Delta encodes a target file as a sequence of copies from a base file plus
// literal data, exactly as an rsync sender would emit.
type Delta struct {
	BlockSize int
	BaseLen   int64
	TargetLen int64
	Ops       []Op
}

// LiteralBytes returns the total number of literal bytes carried by the
// delta — the data that must actually cross the network.
func (d *Delta) LiteralBytes() int64 {
	var n int64
	for _, op := range d.Ops {
		if op.Kind == OpData {
			n += int64(len(op.Data))
		}
	}
	return n
}

// WireSize returns the serialized size of the delta in bytes: literal data
// plus a fixed per-op header. This is what the traffic accounting uses.
func (d *Delta) WireSize() int64 {
	const opHeader = 17 // kind(1) + off(8) + len(8)
	return d.LiteralBytes() + int64(len(d.Ops))*opHeader + 24
}

// DeltaRemote computes the delta from the base described by sig to target,
// using strong-checksum verification as classic rsync does. sig must carry
// strong checksums. The meter is charged for the rolling scan over target
// and an MD5 verification per candidate match.
func DeltaRemote(sig *Sig, target []byte, meter *metrics.CPUMeter) (*Delta, error) {
	if !sig.HasStrong {
		return nil, errors.New("rsync: DeltaRemote requires a strong signature")
	}
	return computeDelta(sig, nil, target, meter), nil
}

// DeltaLocal computes the delta from base to target with both files local,
// per the paper's §III-A optimization: a weak-only signature of base is
// built and candidate matches are verified by bitwise comparison instead of
// MD5. This is the delta encoder DeltaCFS triggers on transactional updates.
func DeltaLocal(base, target []byte, blockSize int, meter *metrics.CPUMeter) *Delta {
	sig := WeakSignature(base, blockSize, meter)
	d := computeDelta(sig, base, target, meter)
	// The signature never escapes; recycle its block storage.
	sig.Release()
	return d
}

// deltaParallelMin is the target size, in bytes, below which the delta scan
// always runs serially: sharding a sub-megabyte scan costs more in fan-out
// and stitching than the scan itself. A variable so tests can force the
// parallel scan on small inputs.
var deltaParallelMin = 1 << 20

// computeDelta runs the block-matching scan, choosing the sharded scan for
// large targets when workers are available. Both paths produce the identical
// op stream and meter charges (see parallel.go for the argument).
func computeDelta(sig *Sig, baseData, target []byte, meter *metrics.CPUMeter) *Delta {
	if workers := workerCount(); workers > 1 && len(target) >= deltaParallelMin &&
		len(target)-sig.BlockSize+1 >= 2*workers {
		return computeDeltaParallel(sig, baseData, target, meter)
	}
	return computeDeltaSerial(sig, baseData, target, meter)
}

// computeDeltaSerial is the canonical single-goroutine scan. If baseData is
// non-nil, matches are verified bitwise against it (local mode); otherwise
// they are verified with strong checksums from sig (remote mode).
func computeDeltaSerial(sig *Sig, baseData, target []byte, meter *metrics.CPUMeter) *Delta {
	d := &Delta{
		BlockSize: sig.BlockSize,
		BaseLen:   sig.FileLen,
		TargetLen: int64(len(target)),
	}
	bs := sig.BlockSize
	idx := sig.index()

	var litStart int // start of the pending literal run
	flushLiteral := func(end int) {
		if end > litStart {
			d.appendData(target[litStart:end])
		}
	}

	verify := func(blockIdx int, window []byte) bool {
		if baseData != nil {
			lo := blockIdx * bs
			meter.Compare(int64(bs))
			return bytes.Equal(window, baseData[lo:lo+bs])
		}
		meter.StrongHash(int64(bs))
		return block.StrongSum(window) == sig.Blocks[blockIdx].Strong
	}

	pos := 0
	var roll block.Rolling
	haveWindow := false
	for pos+bs <= len(target) {
		if !haveWindow {
			roll = block.NewRolling(target[pos : pos+bs])
			meter.RollingHash(int64(bs))
			haveWindow = true
		}
		matched := -1
		if cands, ok := idx[roll.Sum()]; ok {
			for _, c := range cands {
				if verify(c, target[pos:pos+bs]) {
					matched = c
					break
				}
			}
		}
		if matched >= 0 {
			flushLiteral(pos)
			d.appendCopy(int64(matched)*int64(bs), int64(bs))
			pos += bs
			litStart = pos
			haveWindow = false
			continue
		}
		// Slide the window one byte.
		if pos+bs < len(target) {
			roll.Roll(target[pos], target[pos+bs])
			meter.RollingHash(1)
		}
		pos++
	}

	// A short trailing block of the base can still match the final bytes of
	// the target (rsync emits the last short block only at end of file).
	if tail := sig.tailBlock(); tail >= 0 {
		tl := sig.blockLen(tail)
		start := len(target) - tl
		if tl > 0 && start >= pos {
			rem := target[start:]
			ok := false
			if baseData != nil {
				lo := tail * bs
				meter.Compare(int64(tl))
				ok = bytes.Equal(rem, baseData[lo:lo+tl])
			} else {
				meter.RollingHash(int64(tl))
				if block.WeakSum(rem) == sig.Blocks[tail].Weak {
					meter.StrongHash(int64(tl))
					ok = block.StrongSum(rem) == sig.Blocks[tail].Strong
				}
			}
			if ok {
				flushLiteral(start)
				d.appendCopy(int64(tail)*int64(bs), int64(tl))
				litStart = len(target)
			}
		}
	}
	flushLiteral(len(target))
	return d
}

// appendCopy adds a copy op, coalescing with a contiguous preceding copy.
func (d *Delta) appendCopy(off, n int64) {
	if k := len(d.Ops); k > 0 {
		last := &d.Ops[k-1]
		if last.Kind == OpCopy && last.Off+last.Len == off {
			last.Len += n
			return
		}
	}
	d.Ops = append(d.Ops, Op{Kind: OpCopy, Off: off, Len: n})
}

// litPool recycles literal-run buffers between deltas whose owners call
// Release. Buffers grow by append inside appendData, so pooled capacity is
// reused even when a literal run ends up larger than the pooled buffer was.
var litPool sync.Pool

func getLitBuf() []byte {
	if v := litPool.Get(); v != nil {
		return v.([]byte)[:0]
	}
	return nil
}

// appendData adds a literal op, coalescing with a preceding literal. The
// bytes are copied, so the caller's buffer may be reused.
func (d *Delta) appendData(p []byte) {
	if k := len(d.Ops); k > 0 {
		last := &d.Ops[k-1]
		if last.Kind == OpData {
			last.Data = append(last.Data, p...)
			return
		}
	}
	d.Ops = append(d.Ops, Op{Kind: OpData, Data: append(getLitBuf(), p...)})
}

// Release returns the delta's literal buffers to the package pool and clears
// the op list. Only the delta's sole owner may call it, and only when the
// delta was never handed to the sync queue, the wire layer, or a server —
// those paths retain the Data slices. It exists for call sites that compute a
// delta, read its WireSize, and discard it (the in-place sizing check in
// internal/core, benchmarks).
func (d *Delta) Release() {
	if d == nil {
		return
	}
	for i := range d.Ops {
		if d.Ops[i].Kind == OpData && d.Ops[i].Data != nil {
			litPool.Put(d.Ops[i].Data[:0])
			d.Ops[i].Data = nil
		}
	}
	d.Ops = d.Ops[:0]
}

// maxPatchPrealloc caps how much memory Patch commits up front on the word
// of a wire-decoded TargetLen. A hostile delta claiming a huge target gets a
// bounded initial buffer and then has to actually send the ops to grow it;
// the final equality check against TargetLen still runs on the real length.
const maxPatchPrealloc = 1 << 26 // 64 MiB

// checkCopy validates copy op i against a base of baseLen bytes.
func (op Op) checkCopy(i int, baseLen int64) error {
	if op.Off < 0 || op.Len < 0 || op.Off+op.Len > baseLen {
		return fmt.Errorf("rsync: op %d copy [%d,%d) out of base range %d",
			i, op.Off, op.Off+op.Len, baseLen)
	}
	return nil
}

// checkLen validates the length a patch produced against d.TargetLen.
func (d *Delta) checkLen(got int64) error {
	if got != d.TargetLen {
		return fmt.Errorf("rsync: patched length %d != target length %d", got, d.TargetLen)
	}
	return nil
}

// Patch applies d to base and returns the reconstructed target. It validates
// every copy range against the base and the final length against
// d.TargetLen. The meter is charged for the bytes materialized.
func Patch(base []byte, d *Delta, meter *metrics.CPUMeter) ([]byte, error) {
	if d.TargetLen < 0 {
		return nil, fmt.Errorf("rsync: negative target length %d", d.TargetLen)
	}
	prealloc := d.TargetLen
	if prealloc > maxPatchPrealloc {
		prealloc = maxPatchPrealloc
	}
	out := make([]byte, 0, prealloc)
	for i, op := range d.Ops {
		switch op.Kind {
		case OpCopy:
			if err := op.checkCopy(i, int64(len(base))); err != nil {
				return nil, err
			}
			out = append(out, base[op.Off:op.Off+op.Len]...)
			meter.Copy(op.Len)
		case OpData:
			out = append(out, op.Data...)
			meter.Copy(int64(len(op.Data)))
		default:
			return nil, fmt.Errorf("rsync: op %d has unknown kind %d", i, op.Kind)
		}
	}
	if err := d.checkLen(int64(len(out))); err != nil {
		return nil, err
	}
	return out, nil
}

// PatchPages is Patch over page tables: it appends d's target to dst,
// reading copy ops straight out of base's pages. A copy that starts
// page-aligned on both sides shares base's pages by pointer; every other
// byte is written once, into dst's own pages, and charged to dst's meter.
// It accepts and rejects exactly what Patch does. On error dst holds a
// prefix of the target.
func PatchPages(dst *extent.Builder, base extent.File, d *Delta) error {
	if d.TargetLen < 0 {
		return fmt.Errorf("rsync: negative target length %d", d.TargetLen)
	}
	start := dst.Size()
	dst.Reserve(start + d.TargetLen)
	for i, op := range d.Ops {
		switch op.Kind {
		case OpCopy:
			if err := op.checkCopy(i, base.Size()); err != nil {
				return err
			}
			dst.AppendFrom(base, op.Off, op.Len)
		case OpData:
			dst.WriteAt(op.Data, dst.Size())
		default:
			return fmt.Errorf("rsync: op %d has unknown kind %d", i, op.Kind)
		}
	}
	return d.checkLen(dst.Size() - start)
}

// MarshalBinary serializes the delta in a compact length-prefixed format.
func (d *Delta) MarshalBinary() ([]byte, error) {
	var buf bytes.Buffer
	var hdr [8]byte
	put := func(v uint64) {
		binary.BigEndian.PutUint64(hdr[:], v)
		buf.Write(hdr[:])
	}
	put(uint64(d.BlockSize))
	put(uint64(d.BaseLen))
	put(uint64(d.TargetLen))
	put(uint64(len(d.Ops)))
	for _, op := range d.Ops {
		buf.WriteByte(byte(op.Kind))
		switch op.Kind {
		case OpCopy:
			put(uint64(op.Off))
			put(uint64(op.Len))
		case OpData:
			put(uint64(len(op.Data)))
			buf.Write(op.Data)
		default:
			return nil, fmt.Errorf("rsync: marshal: unknown op kind %d", op.Kind)
		}
	}
	return buf.Bytes(), nil
}

// UnmarshalBinary parses a delta serialized by MarshalBinary.
func (d *Delta) UnmarshalBinary(p []byte) error {
	get := func() (uint64, error) {
		if len(p) < 8 {
			return 0, errors.New("rsync: unmarshal: short buffer")
		}
		v := binary.BigEndian.Uint64(p[:8])
		p = p[8:]
		return v, nil
	}
	bs, err := get()
	if err != nil {
		return err
	}
	baseLen, err := get()
	if err != nil {
		return err
	}
	targetLen, err := get()
	if err != nil {
		return err
	}
	nOps, err := get()
	if err != nil {
		return err
	}
	if nOps > uint64(len(p)) { // each op needs at least 1 byte
		return fmt.Errorf("rsync: unmarshal: op count %d exceeds buffer", nOps)
	}
	d.BlockSize = int(bs)
	d.BaseLen = int64(baseLen)
	d.TargetLen = int64(targetLen)
	d.Ops = make([]Op, 0, nOps)
	for i := uint64(0); i < nOps; i++ {
		if len(p) < 1 {
			return errors.New("rsync: unmarshal: truncated op")
		}
		kind := OpKind(p[0])
		p = p[1:]
		switch kind {
		case OpCopy:
			off, err := get()
			if err != nil {
				return err
			}
			n, err := get()
			if err != nil {
				return err
			}
			d.Ops = append(d.Ops, Op{Kind: OpCopy, Off: int64(off), Len: int64(n)})
		case OpData:
			n, err := get()
			if err != nil {
				return err
			}
			if uint64(len(p)) < n {
				return errors.New("rsync: unmarshal: truncated literal")
			}
			d.Ops = append(d.Ops, Op{Kind: OpData, Data: append([]byte(nil), p[:n]...)})
			p = p[n:]
		default:
			return fmt.Errorf("rsync: unmarshal: unknown op kind %d", kind)
		}
	}
	if len(p) != 0 {
		return fmt.Errorf("rsync: unmarshal: %d trailing bytes", len(p))
	}
	return nil
}
