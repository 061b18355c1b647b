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
	s := newScanner(sig, meter)
	s.Write(target)
	return s.Finish(), nil
}

// DeltaLocal computes the delta from base to target with both files local,
// per the paper's §III-A optimization: a weak-only signature of base is
// built and candidate matches are verified by bitwise comparison instead of
// MD5. This is the delta encoder DeltaCFS triggers on transactional updates.
func DeltaLocal(base, target []byte, blockSize int, meter *metrics.CPUMeter) *Delta {
	s := NewLocalScanner(base, blockSize, meter)
	s.Write(target)
	return s.Finish()
}

// Scanner is the block-matching scan as a stream: the target arrives as a
// sequence of segments (Write) and the delta is complete at Finish. The op
// stream and the meter charges depend only on the concatenation of the
// segments, never on where they were cut: a window that straddles a join is
// scanned in a carry buffer of at most two blocks, and a position's pending
// slide waits for the byte that decides whether it is charged.
//
// Literal bytes are copied into the delta as the scan passes them, so a
// segment may be reused as soon as Write returns.
//
// In local mode every copy is then grown byte by byte beyond the block it
// matched, backward and forward into the literals beside it (emitCopy,
// emitData), so an edit costs its own bytes rather than whole blocks. The
// growth happens as decided bytes are emitted: the scan tests the same
// windows and charges the same bytes as without it.
type Scanner struct {
	sig   *Sig
	local bool   // verify bitwise against base, not by sig's strong checksums
	base  []byte // local mode only
	meter *metrics.CPUMeter
	idx   map[uint32][]int
	d     *Delta

	// carry holds the undecided bytes at the scan position between Writes:
	// fewer than a block, or exactly one block whose window missed and
	// waits for its next byte.
	carry []byte
	roll  block.Rolling
	// have: roll covers the window at the scan position. missed: that
	// window was tested and matched nothing, so the scan slides one byte
	// as soon as the byte behind the window is known to exist.
	have, missed bool
	// next is the base block that follows the last match (block 0 before
	// any match). Local mode compares the window against it before hashing
	// anything: an unmoved or block-shifted run of the base then costs one
	// bitwise comparison per block and no rolling checksum, and a run of
	// duplicate base blocks (zeros, repeated pages) extends the current
	// copy instead of restarting at the first duplicate.
	next int

	// Charges accumulate here and reach the meter once, in Finish: the
	// meter is integer-linear, so one aggregate charge per category equals
	// the many small ones.
	rolled, verified int64
}

// NewLocalScanner returns a scanner that encodes its input against base in
// local mode; Finish releases the signature it builds here.
func NewLocalScanner(base []byte, blockSize int, meter *metrics.CPUMeter) *Scanner {
	s := newScanner(WeakSignature(base, blockSize, meter), meter)
	s.local, s.base = true, base
	return s
}

func newScanner(sig *Sig, meter *metrics.CPUMeter) *Scanner {
	return &Scanner{
		sig: sig, meter: meter, idx: sig.index(),
		d: &Delta{BlockSize: sig.BlockSize, BaseLen: sig.FileLen},
	}
}

// Write scans the next segment of the target.
func (s *Scanner) Write(seg []byte) {
	s.d.TargetLen += int64(len(seg))
	if k := len(s.carry); k > 0 {
		// Scan the windows that start in the carried bytes; they reach at
		// most one block into seg.
		s.carry = append(s.carry, seg[:min(len(seg), s.sig.BlockSize)]...)
		p := s.scan(s.carry, k)
		if p < k { // seg was too short to clear the join
			s.carry = s.carry[:copy(s.carry, s.carry[p:])]
			return
		}
		s.carry = s.carry[:0]
		seg = seg[p-k:]
	}
	p := s.scan(seg, len(seg))
	s.carry = append(s.carry, seg[p:]...)
}

// scan advances over buf, whose first byte is at the scan position, deciding
// every window that starts before limit and lies wholly inside buf. It
// returns how many bytes it consumed as copies or literals.
func (s *Scanner) scan(buf []byte, limit int) int {
	bs := s.sig.BlockSize
	p, lit := 0, 0
	for {
		if s.missed {
			if p+bs >= len(buf) {
				break // the slide needs the byte behind the window
			}
			s.roll.Roll(buf[p], buf[p+bs])
			s.rolled++
			s.missed = false
			p++
		}
		if p >= limit || p+bs > len(buf) {
			break
		}
		blk := s.match(buf[p : p+bs])
		if blk < 0 {
			s.missed = true
			continue
		}
		s.emitData(buf[lit:p])
		s.emitCopy(int64(blk)*int64(bs), int64(bs))
		p += bs
		lit = p
		s.have = false
		s.next = blk + 1
	}
	s.emitData(buf[lit:p])
	return p
}

// emitData appends literal bytes the scan has decided. In local mode their
// leading bytes first grow the copy they follow while they continue its base
// run (forward extension); a run that reaches the end of p stays open for the
// next call, so the result does not depend on where the target was cut.
func (s *Scanner) emitData(p []byte) {
	if k := len(s.d.Ops); s.local && k > 0 && s.d.Ops[k-1].Kind == OpCopy {
		last := &s.d.Ops[k-1]
		run := s.base[last.Off+last.Len:]
		n := 0
		for n < len(p) && n < len(run) && p[n] == run[n] {
			n++
		}
		s.verified += int64(n)
		if n < len(p) && n < len(run) {
			s.verified++ // the byte that broke the run
		}
		last.Len += int64(n)
		p = p[n:]
	}
	s.d.appendData(p)
}

// emitCopy appends a copy of base[off:off+n]. In local mode the copy first
// grows back into the tail of the pending literal while those bytes equal the
// base bytes before off (backward extension); a literal it empties is dropped
// and the copies around it coalesce when contiguous.
func (s *Scanner) emitCopy(off, n int64) {
	if k := len(s.d.Ops); s.local && k > 0 && s.d.Ops[k-1].Kind == OpData {
		lit := s.d.Ops[k-1].Data
		g := 0
		for g < len(lit) && int64(g) < off && lit[len(lit)-1-g] == s.base[off-1-int64(g)] {
			g++
		}
		s.verified += int64(g)
		if g < len(lit) && int64(g) < off {
			s.verified++
		}
		off, n = off-int64(g), n+int64(g)
		if g == len(lit) {
			litPool.Put(lit[:0])
			s.d.Ops = s.d.Ops[:k-1]
		} else {
			s.d.Ops[k-1].Data = lit[:len(lit)-g]
		}
	}
	s.d.appendCopy(off, n)
}

// match returns the base block equal to window, or -1.
func (s *Scanner) match(window []byte) int {
	bs := len(window)
	if !s.have {
		if s.local && s.sig.blockLen(s.next) == bs {
			s.verified += int64(bs)
			if lo := s.next * bs; bytes.Equal(window, s.base[lo:lo+bs]) {
				return s.next
			}
		}
		s.roll = block.NewRolling(window)
		s.rolled += int64(bs)
		s.have = true
	}
	for _, c := range s.idx[s.roll.Sum()] {
		s.verified += int64(bs)
		if s.local {
			if lo := c * bs; bytes.Equal(window, s.base[lo:lo+bs]) {
				return c
			}
		} else if block.StrongSum(window) == s.sig.Blocks[c].Strong {
			return c
		}
	}
	return -1
}

// Finish ends the target, returns the delta and, in local mode, releases the
// signature. The scanner must not be used afterwards.
func (s *Scanner) Finish() *Delta {
	// What is left is shorter than a block, or one block whose miss takes
	// the end-of-file slide (never charged).
	rest := s.carry
	pos := 0
	if s.missed {
		pos = 1
	}
	// A short trailing block of the base can still match the final bytes of
	// the target (rsync emits the last short block only at end of file).
	if tail := s.sig.tailBlock(); tail >= 0 {
		tl := s.sig.blockLen(tail)
		if start := len(rest) - tl; tl > 0 && start >= pos {
			rem := rest[start:]
			ok := false
			if s.local {
				lo := tail * s.sig.BlockSize
				s.verified += int64(tl)
				ok = bytes.Equal(rem, s.base[lo:lo+tl])
			} else {
				s.rolled += int64(tl)
				if block.WeakSum(rem) == s.sig.Blocks[tail].Weak {
					s.verified += int64(tl)
					ok = block.StrongSum(rem) == s.sig.Blocks[tail].Strong
				}
			}
			if ok {
				s.emitData(rest[:start])
				s.emitCopy(int64(tail)*int64(s.sig.BlockSize), int64(tl))
				rest = nil
			}
		}
	}
	s.emitData(rest)

	s.meter.RollingHash(s.rolled)
	if s.local {
		s.meter.Compare(s.verified)
		// The signature never escaped; recycle its block storage.
		s.sig.Release()
	} else {
		s.meter.StrongHash(s.verified)
	}
	return s.d
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

// appendData adds a literal op (nothing for an empty p), coalescing with a
// preceding literal. The bytes are copied, so the caller's buffer may be
// reused.
func (d *Delta) appendData(p []byte) {
	if len(p) == 0 {
		return
	}
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

// Check validates d against a base of baseLen bytes without producing
// anything: every copy range lies inside the base, every op kind is known,
// and the ops produce exactly TargetLen bytes. It is the one accept/reject
// rule of Patch, PatchPages and the client's streamed apply, which run it
// before they write a byte — so a wire-decoded TargetLen sizes an allocation
// only once the ops are known to fill it.
func (d *Delta) Check(baseLen int64) error {
	if d.TargetLen < 0 {
		return fmt.Errorf("rsync: negative target length %d", d.TargetLen)
	}
	var got int64
	for i, op := range d.Ops {
		switch op.Kind {
		case OpCopy:
			if op.Off < 0 || op.Len < 0 || op.Off+op.Len > baseLen {
				return fmt.Errorf("rsync: op %d copy [%d,%d) out of base range %d",
					i, op.Off, op.Off+op.Len, baseLen)
			}
			got += op.Len
		case OpData:
			got += int64(len(op.Data))
		default:
			return fmt.Errorf("rsync: op %d has unknown kind %d", i, op.Kind)
		}
	}
	if got != d.TargetLen {
		return fmt.Errorf("rsync: patched length %d != target length %d", got, d.TargetLen)
	}
	return nil
}

// Patch applies d to base and returns the reconstructed target, or Check's
// error. The meter is charged for the bytes materialized.
func Patch(base []byte, d *Delta, meter *metrics.CPUMeter) ([]byte, error) {
	if err := d.Check(int64(len(base))); err != nil {
		return nil, err
	}
	out := make([]byte, 0, d.TargetLen)
	for _, op := range d.Ops {
		if op.Kind == OpCopy {
			out = append(out, base[op.Off:op.Off+op.Len]...)
		} else {
			out = append(out, op.Data...)
		}
	}
	meter.Copy(d.TargetLen)
	return out, nil
}

// PatchPages is Patch over page tables: it appends d's target to dst,
// reading copy ops straight out of base's pages. A copy that starts
// page-aligned on both sides shares base's pages by pointer; every other
// byte is written once, into dst's own pages, and charged to dst's meter.
// It accepts and rejects exactly what Patch does, leaving dst untouched on
// error.
func PatchPages(dst *extent.Builder, base extent.File, d *Delta) error {
	if err := d.Check(base.Size()); err != nil {
		return err
	}
	dst.Reserve(dst.Size() + d.TargetLen)
	for _, op := range d.Ops {
		if op.Kind == OpCopy {
			dst.AppendFrom(base, op.Off, op.Len)
		} else {
			dst.WriteAt(op.Data, dst.Size())
		}
	}
	return nil
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
