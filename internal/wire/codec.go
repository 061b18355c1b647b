package wire

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"sync"
	"sync/atomic"

	"repro/internal/rsync"
	"repro/internal/version"
)

// The binary wire codec. gob's reflection and per-message type descriptors
// dominate the per-request CPU and allocation cost past a few thousand
// clients, so the transport speaks a hand-rolled, length-prefixed
// little-endian format instead: one frame per message, one allocation per
// push (the frame buffer itself, which the decoded batch aliases and the
// server then retains for the journal and forwarding fan-out — encode once,
// reuse everywhere). Every connection opens with a magic preamble the client
// sends after connect (checked in transport.go); gob survives only in tests,
// as the oracle the codec's round trips are checked against.
//
// Frame layout (all integers little-endian):
//
//	offset 0  u32  payload length N (1 ≤ N ≤ MaxFrameSize)
//	offset 4  u32  CRC32-C of the payload
//	offset 8  [N]  payload: msgKind u8, then the body
//
// The CRC makes corruption (fault injection flips bytes below the codec) a
// deterministic, typed decode error instead of whatever field the flipped
// byte happened to land in. Within a payload:
//
//   - strings are u32 length + bytes
//   - byte slices are u8 presence (0 = nil) + u32 length + bytes, so nil vs
//     empty round-trips exactly
//   - slices are u8 presence + u32 count + elements
//
// Every wire-derived length and count is bounds-checked against the bytes
// actually remaining in the frame before it sizes an allocation — the
// decoder is a trust boundary and hostile frames (oversized lengths,
// truncated frames, counts past the buffer) must die here, not in an
// allocator or an index expression.

// BinaryCodecVersion is the frame-format version carried in the codec magic.
// Bump it when the payload layout changes incompatibly; the server closes
// connections whose preamble names a version it does not speak.
const BinaryCodecVersion = 1

// codecMagic is the preamble every client sends immediately after connect.
// A connection whose first four bytes differ is closed unanswered, before
// any request reaches the backend.
var codecMagic = [4]byte{0x00, 'D', 'C', BinaryCodecVersion}

// MaxFrameSize bounds one frame's payload. Large enough for a whole-file
// upload batch at the biggest workload scale (131 MiB), small enough that a
// hostile or corrupted length prefix cannot ask the decoder for gigabytes.
const MaxFrameSize = 1 << 28

// frameHeaderSize is the fixed length+CRC prefix of every frame.
const frameHeaderSize = 8

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Message kinds (payload byte 0).
const (
	msgRequest  = 1
	msgResponse = 2
)

// Request ops (payload byte 1 of a request).
const (
	opRegister = 1
	opAttach   = 2
	opPush     = 3
	opFetch    = 4
	opHead     = 5
	opFetchRange = 6
	opPoll     = 7
)

// batchEncodes counts binary batch-payload encodes process-wide. The
// single-encode discipline is asserted by tests as a delta on this counter:
// a push journaled and fanned out to N peers must cost at most one encode
// (zero when the batch arrived over the binary transport, whose decode
// retains the wire bytes).
var batchEncodes atomic.Int64

// BatchEncodes returns the process-wide count of binary batch-payload
// encodes performed so far.
func BatchEncodes() int64 { return batchEncodes.Load() }

// EncodedBatch pairs a decoded batch with its binary wire payload, encoded
// at most once and shared — immutably — by everything downstream of a push:
// the journal appends these exact bytes, every sharing peer's outbox holds
// this same value, and binary poll responses splice the bytes verbatim.
// Batches that arrive over the binary transport are born with their payload
// (the decoder aliases the frame buffer, so the encode count is zero);
// batches from in-process callers encode lazily on first use.
//
// The contract is immutability: neither the Batch nor the payload may be
// mutated after construction. The server's apply path copies extent/chunk
// data out rather than retaining it, and outbox compaction moves only the
// pointers, so sharing is safe.
type EncodedBatch struct {
	b    *Batch
	once sync.Once
	raw  []byte
}

// NewEncodedBatch wraps an in-process batch; the payload is encoded lazily
// on first Bytes call.
func NewEncodedBatch(b *Batch) *EncodedBatch { return &EncodedBatch{b: b} }

// NewEncodedBatchRaw wraps a batch together with its already-encoded binary
// payload (the transport's decode path: raw is the frame payload the batch's
// slices alias, retained so no re-encode is ever needed).
func NewEncodedBatchRaw(b *Batch, raw []byte) *EncodedBatch {
	return &EncodedBatch{b: b, raw: raw}
}

// Batch returns the decoded batch.
func (eb *EncodedBatch) Batch() *Batch { return eb.b }

// Bytes returns the batch's binary payload, encoding it on first call if the
// batch did not arrive with its wire bytes. The returned slice is shared and
// must not be modified.
func (eb *EncodedBatch) Bytes() []byte {
	eb.once.Do(func() {
		if eb.raw == nil {
			eb.raw = AppendBatch(nil, eb.b)
		}
	})
	return eb.raw
}

// frame buffer pool — scratch for encoding frames and reading responses.
// Buffers that end up retained (push frames the server keeps) are allocated
// outside the pool.

var framePool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

func getFrameBuf() *[]byte  { return framePool.Get().(*[]byte) }
func putFrameBuf(p *[]byte) { framePool.Put(p) }

// beginFrame appends the 8-byte frame header placeholder to buf.
func beginFrame(buf []byte) []byte {
	return append(buf, 0, 0, 0, 0, 0, 0, 0, 0)
}

// finishFrame fills in the header of a frame whose payload was appended
// after beginFrame. start is the offset beginFrame was called at.
func finishFrame(buf []byte, start int) error {
	n := len(buf) - start - frameHeaderSize
	if n < 1 || n > MaxFrameSize {
		return fmt.Errorf("wire: frame payload %d bytes out of range", n)
	}
	payload := buf[start+frameHeaderSize:]
	binary.LittleEndian.PutUint32(buf[start:], uint32(n))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.Checksum(payload, crcTable))
	return nil
}

// readFrame reads one frame from r, reusing scratch when it is big enough,
// and returns the verified payload. The caller owns the returned slice
// (which may be the grown scratch).
func readFrame(r io.Reader, scratch []byte) ([]byte, error) {
	var hdr [frameHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:4])
	if n < 1 || n > MaxFrameSize {
		return nil, fmt.Errorf("wire: frame length %d out of range [1, %d]", n, MaxFrameSize)
	}
	want := binary.LittleEndian.Uint32(hdr[4:])
	var payload []byte
	if uint32(cap(scratch)) >= n {
		payload = scratch[:n]
	} else {
		payload = make([]byte, n)
	}
	if _, err := io.ReadFull(r, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("wire: truncated frame: %w", err)
	}
	if got := crc32.Checksum(payload, crcTable); got != want {
		return nil, fmt.Errorf("wire: frame checksum mismatch (got %08x, want %08x)", got, want)
	}
	return payload, nil
}

// --- encoding (append-style, no intermediate allocations) ---

func appendU32(b []byte, v uint32) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func appendU64(b []byte, v uint64) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

func appendI64(b []byte, v int64) []byte { return appendU64(b, uint64(v)) }

func appendStr(b []byte, s string) []byte {
	b = appendU32(b, uint32(len(s)))
	return append(b, s...)
}

func appendBytes(b []byte, data []byte) []byte {
	if data == nil {
		return append(b, 0)
	}
	b = append(b, 1)
	b = appendU32(b, uint32(len(data)))
	return append(b, data...)
}

// appendSliceHdr writes the presence byte + count for a slice; isNil
// distinguishes nil from empty.
func appendSliceHdr(b []byte, n int, isNil bool) []byte {
	if isNil {
		return append(b, 0)
	}
	b = append(b, 1)
	return appendU32(b, uint32(n))
}

func appendVersion(b []byte, v version.ID) []byte {
	b = appendU32(b, v.Client)
	return appendU64(b, v.Count)
}

// AppendBatch appends b's binary payload to dst and returns the extended
// slice. This is the single place batch payloads are produced; each call
// increments the process-wide encode counter BatchEncodes reports.
func AppendBatch(dst []byte, b *Batch) []byte {
	batchEncodes.Add(1)
	dst = appendU32(dst, b.Client) // fixed offset 0: the server rebinds it in place
	dst = appendU64(dst, b.Seq)
	var flags byte
	if b.Atomic {
		flags |= 1
	}
	dst = append(dst, flags)
	dst = appendSliceHdr(dst, len(b.Nodes), b.Nodes == nil)
	for _, n := range b.Nodes {
		dst = appendNode(dst, n)
	}
	return dst
}

func appendNode(dst []byte, n *Node) []byte {
	dst = append(dst, byte(n.Kind))
	dst = appendStr(dst, n.Path)
	dst = appendStr(dst, n.Dst)
	dst = appendStr(dst, n.BasePath)
	dst = appendI64(dst, n.Size)
	dst = appendI64(dst, n.PayloadWire)
	dst = appendVersion(dst, n.Base)
	dst = appendVersion(dst, n.Ver)
	dst = appendSliceHdr(dst, len(n.Extents), n.Extents == nil)
	for _, e := range n.Extents {
		dst = appendI64(dst, e.Off)
		dst = appendBytes(dst, e.Data)
	}
	if n.Delta == nil {
		dst = append(dst, 0)
	} else {
		dst = append(dst, 1)
		dst = appendI64(dst, int64(n.Delta.BlockSize))
		dst = appendI64(dst, n.Delta.BaseLen)
		dst = appendI64(dst, n.Delta.TargetLen)
		dst = appendSliceHdr(dst, len(n.Delta.Ops), n.Delta.Ops == nil)
		for _, op := range n.Delta.Ops {
			dst = append(dst, byte(op.Kind))
			dst = appendI64(dst, op.Off)
			dst = appendI64(dst, op.Len)
			dst = appendBytes(dst, op.Data)
		}
	}
	dst = appendBytes(dst, n.Full)
	dst = appendSliceHdr(dst, len(n.Chunks), n.Chunks == nil)
	for _, c := range n.Chunks {
		dst = append(dst, c.Hash[:]...)
		dst = appendI64(dst, c.Len)
		dst = appendBytes(dst, c.Data)
	}
	return dst
}

func appendPushReply(dst []byte, r *PushReply) []byte {
	dst = appendSliceHdr(dst, len(r.Statuses), r.Statuses == nil)
	for _, s := range r.Statuses {
		dst = append(dst, byte(s))
	}
	dst = appendSliceHdr(dst, len(r.Conflicts), r.Conflicts == nil)
	for _, c := range r.Conflicts {
		dst = appendStr(dst, c)
	}
	var flags byte
	if r.Throttled {
		flags |= 1
	}
	dst = append(dst, flags)
	return appendStr(dst, r.Err)
}

func appendFetchReply(dst []byte, r *FetchReply) []byte {
	dst = appendBytes(dst, r.Content)
	dst = appendVersion(dst, r.Ver)
	var flags byte
	if r.Exists {
		flags |= 1
	}
	return append(dst, flags)
}

// appendRequest appends the binary payload for req. Push requests encode the
// batch inline (the client side's single encode).
func appendRequest(dst []byte, req *request) ([]byte, error) {
	dst = append(dst, msgRequest)
	switch req.Op {
	case "register":
		dst = append(dst, opRegister)
		dst = appendU32(dst, req.Group)
	case "attach":
		dst = append(dst, opAttach)
		dst = appendU32(dst, req.Client)
	case "push":
		if req.B == nil {
			return nil, fmt.Errorf("wire: push request without batch")
		}
		dst = append(dst, opPush)
		dst = AppendBatch(dst, req.B)
	case "fetch":
		dst = append(dst, opFetch)
		dst = appendStr(dst, req.Path)
	case "head":
		dst = append(dst, opHead)
		dst = appendStr(dst, req.Path)
	case "fetchrange":
		dst = append(dst, opFetchRange)
		dst = appendStr(dst, req.Path)
		dst = appendI64(dst, req.Off)
		dst = appendI64(dst, req.N)
	case "poll":
		dst = append(dst, opPoll)
	default:
		return nil, fmt.Errorf("wire: unknown request op %q", req.Op)
	}
	return dst, nil
}

// appendResponse appends the binary payload for resp. Poll responses splice
// the already-encoded batch payloads from ebs verbatim — the server never
// re-encodes a batch per poller.
func appendResponse(dst []byte, resp *response, ebs []*EncodedBatch) []byte {
	dst = append(dst, msgResponse)
	dst = appendStr(dst, resp.Err)
	dst = appendU32(dst, resp.Client)
	if resp.Push == nil {
		dst = append(dst, 0)
	} else {
		dst = append(dst, 1)
		dst = appendPushReply(dst, resp.Push)
	}
	if resp.Fetch == nil {
		dst = append(dst, 0)
	} else {
		dst = append(dst, 1)
		dst = appendFetchReply(dst, resp.Fetch)
	}
	dst = appendVersion(dst, resp.Ver)
	var flags byte
	if resp.Exists {
		flags |= 1
	}
	dst = append(dst, flags)
	dst = appendBytes(dst, resp.Data)
	switch {
	case ebs != nil:
		dst = appendSliceHdr(dst, len(ebs), false)
		for _, eb := range ebs {
			raw := eb.Bytes()
			dst = appendU32(dst, uint32(len(raw)))
			dst = append(dst, raw...)
		}
	case resp.Batches != nil:
		dst = appendSliceHdr(dst, len(resp.Batches), false)
		for _, b := range resp.Batches {
			// Length placeholder, then the payload, then patch the length.
			at := len(dst)
			dst = appendU32(dst, 0)
			dst = AppendBatch(dst, b)
			binary.LittleEndian.PutUint32(dst[at:], uint32(len(dst)-at-4))
		}
	default:
		dst = append(dst, 0)
	}
	return dst
}

// --- decoding (bounds-checked reader over one frame payload) ---

// reader walks a frame payload. The first decode error sticks; all later
// reads return zero values, so call sites stay linear and the error is
// checked once at the end.
type reader struct {
	data []byte
	off  int
	// copyData forces byte-slice fields to be copied out of the frame
	// buffer (client-side decodes, where the buffer is pooled). When false,
	// decoded slices alias data — the server retains the frame buffer in an
	// EncodedBatch, making the alias safe and the decode copy-free.
	copyData bool
	err      error
}

func (r *reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("wire: decode: "+format, args...)
	}
}

func (r *reader) remaining() int { return len(r.data) - r.off }

// take returns the next n bytes of the payload. n must already be
// non-negative; the remaining-length check here is the single bounds gate
// every field read funnels through.
func (r *reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	end := r.off + n
	if n < 0 || end < r.off || end > len(r.data) {
		r.fail("need %d bytes, %d remain", n, r.remaining())
		return nil
	}
	b := r.data[r.off:end]
	r.off = end
	return b
}

func (r *reader) u8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *reader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *reader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *reader) i64() int64 { return int64(r.u64()) }

func (r *reader) str() string {
	n := r.u32()
	if n > uint32(r.remaining()) {
		r.fail("string length %d exceeds %d remaining", n, r.remaining())
		return ""
	}
	return string(r.take(int(n)))
}

func (r *reader) bytes() []byte {
	if r.u8() == 0 {
		return nil
	}
	n := r.u32()
	if n > uint32(r.remaining()) {
		r.fail("byte-slice length %d exceeds %d remaining", n, r.remaining())
		return nil
	}
	b := r.take(int(n))
	if b == nil {
		return nil
	}
	if r.copyData {
		// make (not append to nil) so an empty slice stays non-nil: the
		// nil/empty distinction is part of the format.
		out := make([]byte, len(b))
		copy(out, b)
		return out
	}
	return b
}

// count reads a slice header and bounds the claimed element count by the
// bytes remaining divided by the minimum encoded element size, so a hostile
// count can never size an allocation past the frame it arrived in. Returns
// -1 for a nil slice.
func (r *reader) count(minElem int) int {
	if r.u8() == 0 {
		return -1
	}
	n := r.u32()
	if minElem < 1 {
		minElem = 1
	}
	if int64(n)*int64(minElem) > int64(r.remaining()) {
		r.fail("count %d×%d exceeds %d remaining", n, minElem, r.remaining())
		return -1
	}
	return int(n)
}

func (r *reader) version() version.ID {
	return version.ID{Client: r.u32(), Count: r.u64()}
}

// Minimum encoded sizes used to bound slice counts: the fewest bytes one
// element can occupy on the wire (empty strings, nil sub-slices).
const (
	minNodeSize   = 57 // kind + 3 empty strings + size + payloadWire + 2 versions + 4 nil markers
	minExtentSize = 9  // off + nil data
	minOpSize     = 18 // kind + off + len + nil data
	minChunkSize  = 25 // hash + len + nil data
	minBatchSize  = 14 // client + seq + flags + nil nodes marker
	minStringSize = 4
	minSubBatch   = 4 + minBatchSize
)

// DecodeBatchPayload decodes one batch payload (the format AppendBatch
// produces). When alias is true, byte-slice fields alias data — the caller
// must retain data unmodified for the batch's lifetime (the transport does,
// via EncodedBatch). When false, all byte slices are copied out.
func DecodeBatchPayload(data []byte, alias bool) (*Batch, error) {
	r := &reader{data: data, copyData: !alias}
	b := r.batch()
	if r.err != nil {
		return nil, r.err
	}
	if r.remaining() != 0 {
		return nil, fmt.Errorf("wire: decode: %d trailing bytes after batch", r.remaining())
	}
	return b, nil
}

func (r *reader) batch() *Batch {
	b := &Batch{}
	b.Client = r.u32()
	b.Seq = r.u64()
	b.Atomic = r.u8()&1 != 0
	n := r.count(minNodeSize)
	if n >= 0 {
		if n > MaxBatchNodes {
			r.fail("batch of %d nodes exceeds %d", n, MaxBatchNodes)
			return b
		}
		b.Nodes = make([]*Node, 0, n)
		for i := 0; i < n && r.err == nil; i++ {
			b.Nodes = append(b.Nodes, r.node())
		}
	}
	return b
}

func (r *reader) node() *Node {
	n := &Node{}
	n.Kind = NodeKind(r.u8())
	n.Path = r.str()
	n.Dst = r.str()
	n.BasePath = r.str()
	n.Size = r.i64()
	n.PayloadWire = r.i64()
	n.Base = r.version()
	n.Ver = r.version()
	if c := r.count(minExtentSize); c >= 0 {
		n.Extents = make([]Extent, 0, c)
		for i := 0; i < c && r.err == nil; i++ {
			n.Extents = append(n.Extents, Extent{Off: r.i64(), Data: r.bytes()})
		}
	}
	if r.u8() != 0 {
		d := &rsync.Delta{}
		d.BlockSize = int(r.i64())
		d.BaseLen = r.i64()
		d.TargetLen = r.i64()
		if c := r.count(minOpSize); c >= 0 {
			d.Ops = make([]rsync.Op, 0, c)
			for i := 0; i < c && r.err == nil; i++ {
				d.Ops = append(d.Ops, rsync.Op{
					Kind: rsync.OpKind(r.u8()),
					Off:  r.i64(),
					Len:  r.i64(),
					Data: r.bytes(),
				})
			}
		}
		n.Delta = d
	}
	n.Full = r.bytes()
	if c := r.count(minChunkSize); c >= 0 {
		n.Chunks = make([]ChunkRef, 0, c)
		for i := 0; i < c && r.err == nil; i++ {
			var ch ChunkRef
			copy(ch.Hash[:], r.take(16))
			ch.Len = r.i64()
			ch.Data = r.bytes()
			n.Chunks = append(n.Chunks, ch)
		}
	}
	return n
}

func (r *reader) pushReply() *PushReply {
	p := &PushReply{}
	if c := r.count(1); c >= 0 {
		raw := r.take(c)
		p.Statuses = make([]ApplyStatus, c)
		for i := 0; i < c && raw != nil; i++ {
			p.Statuses[i] = ApplyStatus(raw[i])
		}
	}
	if c := r.count(minStringSize); c >= 0 {
		p.Conflicts = make([]string, 0, c)
		for i := 0; i < c && r.err == nil; i++ {
			p.Conflicts = append(p.Conflicts, r.str())
		}
	}
	p.Throttled = r.u8()&1 != 0
	p.Err = r.str()
	return p
}

func (r *reader) fetchReply() *FetchReply {
	f := &FetchReply{}
	f.Content = r.bytes()
	f.Ver = r.version()
	f.Exists = r.u8()&1 != 0
	return f
}

// decodeRequest parses a request frame payload into req. For push requests
// it returns the batch's raw payload sub-slice (aliasing payload), which the
// caller must retain; for all other ops it returns nil.
func decodeRequest(payload []byte, req *request) ([]byte, error) {
	r := &reader{data: payload}
	if k := r.u8(); k != msgRequest {
		return nil, fmt.Errorf("wire: decode: message kind %d, want request", k)
	}
	var batchRaw []byte
	switch op := r.u8(); op {
	case opRegister:
		req.Op = "register"
		req.Group = r.u32()
	case opAttach:
		req.Op = "attach"
		req.Client = r.u32()
	case opPush:
		req.Op = "push"
		if r.off < 0 || r.off > len(payload) {
			return nil, fmt.Errorf("wire: decode: batch offset out of range")
		}
		batchRaw = payload[r.off:]
		req.B = r.batch()
	case opFetch:
		req.Op = "fetch"
		req.Path = r.str()
	case opHead:
		req.Op = "head"
		req.Path = r.str()
	case opFetchRange:
		req.Op = "fetchrange"
		req.Path = r.str()
		req.Off = r.i64()
		req.N = r.i64()
	case opPoll:
		req.Op = "poll"
	default:
		return nil, fmt.Errorf("wire: decode: unknown request op %d", op)
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.remaining() != 0 {
		return nil, fmt.Errorf("wire: decode: %d trailing bytes after request", r.remaining())
	}
	return batchRaw, nil
}

// decodeResponse parses a response frame payload into resp. All byte slices
// are copied out of payload (the client pools its read buffer).
func decodeResponse(payload []byte, resp *response) error {
	r := &reader{data: payload, copyData: true}
	if k := r.u8(); k != msgResponse {
		return fmt.Errorf("wire: decode: message kind %d, want response", k)
	}
	resp.Err = r.str()
	resp.Client = r.u32()
	if r.u8() != 0 {
		resp.Push = r.pushReply()
	}
	if r.u8() != 0 {
		resp.Fetch = r.fetchReply()
	}
	resp.Ver = r.version()
	resp.Exists = r.u8()&1 != 0
	resp.Data = r.bytes()
	if c := r.count(minSubBatch); c >= 0 {
		resp.Batches = make([]*Batch, 0, c)
		for i := 0; i < c && r.err == nil; i++ {
			n := r.u32()
			sub := r.take(int(n))
			if sub == nil {
				break
			}
			b, err := DecodeBatchPayload(sub, false)
			if err != nil {
				r.fail("poll batch %d: %v", i, err)
				break
			}
			resp.Batches = append(resp.Batches, b)
		}
	}
	if r.err != nil {
		return r.err
	}
	if r.remaining() != 0 {
		return fmt.Errorf("wire: decode: %d trailing bytes after response", r.remaining())
	}
	return nil
}
