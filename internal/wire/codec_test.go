package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"math"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/rsync"
	"repro/internal/version"
)

// exerciseBatch builds a batch touching every node kind and every payload
// shape the codec distinguishes: nil vs empty slices, extents, a delta with
// both op kinds, whole-file content, and CDC chunk refs.
func exerciseBatch() *Batch {
	return &Batch{
		Client: 7,
		Seq:    math.MaxUint64 - 3,
		Atomic: true,
		Nodes: []*Node{
			{Kind: NCreate, Path: "dir/a.txt", Ver: version.ID{Client: 7, Count: 1}},
			{Kind: NWrite, Path: "dir/a.txt", Size: 42,
				Base: version.ID{Client: 7, Count: 1},
				Ver:  version.ID{Client: 7, Count: 2},
				Extents: []Extent{
					{Off: 0, Data: []byte("hello")},
					{Off: 37, Data: []byte{0x00, 0xff}},
					{Off: 40, Data: []byte{}}, // empty, not nil
				}},
			{Kind: NTruncate, Path: "dir/a.txt", Size: 40,
				Base: version.ID{Client: 7, Count: 2},
				Ver:  version.ID{Client: 7, Count: 3}},
			{Kind: NRename, Path: "dir/a.txt", Dst: "dir/b.txt"},
			{Kind: NLink, Path: "dir/b.txt", Dst: "dir/hard"},
			{Kind: NUnlink, Path: "dir/hard"},
			{Kind: NMkdir, Path: "sub"},
			{Kind: NRmdir, Path: "sub"},
			{Kind: NDelta, Path: "dir/b.txt", BasePath: "dir/b.txt",
				Size: 1000, PayloadWire: 64,
				Base: version.ID{Client: 7, Count: 3},
				Ver:  version.ID{Client: 7, Count: 4},
				Delta: &rsync.Delta{
					BlockSize: 512, BaseLen: 900, TargetLen: 1000,
					Ops: []rsync.Op{
						{Kind: rsync.OpCopy, Off: 0, Len: 512},
						{Kind: rsync.OpData, Data: []byte("literal tail")},
					},
				}},
			{Kind: NFull, Path: "dir/full.bin", Size: 3,
				Ver:  version.ID{Client: 7, Count: 5},
				Full: []byte{1, 2, 3}},
			{Kind: NCDC, Path: "dir/cdc.bin", Size: 8,
				Ver: version.ID{Client: 7, Count: 6},
				Chunks: []ChunkRef{
					{Hash: [16]byte{0xaa, 0xbb}, Len: 4, Data: []byte("abcd")},
					{Hash: [16]byte{0x01}, Len: 4}, // ref without data
				}},
			{Kind: NWrite, Path: "nilfields"}, // everything nil/zero
		},
	}
}

func TestBatchPayloadRoundTrip(t *testing.T) {
	for _, alias := range []bool{false, true} {
		t.Run(fmt.Sprintf("alias=%v", alias), func(t *testing.T) {
			in := exerciseBatch()
			raw := AppendBatch(nil, in)
			out, err := DecodeBatchPayload(raw, alias)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(in, out) {
				t.Fatalf("round trip mismatch:\n in=%+v\nout=%+v", in, out)
			}
		})
	}
}

// The gob codec is the cross-version oracle: a batch that round-trips
// through gob must decode identically through the binary codec (and vice
// versa), since both codecs must mean the same thing on the wire.
func TestBatchGobOracle(t *testing.T) {
	in := exerciseBatch()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(in); err != nil {
		t.Fatal(err)
	}
	viaGob := &Batch{}
	if err := gob.NewDecoder(&buf).Decode(viaGob); err != nil {
		t.Fatal(err)
	}
	viaBinary, err := DecodeBatchPayload(AppendBatch(nil, in), false)
	if err != nil {
		t.Fatal(err)
	}
	// gob flattens empty slices to nil; the binary codec preserves the
	// distinction. Compare field-by-field on the lossless side: everything
	// gob kept must match what the binary codec kept.
	if viaBinary.Client != viaGob.Client || viaBinary.Seq != viaGob.Seq ||
		viaBinary.Atomic != viaGob.Atomic || len(viaBinary.Nodes) != len(viaGob.Nodes) {
		t.Fatalf("header mismatch: gob=%+v binary=%+v", viaGob, viaBinary)
	}
	for i := range viaGob.Nodes {
		g, b := viaGob.Nodes[i], viaBinary.Nodes[i]
		if g.Kind != b.Kind || g.Path != b.Path || g.Dst != b.Dst ||
			g.BasePath != b.BasePath || g.Size != b.Size ||
			g.Base != b.Base || g.Ver != b.Ver ||
			!bytes.Equal(g.Full, b.Full) {
			t.Fatalf("node %d mismatch:\n gob=%+v\n bin=%+v", i, g, b)
		}
	}
}

func TestNilVsEmptyRoundTrip(t *testing.T) {
	cases := []*Batch{
		{Nodes: nil},
		{Nodes: []*Node{}},
		{Nodes: []*Node{{Kind: NWrite, Extents: []Extent{}}}},
		{Nodes: []*Node{{Kind: NFull, Full: []byte{}}}},
		{Nodes: []*Node{{Kind: NFull, Full: nil}}},
		{Nodes: []*Node{{Kind: NDelta, Delta: &rsync.Delta{Ops: []rsync.Op{}}}}},
	}
	for i, in := range cases {
		out, err := DecodeBatchPayload(AppendBatch(nil, in), false)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if !reflect.DeepEqual(in, out) {
			t.Fatalf("case %d: nil/empty not preserved:\n in=%#v\nout=%#v", i, in, out)
		}
	}
}

func TestRequestRoundTrip(t *testing.T) {
	cases := []request{
		{Op: "register", Group: 42},
		{Op: "attach", Client: 9},
		{Op: "push", B: exerciseBatch()},
		{Op: "fetch", Path: "some/file"},
		{Op: "head", Path: ""},
		{Op: "fetchrange", Path: "f", Off: 1 << 40, N: -1},
		{Op: "poll"},
	}
	for _, in := range cases {
		t.Run(in.Op, func(t *testing.T) {
			payload, err := appendRequest(nil, &in)
			if err != nil {
				t.Fatal(err)
			}
			var out request
			raw, err := decodeRequest(payload, &out)
			if err != nil {
				t.Fatal(err)
			}
			if in.Op == "push" {
				// The decoder hands back the batch's raw sub-slice for
				// retention; it must itself decode to the same batch.
				again, err := DecodeBatchPayload(raw, false)
				if err != nil || !reflect.DeepEqual(again, in.B) {
					t.Fatalf("retained raw does not re-decode: %v", err)
				}
			} else if raw != nil {
				t.Fatalf("non-push op returned batch raw")
			}
			if !reflect.DeepEqual(&in, &out) {
				t.Fatalf("mismatch:\n in=%+v\nout=%+v", in, out)
			}
		})
	}
}

func TestResponseRoundTrip(t *testing.T) {
	cases := []response{
		{Client: 3},
		{Err: "backend exploded"},
		{Push: &PushReply{
			Statuses:  []ApplyStatus{StatusOK, StatusConflict},
			Conflicts: []string{"a.conflict-1-2"},
			Throttled: true,
			Err:       "partial",
		}},
		{Fetch: &FetchReply{Content: []byte("body"), Ver: version.ID{Client: 1, Count: 9}, Exists: true}},
		{Fetch: &FetchReply{}}, // missing file: nil content, !Exists
		{Ver: version.ID{Client: 2, Count: 5}, Exists: true},
		{Data: []byte{0, 1, 2}},
		{Data: []byte{}},
		{Batches: []*Batch{exerciseBatch(), {Client: 1, Seq: 2}}},
	}
	for i, in := range cases {
		payload := appendResponse(nil, &in, nil)
		var out response
		if err := decodeResponse(payload, &out); err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if !reflect.DeepEqual(&in, &out) {
			t.Fatalf("case %d mismatch:\n in=%+v\nout=%+v", i, in, out)
		}
	}
}

// A poll response spliced from pre-encoded batches must decode exactly like
// one encoded from the batch structs — the splice path is the server's
// single-encode fan-out, so the bytes must be indistinguishable.
func TestResponseSpliceMatchesStructEncode(t *testing.T) {
	b1, b2 := exerciseBatch(), &Batch{Client: 5, Seq: 1, Nodes: []*Node{{Kind: NCreate, Path: "x"}}}
	structPayload := appendResponse(nil, &response{Batches: []*Batch{b1, b2}}, nil)
	splicePayload := appendResponse(nil, &response{},
		[]*EncodedBatch{NewEncodedBatch(b1), NewEncodedBatch(b2)})
	if !bytes.Equal(structPayload, splicePayload) {
		t.Fatal("spliced poll payload differs from struct-encoded payload")
	}
}

// frameFor wraps a payload in a syntactically valid frame.
func frameFor(payload []byte) []byte {
	f := make([]byte, frameHeaderSize, frameHeaderSize+len(payload))
	binary.LittleEndian.PutUint32(f[:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(f[4:8], crc32.Checksum(payload, crcTable))
	return append(f, payload...)
}

func TestReadFrameRejectsHostileFrames(t *testing.T) {
	good := frameFor([]byte{msgRequest, opPoll})
	if _, err := readFrame(bytes.NewReader(good), nil); err != nil {
		t.Fatalf("good frame rejected: %v", err)
	}

	mut := func(f func(b []byte) []byte) []byte { return f(append([]byte(nil), good...)) }
	cases := map[string][]byte{
		"zero length": mut(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[:4], 0)
			return b
		}),
		"oversized length": mut(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[:4], MaxFrameSize+1)
			return b
		}),
		"huge length, tiny body": mut(func(b []byte) []byte {
			// Claims 256 MiB but carries 2 bytes: must fail as truncated,
			// not allocate-and-hang. (MaxFrameSize itself is legal.)
			binary.LittleEndian.PutUint32(b[:4], MaxFrameSize)
			return b
		}),
		"truncated header":  good[:frameHeaderSize-2],
		"truncated payload": good[:len(good)-1],
		"flipped payload bit": mut(func(b []byte) []byte {
			b[frameHeaderSize] ^= 0x80
			return b
		}),
		"flipped crc": mut(func(b []byte) []byte {
			b[5] ^= 1
			return b
		}),
	}
	for name, f := range cases {
		if _, err := readFrame(bytes.NewReader(f), nil); err == nil {
			t.Errorf("%s: hostile frame accepted", name)
		}
	}
	// An oversized length is refused on the header alone, before a buffer
	// of that size exists: the payload is never read.
	over := bytes.NewReader(cases["oversized length"])
	readFrame(over, nil)
	if over.Len() != len(good)-frameHeaderSize {
		t.Error("oversized frame: payload read before the length was refused")
	}
}

func TestDecodeBatchRejectsHostilePayloads(t *testing.T) {
	good := AppendBatch(nil, exerciseBatch())
	mut := func(f func(b []byte) []byte) []byte { return f(append([]byte(nil), good...)) }
	cases := map[string][]byte{
		"empty":     {},
		"truncated": good[:len(good)/2],
		"trailing":  append(append([]byte(nil), good...), 0xde, 0xad),
		"hostile node count": mut(func(b []byte) []byte {
			// Node-count field sits after client(4)+seq(8)+flags(1)+presence(1).
			binary.LittleEndian.PutUint32(b[14:], math.MaxUint32)
			return b
		}),
		"hostile string length": mut(func(b []byte) []byte {
			// First node's Path length, after count(4)+kind(1).
			binary.LittleEndian.PutUint32(b[19:], math.MaxUint32)
			return b
		}),
	}
	for name, payload := range cases {
		if _, err := DecodeBatchPayload(payload, false); err == nil {
			t.Errorf("%s: hostile batch payload accepted", name)
		}
	}
	// A count that is plausible per-element but exceeds MaxBatchNodes must
	// also die: build a payload claiming MaxBatchNodes+1 minimal nodes.
	huge := appendU32(nil, 1) // client
	huge = appendU64(huge, 1) // seq
	huge = append(huge, 0)    // flags
	huge = append(huge, 1)    // nodes present
	huge = appendU32(huge, MaxBatchNodes+1)
	huge = append(huge, make([]byte, (MaxBatchNodes+1)*minNodeSize)...)
	if _, err := DecodeBatchPayload(huge, false); err == nil {
		t.Error("batch above MaxBatchNodes accepted")
	}
	// A hostile count is refused before it sizes an allocation: a tiny
	// payload claiming 2M extents must not cost 64 MiB of make first.
	one := &Batch{Nodes: []*Node{{Kind: NWrite, Path: "f", Extents: []Extent{{Off: 0x0102030405060708, Data: []byte{1}}}}}}
	claim := AppendBatch(nil, one)
	at := bytes.Index(claim, []byte{8, 7, 6, 5, 4, 3, 2, 1})
	binary.LittleEndian.PutUint32(claim[at-4:], 1<<21)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecodeBatchPayload(claim, false)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Error("hostile extent count accepted")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("hostile extent count allocated %d bytes before it was refused", grew)
	}
}

func TestDecodeResponseRejectsHostilePayloads(t *testing.T) {
	good := appendResponse(nil, &response{Batches: []*Batch{{Client: 1, Seq: 1}}}, nil)
	cases := map[string][]byte{
		"wrong kind": append([]byte{msgRequest}, good[1:]...),
		"truncated":  good[:len(good)-3],
		"trailing":   append(append([]byte(nil), good...), 1),
	}
	for name, payload := range cases {
		var resp response
		if err := decodeResponse(payload, &resp); err == nil {
			t.Errorf("%s: hostile response accepted", name)
		}
	}
}

func TestDecodeRequestRejectsHostilePayloads(t *testing.T) {
	cases := map[string][]byte{
		"empty":         {},
		"wrong kind":    {msgResponse, opPoll},
		"unknown op":    {msgRequest, 0xee},
		"trailing":      {msgRequest, opPoll, 0x00},
		"cut attach":    {msgRequest, opAttach, 1, 2},
		"push no batch": {msgRequest, opPush},
	}
	for name, payload := range cases {
		var req request
		if _, err := decodeRequest(payload, &req); err == nil {
			t.Errorf("%s: hostile request accepted", name)
		}
	}
}
