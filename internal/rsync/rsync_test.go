package rsync

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/block"
	"repro/internal/extent"
	"repro/internal/metrics"
)

func mustPatch(t *testing.T, base []byte, d *Delta) []byte {
	t.Helper()
	out, err := Patch(base, d, nil)
	if err != nil {
		t.Fatalf("Patch: %v", err)
	}
	return out
}

func randBytes(seed int64, n int) []byte {
	p := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(p)
	return p
}

func TestSignatureBlockCount(t *testing.T) {
	cases := []struct {
		fileLen, blockSize, wantBlocks int
	}{
		{0, 4096, 0},
		{1, 4096, 1},
		{4096, 4096, 1},
		{4097, 4096, 2},
		{8192, 4096, 2},
		{10000, 4096, 3},
	}
	for _, c := range cases {
		s := Signature(make([]byte, c.fileLen), c.blockSize, nil)
		if len(s.Blocks) != c.wantBlocks {
			t.Errorf("len=%d bs=%d: blocks = %d, want %d",
				c.fileLen, c.blockSize, len(s.Blocks), c.wantBlocks)
		}
	}
}

func TestSignatureDefaultsBlockSize(t *testing.T) {
	s := Signature(make([]byte, 100), 0, nil)
	if s.BlockSize != block.DefaultBlockSize {
		t.Fatalf("BlockSize = %d, want default %d", s.BlockSize, block.DefaultBlockSize)
	}
}

func TestDeltaRemoteRequiresStrong(t *testing.T) {
	s := WeakSignature([]byte("abc"), 1, nil)
	if _, err := DeltaRemote(s, []byte("abd"), nil); err == nil {
		t.Fatal("DeltaRemote accepted a weak-only signature")
	}
}

func TestDeltaIdenticalFiles(t *testing.T) {
	base := randBytes(1, 64*1024)
	sig := Signature(base, 4096, nil)
	d, err := DeltaRemote(sig, base, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d.LiteralBytes() != 0 {
		t.Fatalf("identical files: %d literal bytes, want 0", d.LiteralBytes())
	}
	if got := mustPatch(t, base, d); !bytes.Equal(got, base) {
		t.Fatal("patch of identical-file delta mismatched")
	}
}

func TestDeltaEmptyBase(t *testing.T) {
	target := randBytes(2, 10000)
	sig := Signature(nil, 4096, nil)
	d, err := DeltaRemote(sig, target, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d.LiteralBytes() != int64(len(target)) {
		t.Fatalf("empty base: literal = %d, want %d", d.LiteralBytes(), len(target))
	}
	if got := mustPatch(t, nil, d); !bytes.Equal(got, target) {
		t.Fatal("patch from empty base mismatched")
	}
}

func TestDeltaEmptyTarget(t *testing.T) {
	base := randBytes(3, 8192)
	sig := Signature(base, 4096, nil)
	d, err := DeltaRemote(sig, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(mustPatch(t, base, d)) != 0 {
		t.Fatal("empty target should patch to empty")
	}
}

func TestDeltaAppend(t *testing.T) {
	base := randBytes(4, 32*1024)
	appended := randBytes(5, 1000)
	target := append(append([]byte(nil), base...), appended...)
	sig := Signature(base, 4096, nil)
	d, err := DeltaRemote(sig, target, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d.LiteralBytes() != int64(len(appended)) {
		t.Fatalf("append: literal = %d, want %d", d.LiteralBytes(), len(appended))
	}
	if got := mustPatch(t, base, d); !bytes.Equal(got, target) {
		t.Fatal("append patch mismatched")
	}
}

func TestDeltaPrependShiftsData(t *testing.T) {
	// Prepending data shifts every block; rsync's rolling window must
	// still find all the old full blocks at shifted offsets.
	base := randBytes(6, 32*1024) // 8 full 4K blocks
	prefix := randBytes(7, 100)
	target := append(append([]byte(nil), prefix...), base...)
	sig := Signature(base, 4096, nil)
	d, err := DeltaRemote(sig, target, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Everything except the prefix should come from copies.
	if d.LiteralBytes() > int64(len(prefix)) {
		t.Fatalf("prepend: literal = %d, want <= %d", d.LiteralBytes(), len(prefix))
	}
	if got := mustPatch(t, base, d); !bytes.Equal(got, target) {
		t.Fatal("prepend patch mismatched")
	}
}

func TestDeltaMidFileEdit(t *testing.T) {
	base := randBytes(8, 128*1024)
	target := append([]byte(nil), base...)
	copy(target[50000:50100], randBytes(9, 100))
	sig := Signature(base, 4096, nil)
	d, err := DeltaRemote(sig, target, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The edit touches at most 2 blocks; literal must be bounded by the
	// damaged blocks, not the whole file (this is the "at least one data
	// block even though only 1 byte is modified" footnote 3 behaviour).
	if d.LiteralBytes() > 3*4096 {
		t.Fatalf("mid-file edit: literal = %d, want <= %d", d.LiteralBytes(), 3*4096)
	}
	if d.LiteralBytes() < 100 {
		t.Fatalf("mid-file edit: literal = %d, want >= 100", d.LiteralBytes())
	}
	if got := mustPatch(t, base, d); !bytes.Equal(got, target) {
		t.Fatal("mid-file edit patch mismatched")
	}
}

func TestDeltaShortTrailingBlockReused(t *testing.T) {
	// Base ends with a 1000-byte short block; target keeps it at the end.
	base := append(randBytes(10, 8192), randBytes(11, 1000)...)
	insert := randBytes(12, 4096)
	target := append(append(append([]byte(nil), base[:8192]...), insert...), base[8192:]...)
	sig := Signature(base, 4096, nil)
	d, err := DeltaRemote(sig, target, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := mustPatch(t, base, d); !bytes.Equal(got, target) {
		t.Fatal("short-tail patch mismatched")
	}
	if d.LiteralBytes() > int64(len(insert)) {
		t.Fatalf("short tail not reused: literal = %d, want <= %d",
			d.LiteralBytes(), len(insert))
	}
}

func TestDeltaLocalMatchesRemoteOutput(t *testing.T) {
	base := randBytes(13, 100*1024)
	target := append([]byte(nil), base...)
	copy(target[10000:10500], randBytes(14, 500))
	target = append(target, randBytes(15, 2000)...)

	sig := Signature(base, 4096, nil)
	remote, err := DeltaRemote(sig, target, nil)
	if err != nil {
		t.Fatal(err)
	}
	local := DeltaLocal(base, target, 4096, nil)

	gr := mustPatch(t, base, remote)
	gl := mustPatch(t, base, local)
	if !bytes.Equal(gr, target) || !bytes.Equal(gl, target) {
		t.Fatal("remote/local patches mismatched target")
	}
	// Remote mode ships the two 4 KiB blocks the edit touches; local mode
	// grows the copies around it up to the edit itself.
	if local.LiteralBytes() > remote.LiteralBytes() {
		t.Fatalf("local literal %d > remote literal %d",
			local.LiteralBytes(), remote.LiteralBytes())
	}
}

func TestDeltaLocalCheaperThanRemote(t *testing.T) {
	// The §III-A claim: local bitwise verification costs less CPU than
	// strong-checksum verification for the same inputs.
	base := randBytes(16, 1<<20)
	target := append([]byte(nil), base...)
	copy(target[1234:2345], randBytes(17, 1111))

	remoteMeter := metrics.NewCPUMeter(metrics.PC)
	sig := Signature(base, 4096, remoteMeter)
	if _, err := DeltaRemote(sig, target, remoteMeter); err != nil {
		t.Fatal(err)
	}

	localMeter := metrics.NewCPUMeter(metrics.PC)
	DeltaLocal(base, target, 4096, localMeter)

	if localMeter.NanoTicks() >= remoteMeter.NanoTicks() {
		t.Fatalf("local mode (%d nanoticks) not cheaper than remote (%d)",
			localMeter.NanoTicks(), remoteMeter.NanoTicks())
	}
}

func TestWeakCollisionFallsBackToLiteral(t *testing.T) {
	// Construct two blocks with equal weak sums but different bytes: the
	// weak sum is order-insensitive in 'a' but order-sensitive in 'b', so
	// use blocks crafted to collide: swapping two equal-sum segments.
	// Simplest reliable approach: brute-force a small collision.
	bs := 4
	base := []byte{1, 2, 3, 4}
	var collide []byte
	w := block.WeakSum(base)
	for x := 0; x < 256 && collide == nil; x++ {
		for y := 0; y < 256; y++ {
			cand := []byte{byte(x), byte(y), 3, 4}
			if block.WeakSum(cand) == w && !bytes.Equal(cand, base) {
				collide = cand
				break
			}
		}
	}
	if collide == nil {
		t.Skip("no 4-byte weak collision found")
	}
	sig := Signature(base, bs, nil)
	d, err := DeltaRemote(sig, collide, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := mustPatch(t, base, d); !bytes.Equal(got, collide) {
		t.Fatalf("collision target not reconstructed: got %v want %v", got, collide)
	}
	if d.LiteralBytes() == 0 {
		t.Fatal("collision block must be sent literally, not copied")
	}
}

func TestPatchRejectsBadCopyRange(t *testing.T) {
	d := &Delta{TargetLen: 10, Ops: []Op{{Kind: OpCopy, Off: 0, Len: 10}}}
	if _, err := Patch([]byte("short"), d, nil); err == nil {
		t.Fatal("Patch accepted out-of-range copy")
	}
	d2 := &Delta{TargetLen: 5, Ops: []Op{{Kind: OpCopy, Off: -1, Len: 5}}}
	if _, err := Patch(make([]byte, 10), d2, nil); err == nil {
		t.Fatal("Patch accepted negative offset")
	}
	// The boundary: a copy ending exactly at the base's end is valid, one
	// byte further is not.
	edge := &Delta{TargetLen: 5, Ops: []Op{{Kind: OpCopy, Off: 0, Len: 5}}}
	if err := edge.Check(5); err != nil {
		t.Fatalf("Check rejected a copy ending at the base's end: %v", err)
	}
	past := &Delta{TargetLen: 5, Ops: []Op{{Kind: OpCopy, Off: 1, Len: 5}}}
	if err := past.Check(5); err == nil {
		t.Fatal("Check accepted a copy ending one byte past the base")
	}
}

func TestPatchRejectsWrongLength(t *testing.T) {
	d := &Delta{TargetLen: 99, Ops: []Op{{Kind: OpData, Data: []byte("abc")}}}
	if _, err := Patch(nil, d, nil); err == nil {
		t.Fatal("Patch accepted wrong target length")
	}
}

func TestPatchRejectsNegativeTargetLen(t *testing.T) {
	d := &Delta{TargetLen: -1}
	if _, err := Patch(nil, d, nil); err == nil {
		t.Fatal("Patch accepted negative target length")
	}
}

func TestPatchBoundsHostilePrealloc(t *testing.T) {
	// A delta claiming a petabyte target must not commit a petabyte up
	// front: the preallocation is capped and the lie is caught by the final
	// length check after only the real op bytes were materialized.
	d := &Delta{TargetLen: 1 << 50, Ops: []Op{{Kind: OpData, Data: []byte("abc")}}}
	if _, err := Patch(nil, d, nil); err == nil {
		t.Fatal("Patch accepted a target length its ops never produced")
	}
}

func TestPatchRejectsUnknownOp(t *testing.T) {
	d := &Delta{TargetLen: 0, Ops: []Op{{Kind: 99}}}
	if _, err := Patch(nil, d, nil); err == nil {
		t.Fatal("Patch accepted unknown op kind")
	}
}

// PatchPages is Patch over page tables: the same target from the same delta,
// the same refusal (word for word) of a hostile one, and a meter charged for
// the bytes copied — not for the pages an aligned copy shares with the base.
func TestPatchPagesAgreesWithPatch(t *testing.T) {
	base := randBytes(21, 5*extent.PageSize+1234)
	baseFile := extent.New(base, nil)

	insert := append(append(append([]byte(nil), base[:70000]...), randBytes(22, 3000)...), base[70000:]...)
	inPlace := append([]byte(nil), base...)
	copy(inPlace[2*extent.PageSize+50:], randBytes(23, 200))
	deltas := map[string]*Delta{
		"identical":       DeltaLocal(base, base, 4096, nil),
		"insert":          DeltaLocal(base, insert, 4096, nil),
		"in place":        DeltaLocal(base, inPlace, 4096, nil),
		"truncated":       DeltaLocal(base, base[:3*extent.PageSize+4096], 4096, nil),
		"empty target":    DeltaLocal(base, nil, 4096, nil),
		"copy past base":  {TargetLen: 10, Ops: []Op{{Kind: OpCopy, Off: int64(len(base)) - 5, Len: 10}}},
		"negative off":    {TargetLen: 5, Ops: []Op{{Kind: OpCopy, Off: -1, Len: 5}}},
		"negative len":    {TargetLen: 5, Ops: []Op{{Kind: OpCopy, Off: 9, Len: -5}}},
		"negative target": {TargetLen: -1},
		"short of target": {TargetLen: 1 << 50, Ops: []Op{{Kind: OpData, Data: []byte("abc")}}},
		"past target":     {TargetLen: 2, Ops: []Op{{Kind: OpCopy, Off: 0, Len: extent.PageSize}, {Kind: OpData, Data: []byte("abc")}}},
		"unknown op":      {TargetLen: 0, Ops: []Op{{Kind: 99}}},
	}
	for name, d := range deltas {
		want, wantErr := Patch(base, d, nil)
		m := metrics.NewCPUMeter(metrics.PC)
		b := extent.Edit(extent.File{}, m)
		err := PatchPages(b, baseFile, d)
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Errorf("%s: PatchPages err = %v, Patch err = %v", name, err, wantErr)
			continue
		}
		if err != nil {
			continue
		}
		if got := b.File().Bytes(); !bytes.Equal(got, want) {
			t.Errorf("%s: PatchPages and Patch reconstruct different targets", name)
		}
		copied := m.Breakdown()["copy_bytes"]
		switch name {
		case "identical", "truncated":
			// One copy op from offset 0: every whole page is shared, and
			// the part-page tail is shared as a prefix of its page.
			if copied != 0 {
				t.Errorf("%s: copied %d bytes, want 0 (pages shared)", name, copied)
			}
		case "in place":
			// The blocks around the edit are copied up to the next page
			// boundary; every page after it is shared again.
			if copied > 2*extent.PageSize {
				t.Errorf("in place: copied %d bytes for a 200 B edit, want at most two pages", copied)
			}
		case "insert":
			// Everything after the insertion point has moved: written once.
			if copied > int64(len(want)) {
				t.Errorf("insert: copied %d bytes for a %d B target, want each byte at most once", copied, len(want))
			}
		}
	}
}

func TestOpsCoalesced(t *testing.T) {
	base := randBytes(18, 64*1024)
	sig := Signature(base, 4096, nil)
	d, err := DeltaRemote(sig, base, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Ops) != 1 || d.Ops[0].Kind != OpCopy || d.Ops[0].Len != int64(len(base)) {
		t.Fatalf("identical file should coalesce to one copy op, got %+v", d.Ops)
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	base := randBytes(19, 50000)
	target := append([]byte(nil), base...)
	copy(target[100:600], randBytes(20, 500))
	d := DeltaLocal(base, target, 4096, nil)

	p, err := d.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var d2 Delta
	if err := d2.UnmarshalBinary(p); err != nil {
		t.Fatal(err)
	}
	got := mustPatch(t, base, &d2)
	if !bytes.Equal(got, target) {
		t.Fatal("marshalled delta did not reconstruct target")
	}
	if int64(len(p)) > d.WireSize()+1024 {
		t.Fatalf("encoded size %d exceeds WireSize estimate %d", len(p), d.WireSize())
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	var d Delta
	for _, p := range [][]byte{
		nil,
		{1, 2, 3},
		bytes.Repeat([]byte{0xff}, 40),
	} {
		if err := d.UnmarshalBinary(p); err == nil {
			t.Fatalf("UnmarshalBinary accepted garbage %v", p)
		}
	}
}

// Property: for random base/target pairs and block sizes, remote delta +
// patch always reconstructs the target.
func TestDeltaRemoteRoundTripProperty(t *testing.T) {
	f := func(base, target []byte, bsSeed uint8) bool {
		bs := 1 + int(bsSeed)%512
		sig := Signature(base, bs, nil)
		d, err := DeltaRemote(sig, target, nil)
		if err != nil {
			return false
		}
		out, err := Patch(base, d, nil)
		return err == nil && bytes.Equal(out, target)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: local mode reconstructs too, and never ships more literal bytes
// than the whole target.
func TestDeltaLocalRoundTripProperty(t *testing.T) {
	f := func(base, target []byte, bsSeed uint8) bool {
		bs := 1 + int(bsSeed)%512
		d := DeltaLocal(base, target, bs, nil)
		out, err := Patch(base, d, nil)
		return err == nil && bytes.Equal(out, target) &&
			d.LiteralBytes() <= int64(len(target))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: marshal/unmarshal is the identity on deltas.
func TestDeltaMarshalProperty(t *testing.T) {
	f := func(base, target []byte) bool {
		d := DeltaLocal(base, target, 64, nil)
		p, err := d.MarshalBinary()
		if err != nil {
			return false
		}
		var d2 Delta
		if err := d2.UnmarshalBinary(p); err != nil {
			return false
		}
		out, err := Patch(base, &d2, nil)
		return err == nil && bytes.Equal(out, target)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkDeltaRemote1MB(b *testing.B) {
	base := randBytes(21, 1<<20)
	target := append([]byte(nil), base...)
	copy(target[500000:501000], randBytes(22, 1000))
	b.SetBytes(int64(len(target)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sig := Signature(base, 4096, nil)
		if _, err := DeltaRemote(sig, target, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDeltaLocal1MB(b *testing.B) {
	base := randBytes(23, 1<<20)
	target := append([]byte(nil), base...)
	copy(target[500000:501000], randBytes(24, 1000))
	b.SetBytes(int64(len(target)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DeltaLocal(base, target, 4096, nil)
	}
}

func BenchmarkPatch1MB(b *testing.B) {
	base := randBytes(25, 1<<20)
	target := append([]byte(nil), base...)
	copy(target[1000:2000], randBytes(26, 1000))
	d := DeltaLocal(base, target, 4096, nil)
	b.SetBytes(int64(len(target)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Patch(base, d, nil); err != nil {
			b.Fatal(err)
		}
	}
}
