package rsync

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/block"
	"repro/internal/metrics"
)

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

// reference runs the whole-slice scan the streaming Scanner replaced. It is
// the specification of remote mode's op stream and meter charges, and the
// bound local mode's literal bytes, op count and charges must stay within.
func reference(base, target []byte, bs int, remote bool) (*Delta, *metrics.CPUMeter) {
	meter := metrics.NewCPUMeter(metrics.PC)
	if remote {
		return computeDeltaSerial(Signature(base, bs, meter), nil, target, meter), meter
	}
	return computeDeltaSerial(WeakSignature(base, bs, meter), base, target, meter), meter
}

// scanSegments encodes target cut at the given offsets (ascending, inside
// the target) through one Scanner.
func scanSegments(base, target []byte, bs int, remote bool, cuts []int) (*Delta, *metrics.CPUMeter) {
	meter := metrics.NewCPUMeter(metrics.PC)
	var s *Scanner
	if remote {
		s = newScanner(Signature(base, bs, meter), meter)
	} else {
		s = NewLocalScanner(base, bs, meter)
	}
	prev := 0
	for _, c := range append(append([]int(nil), cuts...), len(target)) {
		// Each segment is a private copy scribbled over after Write, so a
		// scanner that kept a reference into it fails the comparison.
		seg := append([]byte(nil), target[prev:c]...)
		s.Write(seg)
		for i := range seg {
			seg[i] ^= 0xff
		}
		prev = c
	}
	return s.Finish(), meter
}

// everyN cuts n bytes into segments of size step.
func everyN(n, step int) []int {
	var cuts []int
	for c := step; c < n; c += step {
		cuts = append(cuts, c)
	}
	return cuts
}

// segmentations returns the cut lists a pair is checked under: whole, fixed
// segment sizes around the block size (1-byte included), every single cut
// point of a short target, and seeded random cuts with empty segments.
func segmentations(rng *rand.Rand, n, bs int) [][]int {
	out := [][]int{nil}
	for _, step := range []int{1, 2, bs - 1, bs, bs + 1, 2*bs - 1, 2 * bs, 2*bs + 1, 3*bs + 7} {
		if step > 0 && step < n {
			out = append(out, everyN(n, step))
		}
	}
	if n <= 6*bs+64 {
		for c := 0; c <= n; c++ {
			out = append(out, []int{c})
		}
	}
	for i := 0; i < 6; i++ {
		var cuts []int
		for c := 0; c < n; {
			c += rng.Intn(3 * bs)
			if c < n {
				cuts = append(cuts, c)
				if rng.Intn(8) == 0 {
					cuts = append(cuts, c) // an empty segment
				}
			}
		}
		out = append(out, cuts)
	}
	return out
}

func sameDelta(a, b *Delta) bool {
	return a.BlockSize == b.BlockSize && a.BaseLen == b.BaseLen && a.TargetLen == b.TargetLen &&
		len(a.Ops) == len(b.Ops) && (len(a.Ops) == 0 || reflect.DeepEqual(a.Ops, b.Ops))
}

// literalOps returns how many of d's ops are literals.
func literalOps(d *Delta) int64 {
	var n int64
	for _, op := range d.Ops {
		if op.Kind == OpData {
			n++
		}
	}
	return n
}

// checkScanner is the scanner's contract for one base/target pair.
//
// Every segmentation yields the same ops and the same meter charges, and the
// delta patches to the target. Remote mode is the reference exactly, ops and
// ticks. Local mode ships no more literal bytes and no more ops than the
// reference: the adjacency-first rule may name a different, contiguous,
// equal base block, and byte extension grows copies into the literals.
func checkScanner(t testing.TB, rng *rand.Rand, base, target []byte, bs int) {
	t.Helper()
	for _, remote := range []bool{false, true} {
		ref, refMeter := reference(base, target, bs, remote)
		whole, wholeMeter := scanSegments(base, target, bs, remote, nil)
		if got, err := Patch(base, whole, nil); err != nil || !bytes.Equal(got, target) {
			t.Fatalf("remote=%v: patch: err=%v, equal=%v", remote, err, bytes.Equal(got, target))
		}
		if len(whole.Ops) > len(ref.Ops) {
			t.Fatalf("remote=%v: %d ops, reference has %d", remote, len(whole.Ops), len(ref.Ops))
		}
		if remote {
			if !sameDelta(whole, ref) {
				t.Fatalf("remote bs=%d base=%d target=%d: ops differ from the reference (%d vs %d ops)",
					bs, len(base), len(target), len(whole.Ops), len(ref.Ops))
			}
			if !reflect.DeepEqual(wholeMeter.Breakdown(), refMeter.Breakdown()) {
				t.Fatalf("remote charges differ from the reference:\n got %v\nwant %v",
					wholeMeter.Breakdown(), refMeter.Breakdown())
			}
		} else {
			if whole.LiteralBytes() > ref.LiteralBytes() {
				t.Fatalf("local bs=%d base=%d target=%d: %d literal bytes, reference has %d",
					bs, len(base), len(target), whole.LiteralBytes(), ref.LiteralBytes())
			}
			// The adjacency-first rule may lose one block comparison per
			// broken run; byte extension examines each reference literal byte
			// at most once, plus the byte that stops it on either side.
			extra := int64(len(ref.Ops)+1)*int64(bs) + ref.LiteralBytes() + 2*literalOps(ref)
			if wholeMeter.NanoTicks() > refMeter.NanoTicks()+extra*metrics.CostCompare {
				t.Fatalf("local ticks %d, reference %d, allowance %d",
					wholeMeter.NanoTicks(), refMeter.NanoTicks(), extra*metrics.CostCompare)
			}
		}
		for _, cuts := range segmentations(rng, len(target), bs) {
			d, m := scanSegments(base, target, bs, remote, cuts)
			if !sameDelta(d, whole) {
				t.Fatalf("remote=%v bs=%d target=%d cuts=%v: ops depend on the segmentation", remote, bs, len(target), cuts)
			}
			if !reflect.DeepEqual(m.Breakdown(), wholeMeter.Breakdown()) || m.NanoTicks() != wholeMeter.NanoTicks() {
				t.Fatalf("remote=%v bs=%d target=%d cuts=%v: charges depend on the segmentation:\n got %v\nwant %v",
					remote, bs, len(target), cuts, m.Breakdown(), wholeMeter.Breakdown())
			}
		}
	}
}

// mutate derives a target from base with the paper's workload shapes:
// in-place overwrites, an insertion (shifting alignment), and an append.
func mutate(rng *rand.Rand, base []byte) []byte {
	target := append([]byte(nil), base...)
	for i := 0; i < 1+rng.Intn(4); i++ {
		if len(target) == 0 {
			break
		}
		off := rng.Intn(len(target))
		n := min(1+rng.Intn(200), len(target)-off)
		rng.Read(target[off : off+n])
	}
	if rng.Intn(2) == 0 && len(target) > 0 {
		at := rng.Intn(len(target))
		ins := make([]byte, 1+rng.Intn(300))
		rng.Read(ins)
		target = append(target[:at], append(ins, target[at:]...)...)
	}
	if rng.Intn(2) == 0 {
		app := make([]byte, rng.Intn(5000))
		rng.Read(app)
		target = append(target, app...)
	}
	return target
}

func TestScannerMatchesReferenceRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, bs := range []int{1, 16, 64, 512} {
		for _, size := range []int{0, 1, bs - 1, bs, bs + 1, 4 * bs, 32*bs + 17} {
			base := make([]byte, size)
			rng.Read(base)
			for iter := 0; iter < 4; iter++ {
				checkScanner(t, rng, base, mutate(rng, base), bs)
			}
		}
	}
}

func TestScannerMatchesReferenceStructured(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	bs := 256
	base := make([]byte, 64*bs+100)
	rng.Read(base)

	cases := map[string][]byte{
		"identical":      append([]byte(nil), base...),
		"disjoint":       bytes.Repeat([]byte{0xAA}, len(base)),
		"shifted":        append([]byte{1, 2, 3}, base...),
		"block-shifted":  append(append([]byte(nil), base[3*bs:]...), base[:3*bs]...),
		"truncated":      base[:10*bs+5],
		"tail-only":      base[len(base)-100:],
		"repeated-block": bytes.Repeat(base[:bs], 20),
		"one-block":      base[5*bs : 6*bs],
		"empty":          nil,
	}
	for name, target := range cases {
		t.Run(name, func(t *testing.T) { checkScanner(t, rng, base, target, bs) })
	}
}

// With duplicate base blocks the reference restarts its copy at the first
// duplicate for every block of a run; the adjacency-first rule keeps
// extending the copy it is in. Same bytes, fewer ops, any segmentation.
func TestScannerDuplicateBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	bs := 128
	page := make([]byte, bs)
	rng.Read(page)
	unique := func(n int) []byte {
		p := make([]byte, n)
		rng.Read(p)
		return p
	}
	var base []byte
	base = append(base, unique(3*bs)...)
	base = append(base, make([]byte, 9*bs)...) // zero run
	base = append(base, unique(2*bs+17)...)
	base = append(base, bytes.Repeat(page, 7)...) // repeated page
	base = append(base, unique(bs+40)...)
	base = append(base, make([]byte, 4*bs)...) // second zero run
	base = append(base, unique(50)...)

	targets := map[string][]byte{
		"identical": append([]byte(nil), base...),
		"shifted":   append(unique(5), base...),
		"mutated":   mutate(rng, base),
		"zeros":     make([]byte, 20*bs+3),
		"pages":     bytes.Repeat(page, 12),
	}
	for name, target := range targets {
		t.Run(name, func(t *testing.T) { checkScanner(t, rng, base, target, bs) })
	}

	ref, _ := reference(base, base, bs, false)
	got := DeltaLocal(base, base, bs, nil)
	if len(got.Ops) != 1 || len(ref.Ops) <= len(got.Ops) {
		t.Fatalf("identical file with duplicate blocks: %d ops (reference %d), want one copy", len(got.Ops), len(ref.Ops))
	}
}

// An unmoved run costs comparisons only: the adjacency-first rule tests the
// base block after the last match before it builds any rolling checksum.
func TestScannerAdjacentRunNeedsNoRollingHash(t *testing.T) {
	bs := 64
	base := randBytes(17, 40*bs)
	meter := metrics.NewCPUMeter(metrics.PC)
	d := DeltaLocal(base, base, bs, meter)
	if len(d.Ops) != 1 || d.Ops[0].Len != int64(len(base)) {
		t.Fatalf("ops = %+v", d.Ops)
	}
	b := meter.Breakdown()
	if b["rolling_bytes"] != int64(len(base)) { // the base signature, nothing for the target
		t.Fatalf("rolling_bytes = %d, want %d", b["rolling_bytes"], len(base))
	}
	if b["compare_bytes"] != int64(len(base)) {
		t.Fatalf("compare_bytes = %d, want %d", b["compare_bytes"], len(base))
	}
}

// spacedEdits returns a random base and a target that differs from it by k
// in-place edits of m bytes and one insertion of g bytes. Edits and a
// mid-file insertion are at least two blocks from each other and from either
// end; insAt 0 or 1 instead puts the insertion at the start or the end of
// the file. Every edit and the insertion differ from the base bytes at both
// of their edges, so no byte of them continues a neighbouring copy.
func spacedEdits(rng *rand.Rand, bs, k, m, g, insAt int) (base, target []byte) {
	gap := func() int { return 2*bs + rng.Intn(bs) }
	var edits []int
	ins := -1
	cur := gap()
	for _, slot := range rng.Perm(k + 1) {
		if slot == k {
			ins = cur
			cur += gap()
			continue
		}
		edits = append(edits, cur)
		cur += m + gap()
	}
	base = make([]byte, cur+rng.Intn(bs)) // a short tail block, sometimes
	rng.Read(base)
	switch insAt {
	case 0:
		ins = 0
	case 1:
		ins = len(base)
	}

	// differ picks a byte other than base[i] (any byte past either end).
	differ := func(b byte, i int) byte {
		if i >= 0 && i < len(base) && b == base[i] {
			return b ^ byte(1+rng.Intn(255))
		}
		return b
	}
	edited := append([]byte(nil), base...)
	for _, e := range edits {
		rng.Read(edited[e : e+m])
		edited[e] = differ(edited[e], e)
		edited[e+m-1] = differ(edited[e+m-1], e+m-1)
	}
	insert := make([]byte, g)
	rng.Read(insert)
	insert[0] = differ(insert[0], ins)
	insert[g-1] = differ(insert[g-1], ins-1)
	target = append(append(append([]byte(nil), edited[:ins]...), insert...), edited[ins:]...)
	return base, target
}

// Byte extension makes the delta exactly as large as the edit: k edits of m
// bytes and one insertion of g bytes ship k·m + g literal bytes, whatever the
// alignment of the edits to the blocks and however the target is cut.
func TestScannerLiteralIsTheEdit(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, bs := range []int{16, 4096} {
		for _, c := range []struct{ k, m, g int }{
			{1, 1, 1}, {3, 7, 40}, {8, 200, 24 << 10}, {2, bs + 3, 2*bs - 1}, {5, 2 * bs, bs},
		} {
			for insAt := 0; insAt < 3; insAt++ {
				base, target := spacedEdits(rng, bs, c.k, c.m, c.g, insAt)
				want := int64(c.k*c.m + c.g)
				for _, cut := range segmentations(rng, len(target), bs) {
					d, _ := scanSegments(base, target, bs, false, cut)
					if got := d.LiteralBytes(); got != want {
						t.Fatalf("bs=%d k=%d m=%d g=%d insAt=%d cuts=%d: %d literal bytes, want %d",
							bs, c.k, c.m, c.g, insAt, len(cut), got, want)
					}
					if got := mustPatch(t, base, d); !bytes.Equal(got, target) {
						t.Fatalf("bs=%d k=%d m=%d g=%d: patch mismatched", bs, c.k, c.m, c.g)
					}
				}
			}
		}
	}
}

func FuzzScannerSegments(f *testing.F) {
	f.Add([]byte("the quick brown fox jumps over the lazy dog"), []byte("the quick red fox jumps over the lazy dogs"), uint8(4), int64(1))
	f.Add(make([]byte, 300), make([]byte, 200), uint8(16), int64(2))
	f.Add(bytes.Repeat([]byte("abcd"), 64), bytes.Repeat([]byte("abcd"), 80), uint8(8), int64(3))
	f.Fuzz(func(t *testing.T, base, target []byte, bsSeed uint8, seed int64) {
		if len(base) > 1<<10 || len(target) > 1<<10 {
			t.Skip()
		}
		checkScanner(t, rand.New(rand.NewSource(seed)), base, target, 1+int(bsSeed)%64)
	})
}

// Signature shards its base across workers; the scan is serial. Whatever the
// worker count, ops, wire size and every meter category are the same.
func TestWorkersDoNotChangeResults(t *testing.T) {
	old := sigParallelMin
	sigParallelMin = 0
	t.Cleanup(func() {
		SetWorkers(0)
		sigParallelMin = old
	})
	run := func(base, target []byte, bs int, remote bool) (*Delta, *metrics.CPUMeter) {
		meter := metrics.NewCPUMeter(metrics.PC)
		if remote {
			d, err := DeltaRemote(Signature(base, bs, meter), target, meter)
			if err != nil {
				t.Fatal(err)
			}
			return d, meter
		}
		return DeltaLocal(base, target, bs, meter), meter
	}
	rng := rand.New(rand.NewSource(7))
	for _, bs := range []int{16, 64, 4096} {
		for _, size := range []int{0, 1, bs - 1, bs, bs + 1, 4 * bs, 32*bs + 17} {
			base := make([]byte, size)
			rng.Read(base)
			target := mutate(rng, base)
			for _, remote := range []bool{false, true} {
				SetWorkers(1)
				ds, ms := run(base, target, bs, remote)
				SetWorkers(5)
				dp, mp := run(base, target, bs, remote)
				if !sameDelta(ds, dp) || ds.WireSize() != dp.WireSize() {
					t.Fatalf("bs=%d size=%d remote=%v: deltas differ across worker counts", bs, size, remote)
				}
				if ms.NanoTicks() != mp.NanoTicks() || !reflect.DeepEqual(ms.Breakdown(), mp.Breakdown()) {
					t.Fatalf("bs=%d size=%d remote=%v: charges differ:\n1 worker  %v\n5 workers %v",
						bs, size, remote, ms.Breakdown(), mp.Breakdown())
				}
			}
		}
	}
}

// TestSharedSigConcurrent exercises the Sig.index() race the lazy map build
// had: many goroutines share one signature and encode deltas concurrently.
// Run under -race this fails on the pre-sync.Once implementation.
func TestSharedSigConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	base := make([]byte, 1<<16)
	rng.Read(base)
	sig := Signature(base, 1024, nil)
	want, err := DeltaRemote(sig, base[100:], nil)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d, err := DeltaRemote(sig, base[100:], nil)
			if err != nil {
				errs <- err
				return
			}
			if !reflect.DeepEqual(d.Ops, want.Ops) {
				errs <- fmt.Errorf("concurrent delta diverged: %d ops vs %d", len(d.Ops), len(want.Ops))
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestDeltaReleaseRecycles(t *testing.T) {
	base := bytes.Repeat([]byte{1, 2, 3, 4}, 1000)
	target := append(append([]byte(nil), base...), []byte("trailing edit")...)
	d := DeltaLocal(base, target, 256, nil)
	if got, err := Patch(base, d, nil); err != nil || !bytes.Equal(got, target) {
		t.Fatalf("patch before release: err=%v", err)
	}
	d.Release()
	if len(d.Ops) != 0 {
		t.Fatalf("Release left %d ops", len(d.Ops))
	}
	// The pool must hand back usable zero-length buffers, not corrupt ones.
	d2 := DeltaLocal(base, target, 256, nil)
	if got, err := Patch(base, d2, nil); err != nil || !bytes.Equal(got, target) {
		t.Fatalf("patch after pooled reuse: err=%v", err)
	}
}

var benchCases = []struct {
	name string
	size int
}{
	{"64KB", 64 << 10},
	{"4MB", 4 << 20},
	{"64MB", 64 << 20},
}

func benchInput(size int) (base, target []byte) {
	rng := rand.New(rand.NewSource(int64(size)))
	base = make([]byte, size)
	rng.Read(base)
	// Realistic update: a handful of scattered small edits plus one insertion.
	target = append([]byte(nil), base...)
	for i := 0; i < 8; i++ {
		off := rng.Intn(max(size-64, 1))
		rng.Read(target[off : off+min(64, size-off)])
	}
	mid := size / 2
	target = append(target[:mid], append([]byte("inserted-run-of-bytes"), target[mid:]...)...)
	return base, target
}

// BenchmarkSignature compares the serial and the chunk-parallel signature.
func BenchmarkSignature(b *testing.B) {
	for _, tc := range benchCases {
		base, _ := benchInput(tc.size)
		for _, mode := range []struct {
			name    string
			workers int
		}{{"serial", 1}, {"parallel", 0}} {
			b.Run(tc.name+"/"+mode.name, func(b *testing.B) {
				SetWorkers(mode.workers)
				old := sigParallelMin
				sigParallelMin = 1 << 12
				b.Cleanup(func() { SetWorkers(0); sigParallelMin = old })
				b.SetBytes(int64(tc.size))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s := Signature(base, block.DefaultBlockSize, nil)
					s.Release()
				}
			})
		}
	}
}

func BenchmarkDeltaLocal(b *testing.B) {
	for _, tc := range benchCases {
		b.Run(tc.name, func(b *testing.B) {
			base, target := benchInput(tc.size)
			SetWorkers(1)
			b.Cleanup(func() { SetWorkers(0) })
			b.SetBytes(int64(tc.size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d := DeltaLocal(base, target, block.DefaultBlockSize, nil)
				d.Release()
			}
		})
	}
}

func BenchmarkDeltaRemote(b *testing.B) {
	for _, tc := range benchCases {
		b.Run(tc.name, func(b *testing.B) {
			base, target := benchInput(tc.size)
			sig := Signature(base, block.DefaultBlockSize, nil)
			b.SetBytes(int64(tc.size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d, err := DeltaRemote(sig, target, nil)
				if err != nil {
					b.Fatal(err)
				}
				d.Release()
			}
		})
	}
}
