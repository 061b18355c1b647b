package syncqueue

import (
	"math/rand"
	"runtime"
	"testing"
)

// allocated returns the bytes f allocates.
func allocated(f func()) uint64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	f()
	runtime.ReadMemStats(&m1)
	return m1.TotalAlloc - m0.TotalAlloc
}

// A streamed file is copied into the queue once, whatever the write size: a
// run of contiguous writes fills one mergeLimit buffer at a time instead of
// regrowing one extent, so only each buffer's first write is copied twice.
func TestStreamedWritesAreCopiedOnce(t *testing.T) {
	const total = 4 << 20
	for _, chunk := range []int{1 << 20, 4 << 10} {
		data := make([]byte, chunk)
		var n *Node
		got := allocated(func() {
			q := New(delay)
			for off := 0; off < total; off += chunk {
				n = q.Write("f", int64(off), data, 0)
			}
		})
		if n.PayloadBytes() != total {
			t.Fatalf("chunk %d: payload %d", chunk, n.PayloadBytes())
		}
		var end int64
		for _, x := range n.Extents {
			if x.Off != end || len(x.Data) > max(chunk, mergeLimit) {
				t.Fatalf("chunk %d: extent at %d (want %d) of %d bytes", chunk, x.Off, end, len(x.Data))
			}
			end += int64(len(x.Data))
		}
		if want := total / max(chunk, mergeLimit); len(n.Extents) != want {
			t.Fatalf("chunk %d: %d extents, want %d", chunk, len(n.Extents), want)
		}
		t.Logf("chunk %d: allocated %.3fx the payload", chunk, float64(got)/total)
		if got > total*11/10 {
			t.Fatalf("chunk %d: allocated %d bytes for a %d-byte stream (%.2fx), budget 1.1x",
				chunk, got, total, float64(got)/total)
		}
	}
}

// Scattered small writes never merge, so nothing is sized for a run that
// does not come: each costs its payload plus its share of the extent table —
// 281 608 bytes for these 256 KiB, exactly what they cost before contiguous
// runs got their buffer.
func TestScatteredWritesAllocateTheirPayload(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	offs := make([]int64, 256)
	for i := range offs {
		offs[i] = int64(rng.Intn(32<<20)) &^ 4095
	}
	data := make([]byte, 1024)
	got := allocated(func() {
		q := New(delay)
		for _, off := range offs {
			q.Write("f", off, data, 0)
		}
	})
	t.Logf("allocated %d bytes", got)
	const budget = 282 << 10
	if got > budget {
		t.Fatalf("256 scattered 1 KiB writes allocated %d bytes, budget %d", got, budget)
	}
}
