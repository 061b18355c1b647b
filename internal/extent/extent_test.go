package extent

import (
	"bytes"
	"io"
	"math/rand"
	"testing"

	"repro/internal/metrics"
)

// flat is the reference: the same edits on one []byte.
type flat []byte

func (f flat) writeAt(p []byte, off int64) flat {
	if end := off + int64(len(p)); end > int64(len(f)) {
		f = append(f, make([]byte, end-int64(len(f)))...)
	}
	copy(f[off:], p)
	return f
}

func (f flat) truncate(n int64) flat {
	if n <= int64(len(f)) {
		return f[:n:n]
	}
	return append(f, make([]byte, n-int64(len(f)))...)
}

// boundary returns an offset or length near a page boundary, or a small or
// zero one: the cases the table arithmetic can get wrong.
func boundary(r *rand.Rand, limit int64) int64 {
	var v int64
	switch r.Intn(4) {
	case 0:
		v = int64(r.Intn(4)) * PageSize
	case 1:
		v = int64(r.Intn(4))*PageSize + int64(r.Intn(5)) - 2
	case 2:
		v = int64(r.Intn(300))
	default:
		v = r.Int63n(4 * PageSize)
	}
	return max(0, min(v, limit))
}

func checkSame(t *testing.T, seed int64, step int, f File, want flat) {
	t.Helper()
	if f.Size() != int64(len(want)) {
		t.Fatalf("seed %d step %d: size %d, model %d", seed, step, f.Size(), len(want))
	}
	if !bytes.Equal(f.Bytes(), want) {
		t.Fatalf("seed %d step %d: content differs from the model", seed, step)
	}
}

// TestModel edits three files that borrow pages from one another and checks
// every one of them against a flat copy after every publication: an edit
// that wrote through a shared page would show up in a file it did not touch.
func TestModel(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		r := rand.New(rand.NewSource(seed))
		var files [3]File
		var models [3]flat
		for step := 0; step < 150; step++ {
			dst, src := r.Intn(3), r.Intn(3)
			b, m := Edit(files[dst], nil), append(flat(nil), models[dst]...)
			// One to three edits per builder, so pages the builder owns are
			// rewritten, regrown and truncated as well as copied.
			for k := r.Intn(3) + 1; k > 0; k-- {
				switch r.Intn(5) {
				case 0, 1:
					p := make([]byte, boundary(r, 3*PageSize))
					r.Read(p)
					off := boundary(r, int64(len(m))+PageSize)
					b.WriteAt(p, off)
					m = m.writeAt(p, off)
					r.Read(p) // the buffer is the caller's again
				case 2:
					n := boundary(r, int64(len(m))+2*PageSize)
					b.Truncate(n)
					m = m.truncate(n)
				case 3:
					p := make([]byte, boundary(r, 2*PageSize))
					r.Read(p)
					b.WriteAt(p, b.Size())
					m = m.writeAt(p, int64(len(m)))
				case 4:
					if r.Intn(2) == 0 {
						b.Truncate(0)
						m = nil
					}
					off := boundary(r, int64(len(models[src])))
					n := boundary(r, int64(len(models[src]))-off)
					b.AppendFrom(files[src], off, n)
					m = append(m[:len(m):len(m)], models[src][off:off+n]...)
				}
				if b.Size() != int64(len(m)) {
					t.Fatalf("seed %d step %d: builder size %d, model %d", seed, step, b.Size(), len(m))
				}
			}
			files[dst], models[dst] = b.File(), m
			for i := range files {
				checkSame(t, seed, step, files[i], models[i])
			}

			f, m := files[dst], models[dst]
			off := boundary(r, int64(len(m))+10)
			p := make([]byte, boundary(r, 2*PageSize))
			n, err := f.ReadAt(p, off)
			want := []byte(nil)
			if off < int64(len(m)) {
				want = m[off:min(int64(len(m)), off+int64(len(p)))]
			}
			if !bytes.Equal(p[:n], want) {
				t.Fatalf("seed %d step %d: ReadAt(%d bytes at %d) differs", seed, step, len(p), off)
			}
			if (err == io.EOF) != (n < len(p)) || (err != nil && err != io.EOF) {
				t.Fatalf("seed %d step %d: ReadAt n=%d of %d, err=%v", seed, step, n, len(p), err)
			}
		}
	}
}

// TestPublishedFileNeverChanges pins the two halves of immutability: a value
// captured before an edit reads the same after it, and the bytes handed to
// WriteAt are copied, not kept.
func TestPublishedFileNeverChanges(t *testing.T) {
	content := make([]byte, 3*PageSize+100)
	rand.New(rand.NewSource(7)).Read(content)
	before := New(content, nil)
	want := before.Bytes()

	b := Edit(before, nil)
	in := bytes.Repeat([]byte{0xAB}, PageSize+10)
	b.WriteAt(in, PageSize-5)
	b.WriteAt(in[:7], 3) // second write to a page the builder already owns
	b.Truncate(2 * PageSize)
	b.WriteAt(in[:50], 3*PageSize) // regrow over the truncated tail
	after := b.File()
	wantAfter := after.Bytes()
	for i := range in {
		in[i] = 0xCD
	}

	if !bytes.Equal(before.Bytes(), want) {
		t.Fatal("a File captured before the edit changed")
	}
	if !bytes.Equal(after.Bytes(), wantAfter) {
		t.Fatal("mutating the slice passed to WriteAt changed the File")
	}
	gap := make([]byte, PageSize)
	if n, err := after.ReadAt(gap, 2*PageSize); n != PageSize || err != nil || !bytes.Equal(gap, make([]byte, PageSize)) {
		t.Fatalf("bytes between the truncation point and the later write: n=%d err=%v, want %d zeros", n, err, PageSize)
	}

	// A builder used after File starts from the empty file and owns nothing.
	b.WriteAt([]byte("x"), 0)
	if !bytes.Equal(after.Bytes(), wantAfter) {
		t.Fatal("the builder wrote into a File it had published")
	}
}

// TestCopiesAreCharged checks the meter sees exactly the bytes copied: a
// sub-page write costs its page, a shared page costs nothing, and a small
// file costs its own length.
func TestCopiesAreCharged(t *testing.T) {
	copied := func(m *metrics.CPUMeter) int64 { return m.Breakdown()["copy_bytes"] }

	m := metrics.NewCPUMeter(metrics.PC)
	f := New(make([]byte, 256), m)
	if got := copied(m); got != 256 {
		t.Fatalf("New(256 B) charged %d", got)
	}
	if len(f.pages) != 1 || cap(f.pages[0]) != 256 {
		t.Fatalf("a 256 B file holds %d pages, first of capacity %d", len(f.pages), cap(f.pages[0]))
	}

	big := New(make([]byte, 8*PageSize), nil)
	m = metrics.NewCPUMeter(metrics.PC)
	b := Edit(big, m)
	b.WriteAt(make([]byte, 1024), 3*PageSize+17)
	b.WriteAt(make([]byte, 1024), 3*PageSize+5000) // same page again: no second copy
	b.File()
	if got := copied(m); got != PageSize+1024 {
		t.Fatalf("two 1 KiB writes into one page charged %d, want %d", got, PageSize+1024)
	}

	m = metrics.NewCPUMeter(metrics.PC)
	b = Edit(File{}, m)
	b.AppendFrom(big, 2*PageSize, 4*PageSize) // aligned at both ends: shared
	b.AppendFrom(big, 100, 50)                // not aligned: copied
	out := b.File()
	if got := copied(m); got != 50 {
		t.Fatalf("aligned AppendFrom charged %d, want 50", got)
	}
	if &out.pages[0][0] != &big.pages[2][0] {
		t.Fatal("aligned AppendFrom did not share the source page")
	}
}
