// Package extent holds file bodies as immutable copy-on-write page tables,
// so that changing a file costs the pages the change writes, not the file.
//
// A File is a value: a table of fixed-size pages plus a size. Once a Builder
// publishes it, neither the table nor any page it points at is ever written
// again, so a File may be copied, kept as an old revision, shared between
// paths and read by any number of goroutines with no lock and no copy. An
// edit goes through a Builder, which copies the pointer table, copies each
// page it writes at most once, and shares every other page with the File it
// started from.
//
// The unit is called a page to keep it apart from the CDC chunk store and
// from wire.Extent.
package extent

import (
	"errors"
	"io"

	"repro/internal/metrics"
)

// PageSize is the unit of copy-on-write. 64 KiB keeps the table of a 32 MiB
// file at 512 entries while a sub-page write copies one page.
const PageSize = 64 << 10

// zeros backs reads of holes.
var zeros [PageSize]byte

// File is an immutable file body. Page i covers bytes
// [i*PageSize, min((i+1)*PageSize, size)); a page shorter than that span
// (nil included) reads as zeros past its length, so the last page is held
// at its content length and growing a file allocates nothing. The zero File
// is the empty file.
type File struct {
	pages [][]byte
	size  int64
}

// New returns a File holding a copy of p, charging the copy to meter (which
// may be nil).
func New(p []byte, meter *metrics.CPUMeter) File {
	b := Builder{meter: meter}
	b.WriteAt(p, 0)
	return b.File()
}

// Size returns the file's length in bytes.
func (f File) Size() int64 { return f.size }

// view returns the bytes of f starting at off that lie within one page, at
// most limit of them. 0 <= off < f.size and limit > 0. The result is
// read-only.
func (f File) view(off, limit int64) []byte {
	i, o := off/PageSize, off%PageSize
	n := min(limit, min(PageSize, f.size-i*PageSize)-o)
	if pg := f.pages[i]; o < int64(len(pg)) {
		return pg[o:min(int64(len(pg)), o+n)]
	}
	return zeros[:n]
}

// ReadAt implements io.ReaderAt.
func (f File) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, errors.New("extent: negative offset")
	}
	n := 0
	for n < len(p) && off < f.size {
		c := copy(p[n:], f.view(off, f.size-off))
		n, off = n+c, off+int64(c)
	}
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// Bytes returns the whole file as one freshly allocated slice.
func (f File) Bytes() []byte {
	out := make([]byte, f.size)
	f.ReadAt(out, 0)
	return out
}

// Builder edits a File into a new one. The zero Builder edits the empty
// file. A Builder is for one goroutine.
type Builder struct {
	pages [][]byte
	size  int64
	// owned[i] reports that this builder allocated pages[i], which no File
	// can reference yet: it alone may be written in place.
	owned []bool
	// reserve is the size the caller expects to reach; fresh pages are
	// allocated for it so that appends fill them in place.
	reserve int64
	meter   *metrics.CPUMeter
}

// Edit returns a builder whose content is f. Every byte the builder copies
// is charged to meter (which may be nil); pages shared by pointer cost
// nothing.
func Edit(f File, meter *metrics.CPUMeter) *Builder {
	return &Builder{pages: append([][]byte(nil), f.pages...), size: f.size, meter: meter}
}

// Size returns the current length in bytes.
func (b *Builder) Size() int64 { return b.size }

// Reserve tells the builder the content is expected to grow to n bytes. It
// sizes at most one page ahead, so an untrusted n commits no memory.
func (b *Builder) Reserve(n int64) { b.reserve = n }

func pagesFor(size int64) int { return int((size + PageSize - 1) / PageSize) }

// grow extends the content to size with zeros: table entries, no pages.
func (b *Builder) grow(size int64) {
	b.size = size
	if n := pagesFor(size); n > len(b.pages) {
		b.pages = append(b.pages, make([][]byte, n-len(b.pages))...)
	}
}

// writable returns page i ready to be written in [lo, hi): owned by this
// builder, at least hi long, with the bytes outside [lo, hi) preserved.
func (b *Builder) writable(i, lo, hi int) []byte {
	pg := b.pages[i]
	own := i < len(b.owned) && b.owned[i]
	if own && hi <= cap(pg) {
		if hi > len(pg) {
			// Bytes between len and cap of an owned page were never
			// written: Truncate is the only way a page shrinks, and it
			// clips the capacity.
			pg = pg[:hi]
			b.pages[i] = pg
		}
		return pg
	}
	// Capacity: what the page will hold once the content reaches its known
	// or reserved size, so later writes land in place; an owned page that
	// outgrew that guess doubles instead.
	n := max(len(pg), hi)
	c := max(n, int(min(PageSize, max(b.size, b.reserve)-int64(i)*PageSize)))
	if own {
		c = max(c, min(PageSize, 2*cap(pg)))
	}
	fresh := make([]byte, n, c)
	kept := copy(fresh[:lo], pg)
	if hi < len(pg) {
		kept += copy(fresh[hi:], pg[hi:])
	}
	b.meter.Copy(int64(kept))
	b.pages[i] = fresh
	for len(b.owned) <= i {
		b.owned = append(b.owned, false)
	}
	b.owned[i] = true
	return fresh
}

// WriteAt copies p into the content at off, growing it (zero-filled) as
// needed. p is not retained. off must not be negative.
func (b *Builder) WriteAt(p []byte, off int64) {
	if end := off + int64(len(p)); end > b.size {
		b.grow(end)
	}
	for len(p) > 0 {
		i, o := int(off/PageSize), int(off%PageSize)
		n := min(len(p), PageSize-o)
		copy(b.writable(i, o, o+n)[o:], p[:n])
		b.meter.Copy(int64(n))
		p, off = p[n:], off+int64(n)
	}
}

// AppendFrom appends bytes [off, off+n) of src, which must lie within it.
// Where the source offset and the builder's end are both page-aligned the
// source's pages are shared by pointer; the rest is copied.
func (b *Builder) AppendFrom(src File, off, n int64) {
	for n > 0 {
		if b.size%PageSize == 0 && off%PageSize == 0 {
			i := off / PageSize
			take := min(n, PageSize)
			pg := src.pages[i]
			if int64(len(pg)) > take {
				pg = pg[:take:take]
			}
			b.pages = append(b.pages, pg)
			b.size += take
			off, n = off+take, n-take
			continue
		}
		v := src.view(off, n)
		b.WriteAt(v, b.size)
		off, n = off+int64(len(v)), n-int64(len(v))
	}
}

// Truncate sets the length to n, zero-filling on growth.
func (b *Builder) Truncate(n int64) {
	if n >= b.size {
		b.grow(n)
		return
	}
	np := pagesFor(n)
	clear(b.pages[np:])
	b.pages, b.size = b.pages[:np], n
	if len(b.owned) > np {
		b.owned = b.owned[:np]
	}
	if np > 0 {
		span := n - int64(np-1)*PageSize
		if pg := b.pages[np-1]; int64(len(pg)) > span {
			b.pages[np-1] = pg[:span:span]
		}
	}
}

// File publishes the content as an immutable File and leaves the builder
// empty: the pages it owned now belong to the File.
func (b *Builder) File() File {
	f := File{pages: b.pages, size: b.size}
	*b = Builder{meter: b.meter}
	return f
}
