// Package block implements the checksum primitives shared by the rsync
// engine and the integrity subsystem: the Adler-style rolling (weak) checksum
// used by rsync [Tridgell 1996], and the MD5 strong checksum used by
// librsync. DeltaCFS reuses the rolling checksum as its 4 KB block-integrity
// checksum (paper §III-E), which is why it lives in its own package rather
// than inside internal/rsync.
package block

// DefaultBlockSize is the rsync block granularity used throughout the paper:
// 4 KB, matching both librsync's delta granularity and the integrity
// checksum block size.
const DefaultBlockSize = 4096

const rollMod = 1 << 16

// Rolling is the rsync weak checksum over a sliding window. It supports O(1)
// Roll updates as the window advances one byte. The zero value is an empty
// checksum over an empty window.
type Rolling struct {
	a, b uint32
	n    int // window length
}

// NewRolling computes the rolling checksum of data in one pass.
func NewRolling(data []byte) Rolling {
	var r Rolling
	r.Update(data)
	return r
}

// Update extends the checksum with data, growing the window.
func (r *Rolling) Update(data []byte) {
	a, b := r.a, r.b
	n := len(data)
	// Eight bytes a step: b's eight dependent additions of a collapse into
	// 8a plus a weighted sum of the bytes, so the additions of one step do
	// not wait on each other. Sums wrap mod 2^32, which rollMod divides.
	for ; len(data) >= 8; data = data[8:] {
		c0, c1, c2, c3 := uint32(data[0]), uint32(data[1]), uint32(data[2]), uint32(data[3])
		c4, c5, c6, c7 := uint32(data[4]), uint32(data[5]), uint32(data[6]), uint32(data[7])
		b += 8*a + 8*c0 + 7*c1 + 6*c2 + 5*c3 + 4*c4 + 3*c5 + 2*c6 + c7
		a += c0 + c1 + c2 + c3 + c4 + c5 + c6 + c7
	}
	for _, c := range data {
		a += uint32(c)
		b += a
	}
	r.a = a % rollMod
	r.b = b % rollMod
	r.n += n
}

// Roll slides the window one byte forward: out leaves the window, in enters
// it. The window length is unchanged. Roll on an empty window is equivalent
// to Update with one byte.
func (r *Rolling) Roll(out, in byte) {
	if r.n == 0 {
		r.Update([]byte{in})
		return
	}
	// a' = a - out + in; b' = b - n*out + a'
	r.a = (r.a + rollMod + uint32(in) - uint32(out)) % rollMod
	r.b = (r.b + rollMod*uint32(r.n) - uint32(r.n)*uint32(out) + r.a) % rollMod
}

// Sum returns the 32-bit checksum value (b<<16 | a).
func (r Rolling) Sum() uint32 { return r.b<<16 | r.a }

// Len returns the current window length in bytes.
func (r Rolling) Len() int { return r.n }

// Reset returns the checksum to its initial empty state.
func (r *Rolling) Reset() { *r = Rolling{} }

// WeakSum is a convenience that returns the rolling checksum of data.
func WeakSum(data []byte) uint32 { return NewRolling(data).Sum() }
