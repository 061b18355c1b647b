package block

import (
	"bytes"
	"crypto/md5"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRollingEmpty(t *testing.T) {
	var r Rolling
	if r.Sum() != 0 || r.Len() != 0 {
		t.Fatalf("empty rolling = (%d, %d), want (0, 0)", r.Sum(), r.Len())
	}
}

func TestRollingUpdateMatchesOneShot(t *testing.T) {
	data := []byte("the quick brown fox jumps over the lazy dog")
	one := NewRolling(data)
	var inc Rolling
	for _, c := range data {
		inc.Update([]byte{c})
	}
	if one.Sum() != inc.Sum() {
		t.Fatalf("incremental sum %#x != one-shot sum %#x", inc.Sum(), one.Sum())
	}
	// The one-shot path takes eight bytes a step; byte-at-a-time is the
	// definition. Every length around the step, and a run long and heavy
	// enough to wrap the 32-bit accumulators many times over.
	rng := rand.New(rand.NewSource(2))
	inputs := [][]byte{bytes.Repeat([]byte{0xff}, 1<<20)}
	for n := 0; n <= 40; n++ {
		p := make([]byte, n)
		rng.Read(p)
		inputs = append(inputs, p)
	}
	for _, p := range inputs {
		var inc Rolling
		for _, c := range p {
			inc.Update([]byte{c})
		}
		if one := NewRolling(p); one != inc {
			t.Fatalf("len %d: one-shot %+v != byte-at-a-time %+v", len(p), one, inc)
		}
	}
}

func TestRollingRollMatchesRecompute(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	data := make([]byte, 4096)
	rng.Read(data)
	const win = 512
	r := NewRolling(data[:win])
	for i := win; i < len(data); i++ {
		r.Roll(data[i-win], data[i])
		want := WeakSum(data[i-win+1 : i+1])
		if r.Sum() != want {
			t.Fatalf("roll at %d: got %#x, want %#x", i, r.Sum(), want)
		}
		if r.Len() != win {
			t.Fatalf("roll changed window length to %d", r.Len())
		}
	}
}

func TestRollingRollOnEmptyWindow(t *testing.T) {
	var r Rolling
	r.Roll(0, 'x')
	if r.Sum() != WeakSum([]byte{'x'}) {
		t.Fatalf("roll on empty window: got %#x, want %#x", r.Sum(), WeakSum([]byte{'x'}))
	}
	if r.Len() != 1 {
		t.Fatalf("window length = %d, want 1", r.Len())
	}
}

func TestRollingReset(t *testing.T) {
	r := NewRolling([]byte("abc"))
	r.Reset()
	if r.Sum() != 0 || r.Len() != 0 {
		t.Fatal("Reset did not clear state")
	}
}

// Property: rolling a window across any buffer always agrees with direct
// recomputation of the window contents.
func TestRollingRollProperty(t *testing.T) {
	f := func(data []byte, winSeed uint8) bool {
		if len(data) < 2 {
			return true
		}
		win := 1 + int(winSeed)%(len(data)-1)
		r := NewRolling(data[:win])
		for i := win; i < len(data); i++ {
			r.Roll(data[i-win], data[i])
			if r.Sum() != WeakSum(data[i-win+1:i+1]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: equal buffers have equal weak sums (determinism).
func TestWeakSumDeterministic(t *testing.T) {
	f := func(data []byte) bool {
		cp := append([]byte(nil), data...)
		return WeakSum(data) == WeakSum(cp)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWeakSumDistinguishesPermutations(t *testing.T) {
	// The b component makes the checksum order-sensitive, unlike a plain
	// byte sum. "ab" vs "ba" must differ.
	if WeakSum([]byte("ab")) == WeakSum([]byte("ba")) {
		t.Fatal("weak sum failed to distinguish byte order")
	}
}

func TestStrongSumMatchesMD5(t *testing.T) {
	data := []byte("hello, delta sync")
	if got, want := StrongSum(data), md5.Sum(data); got != Strong(want) {
		t.Fatalf("StrongSum = %x, want %x", got, want)
	}
}

func TestStrongSumDistinct(t *testing.T) {
	a := StrongSum([]byte("a"))
	b := StrongSum([]byte("b"))
	if bytes.Equal(a[:], b[:]) {
		t.Fatal("distinct inputs produced identical strong sums")
	}
}

func BenchmarkRollingUpdate(b *testing.B) {
	data := make([]byte, 1<<20)
	rand.New(rand.NewSource(2)).Read(data)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var r Rolling
		r.Update(data)
	}
}

func BenchmarkRollingRoll(b *testing.B) {
	data := make([]byte, 1<<20)
	rand.New(rand.NewSource(3)).Read(data)
	const win = DefaultBlockSize
	r := NewRolling(data[:win])
	b.SetBytes(int64(len(data) - win))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rr := r
		for j := win; j < len(data); j++ {
			rr.Roll(data[j-win], data[j])
		}
	}
}

func BenchmarkStrongSum(b *testing.B) {
	data := make([]byte, 1<<20)
	rand.New(rand.NewSource(4)).Read(data)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		StrongSum(data)
	}
}
