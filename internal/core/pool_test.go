package core

import "testing"

// A rename-triggered delta is encoded on the pool, off the operation path:
// Rename returns with the encode still in flight, and the next Tick joins it
// before anything can upload. Encoding inline instead made the save's rename
// wait for the whole encode (DESIGN.md §8, "What still runs in parallel").
func TestRenameDeltaRunsOnPool(t *testing.T) {
	r := newRig(t, false)
	old := randBytes(6, 256<<10)
	r.seed("f", old)
	next := append([]byte(nil), old...)
	copy(next[1000:1100], randBytes(7, 100))

	fs := r.eng.FS()
	for i, step := range []func() error{
		func() error { return fs.Create("tmp") },
		func() error { return fs.WriteAt("tmp", 0, next) },
		func() error { return fs.Close("tmp") },
		func() error { return fs.Rename("tmp", "f") }, // name exists: delta
	} {
		if err := step(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	if n := r.eng.pool.inFlight(); n != 1 {
		t.Fatalf("after Rename: %d delta jobs in flight, want 1", n)
	}
	r.eng.Tick(r.clk.Now())
	if n := r.eng.pool.inFlight(); n != 0 {
		t.Fatalf("after Tick: %d delta jobs in flight, want 0", n)
	}
	if got := r.eng.Stats().DeltaTriggers; got != 1 {
		t.Fatalf("DeltaTriggers = %d, want 1", got)
	}
	r.settle(t)
	r.assertSynced(t, "f")
}
