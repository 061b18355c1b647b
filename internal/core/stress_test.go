package core

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestConcurrentOpsStress fires concurrent WriteAt/Truncate/Rename/Close/Tick at one
// engine while triggered delta encodings are in flight on the worker pool,
// then checks the queue and accounting invariants the pool must preserve:
// after a drain nothing is left queued or buffered, no push failed, and
// every file's server copy equals the local one. Run under -race this also
// exercises the engine-lock/worker handoff.
func TestConcurrentOpsStress(t *testing.T) {
	r := newRig(t, false)
	fs := r.eng.FS()

	const nFiles = 4
	const fileSize = 96 << 10
	docBase := make([][]byte, nFiles)
	dbBase := make([][]byte, nFiles)
	for i := 0; i < nFiles; i++ {
		docBase[i] = randBytes(int64(i+1), fileSize)
		dbBase[i] = randBytes(int64(100+i), fileSize)
		r.seed(fmt.Sprintf("doc%d", i), docBase[i])
		r.seed(fmt.Sprintf("db%d", i), dbBase[i])
	}

	// tweak returns content with a few small edits — a realistic update whose
	// delta is far smaller than its write payload, so the in-place trigger's
	// size comparison favors the delta.
	tweak := func(content []byte, seed int64) []byte {
		out := append([]byte(nil), content...)
		edits := randBytes(seed, 64)
		for k := 0; k < 4; k++ {
			off := (int(seed)*131 + k*17509) % (len(out) - len(edits))
			copy(out[off:], edits)
		}
		return out
	}

	stop := make(chan struct{})
	var tickWG sync.WaitGroup
	tickWG.Add(1)
	go func() {
		defer tickWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			r.clk.Advance(50 * time.Millisecond)
			r.eng.Tick(r.clk.Now())
		}
	}()

	var writerWG sync.WaitGroup
	for i := 0; i < nFiles; i++ {
		// Transactional saver: write a temp file, rename it over the
		// document (the gedit pattern — rename-triggered delta).
		writerWG.Add(1)
		go func(i int) {
			defer writerWG.Done()
			doc := fmt.Sprintf("doc%d", i)
			content := docBase[i]
			for round := 0; round < 5; round++ {
				tmp := fmt.Sprintf("doc%d.tmp%d", i, round)
				content = tweak(content, int64(i*1000+round))
				if err := fs.Create(tmp); err != nil {
					t.Error(err)
					return
				}
				if err := fs.WriteAt(tmp, 0, content); err != nil {
					t.Error(err)
					return
				}
				if err := fs.Close(tmp); err != nil {
					t.Error(err)
					return
				}
				if err := fs.Rename(tmp, doc); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)

		// In-place updater: rewrite the whole file with small edits and
		// close (the SQLite pattern — in-place-triggered delta). Odd rounds
		// first cut the file in half, so Truncate races the ticks too.
		writerWG.Add(1)
		go func(i int) {
			defer writerWG.Done()
			db := fmt.Sprintf("db%d", i)
			content := dbBase[i]
			for round := 0; round < 5; round++ {
				content = tweak(content, int64(i*77+round))
				if round%2 == 1 {
					if err := fs.Truncate(db, int64(len(content)/2)); err != nil {
						t.Error(err)
						return
					}
				}
				if err := fs.WriteAt(db, 0, content); err != nil {
					t.Error(err)
					return
				}
				if err := fs.Close(db); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}

	writerWG.Wait()
	close(stop)
	tickWG.Wait()
	if t.Failed() {
		return
	}
	r.settle(t)

	// Deterministic tail rounds with no concurrent ticks, so both trigger
	// kinds are guaranteed to fire at least once regardless of how the
	// concurrent phase interleaved with uploads.
	before := r.eng.Stats()
	dbContent, err := fs.ReadFile("db0")
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteAt("db0", 0, tweak(dbContent, 999)); err != nil {
		t.Fatal(err)
	}
	if err := fs.Close("db0"); err != nil {
		t.Fatal(err)
	}
	docContent, err := fs.ReadFile("doc0")
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Create("doc0.tmpz"); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteAt("doc0.tmpz", 0, tweak(docContent, 888)); err != nil {
		t.Fatal(err)
	}
	if err := fs.Close("doc0.tmpz"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename("doc0.tmpz", "doc0"); err != nil {
		t.Fatal(err)
	}
	r.settle(t)

	after := r.eng.Stats()
	if after.InPlaceDeltas <= before.InPlaceDeltas {
		t.Errorf("in-place delta did not trigger (before %d, after %d)",
			before.InPlaceDeltas, after.InPlaceDeltas)
	}
	if after.DeltaTriggers <= before.DeltaTriggers {
		t.Errorf("rename delta did not trigger (before %d, after %d)",
			before.DeltaTriggers, after.DeltaTriggers)
	}
	if after.Conflicts != 0 {
		t.Errorf("server reported %d conflicts", after.Conflicts)
	}
	if n := r.eng.QueueLen(); n != 0 {
		t.Errorf("queue not empty after drain: %d nodes", n)
	}
	if b := r.eng.QueueBufferedBytes(); b != 0 {
		t.Errorf("buffered-byte accounting did not return to zero: %d", b)
	}
	if n := r.eng.pool.inFlight(); n != 0 {
		t.Errorf("%d delta jobs still uncommitted after drain", n)
	}
	for i := 0; i < nFiles; i++ {
		r.assertSynced(t, fmt.Sprintf("doc%d", i))
		r.assertSynced(t, fmt.Sprintf("db%d", i))
	}
}
