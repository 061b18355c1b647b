package chaos

import (
	"bytes"
	"flag"
	"fmt"
	"strings"
	"testing"

	"repro/internal/block"
	"repro/internal/faultinject"
	"repro/internal/integrity"
	"repro/internal/kvstore"
	"repro/internal/server"
	"repro/internal/storagefault"
	"repro/internal/undolog"
	"repro/internal/version"
	"repro/internal/wire"
)

// stormSeeds widens every storage-fault matrix below to that many seeds; 0
// keeps each test's own count. CI runs
//
//	go test -race -count=1 ./internal/chaos -run 'CrashStorm|Composed' -storm-seeds 20
//
// which covers each storage profile — clean and torn crashes, fsync failure,
// ENOSPC — and the composed network+storage storm over seeds 1..20.
var stormSeeds = flag.Int("storm-seeds", 0, "seeds per storage-fault matrix (0 = each test's default)")

func seedCount(def int) int64 {
	if *stormSeeds > 0 {
		return int64(*stormSeeds)
	}
	return int64(def)
}

// One fully-loaded storm: every crash prefix, torn variants, every fsync
// failure point, and ENOSPC — zero violations.
func TestCrashStormSingleSeed(t *testing.T) {
	res, err := CrashStorm(StormConfig{Seed: 1, Torn: true, FsyncFailures: true, NoSpace: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Violations {
		t.Error(v)
	}
	if res.CrashPoints < 10 {
		t.Fatalf("suspiciously few crash points explored: %+v", res)
	}
	if res.FsyncPoints == 0 || res.TornPoints == 0 || res.NoSpaceRuns == 0 {
		t.Fatalf("failure modes not exercised: %+v", res)
	}
	t.Logf("storm: %+v", res)
}

// The acceptance matrix: >= 20 seeds, every prefix crash point of the mixed
// push/save/compact workload, clean and with torn-write variants, zero
// violations.
func TestCrashStormMatrix(t *testing.T) {
	for seed := int64(1); seed <= seedCount(20); seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			res, err := CrashStorm(StormConfig{Seed: seed, Torn: true})
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range res.Violations {
				t.Error(v)
			}
			t.Logf("crash points %d, torn points %d", res.CrashPoints, res.TornPoints)
		})
	}
}

// Fsync-failure and ENOSPC sweeps across a smaller seed band (they re-run
// the workload live once per fsync point, so the matrix is pricier).
func TestCrashStormFaultMatrix(t *testing.T) {
	for seed := int64(1); seed <= seedCount(5); seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			res, err := CrashStorm(StormConfig{Seed: seed, FsyncFailures: true, NoSpace: true})
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range res.Violations {
				t.Error(v)
			}
			if res.FsyncPoints == 0 || res.NoSpaceRuns == 0 {
				t.Fatalf("failure modes not exercised: %+v", res)
			}
			t.Logf("crash points %d, fsync points %d, nospace runs %d", res.CrashPoints, res.FsyncPoints, res.NoSpaceRuns)
		})
	}
}

// Composed network + storage faults: the engine-level chaos run (TCP + TLS
// through a seeded NetPlan) against a server whose journal lives on a
// SimDisk; midway the server's storage crashes, a recovered server is
// swapped in behind the same listener, and after healing every network
// fault the client must still converge with zero duplicate applies.
func TestComposedNetworkStorageFaults(t *testing.T) {
	for seed := int64(1); seed <= seedCount(4); seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			res, err := RunComposed(ComposedConfig{
				Seed: seed,
				Faults: faultinject.NetFaultConfig{
					DropProb:    0.05,
					PartialProb: 0.03,
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Converged {
				t.Fatalf("seed %d diverged: %s", seed, res.Mismatch)
			}
			if res.DuplicateApplies != 0 {
				t.Fatalf("seed %d: %d duplicate applies", seed, res.DuplicateApplies)
			}
			if res.StorageCrashes == 0 {
				t.Fatalf("seed %d: storage crash never exercised", seed)
			}
		})
	}
}

// The chunk store crash-replay satellite: a chunk-carrying push lands, the
// server snapshots, and at every prefix of the IO trace a crashed fork must
// recover to a server whose chunk store is EITHER pre-push, post-push, or
// post-snapshot — proven behaviorally: a push that references the chunk by
// hash (no data) either resolves it cleanly or is cleanly refused as
// unknown, and when it resolves, the assembled content is byte-identical.
func TestChunkStoreCrashReplay(t *testing.T) {
	disk := storagefault.NewSimDisk()
	s := server.NewWithOptions(nil, server.Options{FS: disk})
	j, err := server.OpenJournalFS(disk, "journal", 0)
	if err != nil {
		t.Fatal(err)
	}
	s.SetJournal(j)

	content := bytes.Repeat([]byte("deltacfs-chunk!"), 20)
	h := block.StrongSum(content)
	carry := &wire.Node{
		Kind:   wire.NCDC,
		Path:   "a/f",
		Size:   int64(len(content)),
		Chunks: []wire.ChunkRef{{Hash: h, Len: int64(len(content)), Data: content}},
		Ver:    version.ID{Client: 1, Count: 1},
	}
	if r := s.Push(1, &wire.Batch{Seq: 1, Nodes: []*wire.Node{carry}}); r.Err != "" {
		t.Fatalf("carry push: %v", r.Err)
	}
	if err := s.SaveFile(stormSnap); err != nil {
		t.Fatal(err)
	}
	j.Close()

	refNode := func() *wire.Node {
		return &wire.Node{
			Kind:   wire.NCDC,
			Path:   "b/copy",
			Size:   int64(len(content)),
			Chunks: []wire.ChunkRef{{Hash: h, Len: int64(len(content))}},
			Ver:    version.ID{Client: 2, Count: 1},
		}
	}
	resolved, refused := 0, 0
	for k := 0; k <= disk.Ops(); k++ {
		fork := disk.Fork(k)
		fork.Crash()
		s2, err := recoverServer(fork)
		if err != nil {
			t.Fatalf("prefix %d: recovery: %v", k, err)
		}
		r := s2.Push(2, &wire.Batch{Seq: 1, Nodes: []*wire.Node{refNode()}})
		switch {
		case r.Err == "":
			got, ok := s2.FileContent("b/copy")
			if !ok || !bytes.Equal(got, content) {
				t.Fatalf("prefix %d: chunk resolved to wrong content", k)
			}
			resolved++
		case strings.Contains(r.Err, "unknown chunk"):
			refused++ // pre-durable state: the client would re-send with data
		default:
			t.Fatalf("prefix %d: unexpected refusal: %s", k, r.Err)
		}
	}
	if resolved == 0 || refused == 0 {
		t.Fatalf("sweep did not cross the durability boundary: resolved=%d refused=%d", resolved, refused)
	}
}

// The undolog snapshot crash-replay satellite: SaveTo's atomic-replace
// discipline means a crash at any prefix of a second save recovers EITHER
// the first snapshot or the second — LoadFrom never reports ErrCorrupt and
// never reconstructs a blended old version.
func TestUndologSnapshotCrashReplay(t *testing.T) {
	disk := storagefault.NewSimDisk()

	mem := []byte("0123456789abcdef")
	read := func(off, n int64) ([]byte, error) { return mem[off : off+n], nil }

	l1 := undolog.New(nil)
	l1.Track("f", int64(len(mem)))
	if err := l1.BeforeWrite("f", 0, 4, read); err != nil {
		t.Fatal(err)
	}
	if err := l1.SaveTo(disk, "undo.snap"); err != nil {
		t.Fatal(err)
	}
	l2 := undolog.New(nil)
	l2.Track("f", int64(len(mem)))
	if err := l2.BeforeWrite("f", 4, 8, read); err != nil {
		t.Fatal(err)
	}
	if err := l2.SaveTo(disk, "undo.snap"); err != nil {
		t.Fatal(err)
	}

	sawOld, sawNew := 0, 0
	for k := 0; k <= disk.Ops(); k++ {
		for _, torn := range []bool{false, true} {
			fork := disk.Fork(k)
			if torn {
				fork.CrashTorn(int64(k))
			} else {
				fork.Crash()
			}
			rl := undolog.New(nil)
			loaded, err := rl.LoadFrom(fork, "undo.snap")
			if err != nil {
				t.Fatalf("prefix %d torn=%v: %v", k, torn, err)
			}
			if !loaded {
				continue // pre-first-save prefixes: missing file is fine
			}
			switch got := rl.PreservedBytes("f"); got {
			case l1.PreservedBytes("f"):
				sawOld++
			case l2.PreservedBytes("f"):
				sawNew++
			default:
				t.Fatalf("prefix %d torn=%v: blended snapshot: %d preserved bytes", k, torn, got)
			}
		}
	}
	if sawOld == 0 || sawNew == 0 {
		t.Fatalf("sweep did not cross the replace boundary: old=%d new=%d", sawOld, sawNew)
	}
}

// Read-side bit corruption must not pass silently: the integrity scanner
// over a corrupting disk reports mismatched blocks.
func TestIntegrityScannerCatchesReadCorruption(t *testing.T) {
	disk := storagefault.NewSimDisk()
	kv, err := kvstore.OpenWith("kv", kvstore.Options{FS: disk})
	if err != nil {
		t.Fatal(err)
	}
	st := integrity.New(kv, nil)
	content := bytes.Repeat([]byte("block-content"), 512)
	if err := st.SetFile("f", content); err != nil {
		t.Fatal(err)
	}
	if bad, err := st.Verify("f", content); err != nil || len(bad) != 0 {
		t.Fatalf("clean verify: bad=%v err=%v", bad, err)
	}
	if err := kv.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := kv.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen the checksum store through a bit-flipping reader: the stored
	// sums are corrupted on the way in, so verification of pristine content
	// must flag blocks.
	inj := storagefault.NewInjector(disk, storagefault.Plan{Seed: 7, CorruptReads: true})
	kv2, err := kvstore.OpenWith("kv", kvstore.Options{FS: inj})
	if err != nil {
		t.Fatal(err)
	}
	defer kv2.Close()
	st2 := integrity.New(kv2, nil)
	bad, err := st2.Verify("f", content)
	if err != nil {
		t.Fatal(err)
	}
	if len(bad) == 0 {
		t.Fatal("integrity scanner missed read-side corruption")
	}
}
