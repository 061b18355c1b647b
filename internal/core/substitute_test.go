package core

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/metrics"
	"repro/internal/server"
	"repro/internal/version"
	"repro/internal/vfs"
	"repro/internal/wire"
)

// pushed is what the cloud sees of one uploaded node.
type pushed struct {
	Kind      wire.NodeKind
	Path, Dst string
	Base, Ver version.ID
	Payload   int64
}

type recordEP struct {
	wire.Endpoint
	got *[]pushed
}

func (r recordEP) Push(b *wire.Batch) (*wire.PushReply, error) {
	for _, n := range b.Nodes {
		*r.got = append(*r.got, pushed{n.Kind, n.Path, n.Dst, n.Base, n.Ver, n.PayloadBytes()})
	}
	return r.Endpoint.Push(b)
}

// uploads runs ops on a fresh engine over a server seeded with f = old and
// returns every node the engine uploaded, the bytes they took on the wire,
// and the engine's stats.
func uploads(t *testing.T, disableDelta bool, old []byte, ops func(fs vfs.FS) error) ([]pushed, int64, Stats) {
	t.Helper()
	srv := server.New(nil)
	srv.SeedFile("f", old)
	backing := vfs.NewMemFS()
	if err := backing.WriteAt("f", 0, old); err != nil {
		t.Fatal(err)
	}
	clk := &clock.Clock{}
	traffic := &metrics.TrafficMeter{}
	var got []pushed
	eng, err := New(Config{Backing: backing, Endpoint: recordEP{server.NewLoopback(srv, nil, traffic), &got},
		Clock: clk, DisableDelta: disableDelta})
	if err != nil {
		t.Fatal(err)
	}
	if err := ops(eng.FS()); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Minute)
	eng.Tick(clk.Now())
	if err := eng.Drain(); err != nil {
		t.Fatal(err)
	}
	local, _ := backing.ReadFile("f")
	if remote, _ := srv.FileContent("f"); !bytes.Equal(local, remote) {
		t.Fatal("server content of f diverged")
	}
	return got, traffic.Uploaded(), eng.Stats()
}

func steps(fs vfs.FS, ops ...func(vfs.FS) error) error {
	for _, op := range ops {
		if err := op(fs); err != nil {
			return err
		}
	}
	return nil
}

// saveViaTmp is the gedit save: the new content goes to tmp, which is renamed
// over the existing f (the name-exists trigger).
func saveViaTmp(next []byte) func(vfs.FS) error {
	return func(fs vfs.FS) error {
		return steps(fs,
			func(fs vfs.FS) error { return fs.Create("tmp") },
			func(fs vfs.FS) error { return fs.WriteAt("tmp", 0, next) },
			func(fs vfs.FS) error { return fs.Close("tmp") },
			func(fs vfs.FS) error { return fs.Rename("tmp", "f") })
	}
}

// deleteAndRewrite is the delete-then-rewrite save.
func deleteAndRewrite(next []byte) func(vfs.FS) error {
	return func(fs vfs.FS) error {
		return steps(fs,
			func(fs vfs.FS) error { return fs.Unlink("f") },
			func(fs vfs.FS) error { return fs.Create("f") },
			func(fs vfs.FS) error { return fs.WriteAt("f", 0, next) },
			func(fs vfs.FS) error { return fs.Close("f") })
	}
}

// A triggered delta replaces the raw nodes only if it is smaller on the wire
// than all of them. New content that shares nothing with the base encodes as
// one literal run plus the delta's framing: larger than the write node it
// would replace, so a rename or an in-place rewrite uploads exactly what a
// client with delta encoding disabled sends, node for node, versions
// included. A delete-then-rewrite delta also drops the unlink (and the
// create), whose headers outweigh that framing, so it still ships — and then
// the upload is smaller than the raw one.
func TestTriggeredDeltaShipsOnlyWhenSmaller(t *testing.T) {
	old, next := randBytes(21, 64<<10), randBytes(22, 64<<10)
	for _, tc := range []struct {
		name              string
		ops               func(vfs.FS) error
		triggers, inPlace int
		ships             bool
	}{
		{"name-exists rename", saveViaTmp(next), 1, 0, false},
		{"in-place rewrite", func(fs vfs.FS) error {
			return steps(fs,
				func(fs vfs.FS) error { return fs.WriteAt("f", 0, next) },
				func(fs vfs.FS) error { return fs.Close("f") })
		}, 0, 0, false},
		{"rename over an unlinked name", func(fs vfs.FS) error {
			return steps(fs,
				func(fs vfs.FS) error { return fs.Unlink("f") },
				saveViaTmp(next))
		}, 1, 0, true},
		{"delete then rewrite", deleteAndRewrite(next), 1, 0, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, up, st := uploads(t, false, old, tc.ops)
			want, rawUp, _ := uploads(t, true, old, tc.ops)
			if st.DeltaTriggers != tc.triggers || st.InPlaceDeltas != tc.inPlace {
				t.Fatalf("DeltaTriggers, InPlaceDeltas = %d, %d, want %d, %d: a trigger counts the decision, whatever the encode finds",
					st.DeltaTriggers, st.InPlaceDeltas, tc.triggers, tc.inPlace)
			}
			shipped := false
			for _, n := range got {
				shipped = shipped || n.Kind == wire.NDelta
			}
			switch {
			case shipped != tc.ships:
				t.Fatalf("delta shipped = %v, want %v: %+v", shipped, tc.ships, got)
			case !tc.ships && !reflect.DeepEqual(got, want):
				t.Fatalf("uploads differ from the delta-disabled run:\n got %+v\nwant %+v", got, want)
			case tc.ships && up >= rawUp:
				t.Fatalf("the delta shipped but uploaded %d bytes, raw nodes %d", up, rawUp)
			}
		})
	}
}

// A delta that wins is another encoding of the version it replaces: it
// carries the base and version the raw nodes would have, so nothing after it
// depends on whether the encode paid off.
func TestWinningDeltaKeepsVersions(t *testing.T) {
	old := randBytes(23, 64<<10)
	next := append([]byte(nil), old...)
	copy(next[1000:1100], randBytes(24, 100))
	for _, tc := range []struct {
		name string
		ops  func(vfs.FS) error
		// index of the raw node the delta replaces, and the node whose
		// base the delta carries, in the delta-disabled upload
		replaced, base int
	}{
		{"name-exists rename", saveViaTmp(next), 1, 1},
		{"delete then rewrite", deleteAndRewrite(next), 2, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, _, _ := uploads(t, false, old, tc.ops)
			raw, _, _ := uploads(t, true, old, tc.ops)
			var d *pushed
			for i := range got {
				if got[i].Kind == wire.NDelta {
					d = &got[i]
				}
			}
			if d == nil {
				t.Fatalf("no delta uploaded: %+v", got)
			}
			if d.Ver != raw[tc.replaced].Ver || d.Base != raw[tc.base].Base {
				t.Fatalf("delta base/ver %v/%v, want %v/%v from the raw upload %+v",
					d.Base, d.Ver, raw[tc.base].Base, raw[tc.replaced].Ver, raw)
			}
			if got[len(got)-1].Ver != raw[len(raw)-1].Ver {
				t.Fatalf("last node's version %v, want %v", got[len(got)-1].Ver, raw[len(raw)-1].Ver)
			}
		})
	}
}
