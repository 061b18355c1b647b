package kvstore

import (
	"bytes"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/storagefault"
)

// handleCounter counts the files opened through it that are not yet closed.
type handleCounter struct {
	storagefault.FS
	open atomic.Int64
}

func (h *handleCounter) OpenFile(name string, flag int, perm os.FileMode) (storagefault.File, error) {
	f, err := h.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	h.open.Add(1)
	return &countedFile{File: f, h: h}, nil
}

type countedFile struct {
	storagefault.File
	h    *handleCounter
	once sync.Once
}

func (f *countedFile) Close() error {
	f.once.Do(func() { f.h.open.Add(-1) })
	return f.File.Close()
}

// Every file the store opens is closed again: across repeated open/close
// cycles that load a snapshot and replay a WAL, and after a compaction
// whose snapshot write fails part way.
func TestFileHandlesReturnToZero(t *testing.T) {
	disk := storagefault.NewSimDisk()
	s, err := OpenWith("db", Options{FS: disk})
	if err != nil {
		t.Fatal(err)
	}
	val := bytes.Repeat([]byte("v"), 1024)
	for i := 0; i < 8; i++ {
		if err := s.Put([]byte(fmt.Sprintf("k%d", i)), val); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := s.Put([]byte("after"), val); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	hc := &handleCounter{FS: disk}
	for i := 0; i < 3; i++ {
		s, err := OpenWith("db", Options{FS: hc})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if n := hc.open.Load(); n != 0 {
			t.Fatalf("open/close cycle %d left %d file handles open", i, n)
		}
	}

	// The table is 9 KiB and the budget 1 KiB: the snapshot write fails on
	// the first buffer flush, inside the record loop.
	hc = &handleCounter{FS: storagefault.NewInjector(disk, storagefault.Plan{WriteBudget: 1024})}
	s, err = OpenWith("db", Options{FS: hc})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err == nil {
		t.Fatal("compaction succeeded past the write budget")
	}
	s.Close()
	if n := hc.open.Load(); n != 0 {
		t.Fatalf("failed compaction left %d file handles open", n)
	}
}
