// Package kvstore is a small embedded, crash-safe key-value store — the
// stand-in for LevelDB, which the paper uses to persist DeltaCFS's block
// checksums (§III-E). It keeps the full map in memory and persists through a
// CRC-protected write-ahead log plus an atomically-replaced snapshot:
//
//	put/delete  →  append WAL record  →  apply to memtable
//	Compact()   →  write snapshot.tmp →  rename over snapshot → truncate WAL
//	Open()      →  load snapshot, replay WAL (stopping at the first torn record)
//
// That recovery rule — ignore a trailing torn record instead of failing — is
// what makes the store safe across the power-cut experiments in Table IV.
package kvstore

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/storagefault"
)

const (
	walName      = "wal.log"
	snapshotName = "snapshot.db"

	opPut    = byte(1)
	opDelete = byte(2)

	// autoCompactWAL is the WAL size beyond which a mutation triggers a
	// snapshot + truncate, bounding recovery time and disk usage for
	// long-running clients.
	autoCompactWAL = 64 << 20
)

// ErrClosed is returned by operations on a closed store.
var ErrClosed = errors.New("kvstore: store is closed")

// ErrPoisoned is returned by every mutation and commit after a WAL flush or
// fsync has failed. Per fsyncgate, a failed fsync means the kernel dropped
// the dirty pages and marked them clean: a retried fsync that reports
// success has silently lost data. The store therefore fails permanently —
// reads still work, but nothing can claim durability again until the store
// is reopened (which replays only what actually reached disk).
var ErrPoisoned = errors.New("kvstore: wal poisoned by an earlier sync failure")

// Store is an embedded key-value store. All methods are safe for concurrent
// use. A Store opened with an empty directory is memory-only (no
// persistence), which the tests and some benchmarks use.
//
// Durability uses group commit: mutations append to the buffered WAL and
// return; the actual flush+fsync happens in Sync, where concurrent callers
// coalesce onto one fsync (leader/follower), and optionally on a periodic
// commit window (Options.CommitWindow) so checksum-store persistence costs
// one fsync per window instead of one per mutation.
type Store struct {
	mu     sync.RWMutex
	table  map[string][]byte
	dir    string
	fs     storagefault.FS
	wal    storagefault.File
	walBuf *bufio.Writer
	walLen int64
	closed bool

	// poisonVal holds the first WAL flush/fsync failure (an error). Once
	// set, every mutation and commit fails with ErrPoisoned — the
	// fsyncgate contract (see ErrPoisoned).
	poisonVal atomic.Value

	// Group commit. mutSeq counts WAL appends (under mu); syncedSeq is the
	// highest mutSeq known durable, advanced only by the fsync leader
	// (under commitMu). A Sync whose target is already covered returns
	// without touching the file — that is the coalescing.
	commitMu  sync.Mutex
	mutSeq    uint64 // under mu
	syncedSeq uint64 // under commitMu
	fsyncs    atomic.Int64
	coalesced atomic.Int64

	// Background committer (CommitWindow > 0).
	window     time.Duration
	commitKick chan struct{}
	commitQuit chan struct{}
	commitDone chan struct{}
}

// DefaultCommitWindow is the group-commit window production callers
// (cmd/deltacfs-server's push journal) use unless overridden. Chosen from
// the commit-window sweep recorded in EXPERIMENTS.md ("Wall-clock sweeps
// before bench/"): on a write-heavy 64-client push workload a 5ms window
// collapses per-push fsyncs by more than an order of magnitude at a
// durability lag bounded well below client RPC timeouts; wider windows
// bought little additional coalescing.
const DefaultCommitWindow = 5 * time.Millisecond

// Options tunes a store opened with OpenWith.
type Options struct {
	// CommitWindow, when positive, starts a background committer that
	// fsyncs the WAL at most once per window while mutations are pending.
	// Mutations return immediately; durability lags by at most one window
	// (plus the fsync itself) without any caller ever paying a per-op
	// fsync. Explicit Sync still works and still coalesces.
	CommitWindow time.Duration
	// FS is the file-IO layer the store writes through. nil means the
	// real file system (storagefault.OS); tests substitute a fault
	// injector or the SimDisk crash model.
	FS storagefault.FS
}

// Open opens (or creates) a store in dir. If dir is empty, the store is
// memory-only.
func Open(dir string) (*Store, error) { return OpenWith(dir, Options{}) }

// OpenWith opens (or creates) a store in dir with explicit options.
func OpenWith(dir string, o Options) (*Store, error) {
	fsys := o.FS
	if fsys == nil {
		fsys = storagefault.OS
	}
	s := &Store{table: make(map[string][]byte), dir: dir, fs: fsys}
	if dir == "" {
		return s, nil
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("kvstore: create dir: %w", err)
	}
	if err := s.loadSnapshot(); err != nil {
		return nil, err
	}
	if err := s.replayWAL(); err != nil {
		return nil, err
	}
	f, err := fsys.OpenFile(filepath.Join(dir, walName), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("kvstore: open wal: %w", err)
	}
	// Make the WAL's directory entry durable before the first commit:
	// fsyncing a freshly created file persists its blocks but not its
	// name, and a crash that forgets the name forgets the log with it.
	if err := syncDir(fsys, dir); err != nil {
		f.Close()
		return nil, fmt.Errorf("kvstore: sync dir: %w", err)
	}
	size, err := f.Size()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("kvstore: stat wal: %w", err)
	}
	s.wal = f
	s.walBuf = bufio.NewWriter(f)
	s.walLen = size
	if o.CommitWindow > 0 {
		s.window = o.CommitWindow
		s.commitKick = make(chan struct{}, 1)
		s.commitQuit = make(chan struct{})
		s.commitDone = make(chan struct{})
		go s.committer(s.commitQuit)
	}
	return s, nil
}

// committer is the background group-commit loop: each pending-mutation kick
// starts (at most) one window timer, and the fsync at its expiry covers
// every mutation that accumulated meanwhile — one fsync per window, not per
// mutation.
func (s *Store) committer(quit <-chan struct{}) {
	timer := time.NewTimer(s.window)
	if !timer.Stop() {
		<-timer.C
	}
	armed := false
	for {
		select {
		case <-quit:
			// Close flushes and fsyncs the tail itself, so a pending
			// window can simply be abandoned.
			timer.Stop()
			close(s.commitDone)
			return
		case <-s.commitKick:
			if !armed {
				timer.Reset(s.window)
				armed = true
			}
		case <-timer.C:
			armed = false
			// Best-effort background flush: the next explicit Sync (or the
			// next window) retries and surfaces the error to a caller.
			//deltavet:allow errsync background committer retries next window
			s.Sync()
		}
	}
}

// kickCommit notifies the background committer that mutations are pending.
// Non-blocking: a full channel means a kick is already queued.
func (s *Store) kickCommit() {
	if s.commitKick == nil {
		return
	}
	select {
	case s.commitKick <- struct{}{}:
	default:
	}
}

func (s *Store) loadSnapshot() error {
	f, err := storagefault.Open(s.fs, filepath.Join(s.dir, snapshotName))
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("kvstore: open snapshot: %w", err)
	}
	defer f.Close()
	r := bufio.NewReader(f)
	for {
		rec, err := readRecord(r)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("kvstore: corrupt snapshot: %w", err)
		}
		if rec.op != opPut {
			return fmt.Errorf("kvstore: snapshot contains op %d", rec.op)
		}
		s.table[string(rec.key)] = rec.val
	}
}

func (s *Store) replayWAL() error {
	f, err := storagefault.Open(s.fs, filepath.Join(s.dir, walName))
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("kvstore: open wal: %w", err)
	}
	defer f.Close()
	r := bufio.NewReader(f)
	for {
		rec, err := readRecord(r)
		if err != nil {
			// EOF or a torn/corrupt trailing record: recovery keeps
			// everything up to this point and discards the rest.
			return nil
		}
		switch rec.op {
		case opPut:
			s.table[string(rec.key)] = rec.val
		case opDelete:
			delete(s.table, string(rec.key))
		}
	}
}

type record struct {
	op  byte
	key []byte
	val []byte
}

// record layout: crc32(4) op(1) klen(4) vlen(4) key val
func writeRecord(w io.Writer, rec record) error {
	hdr := make([]byte, 13)
	hdr[4] = rec.op
	binary.BigEndian.PutUint32(hdr[5:9], uint32(len(rec.key)))
	binary.BigEndian.PutUint32(hdr[9:13], uint32(len(rec.val)))
	crc := crc32.NewIEEE()
	crc.Write(hdr[4:])
	crc.Write(rec.key)
	crc.Write(rec.val)
	binary.BigEndian.PutUint32(hdr[:4], crc.Sum32())
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	if _, err := w.Write(rec.key); err != nil {
		return err
	}
	_, err := w.Write(rec.val)
	return err
}

const maxRecordSide = 64 << 20 // sanity bound on key/value length

func readRecord(r io.Reader) (record, error) {
	hdr := make([]byte, 13)
	if _, err := io.ReadFull(r, hdr); err != nil {
		if err == io.ErrUnexpectedEOF {
			return record{}, io.ErrUnexpectedEOF
		}
		return record{}, io.EOF
	}
	klen := binary.BigEndian.Uint32(hdr[5:9])
	vlen := binary.BigEndian.Uint32(hdr[9:13])
	if klen > maxRecordSide || vlen > maxRecordSide {
		return record{}, errors.New("kvstore: implausible record length")
	}
	body := make([]byte, int(klen)+int(vlen))
	if _, err := io.ReadFull(r, body); err != nil {
		return record{}, io.ErrUnexpectedEOF
	}
	crc := crc32.NewIEEE()
	crc.Write(hdr[4:])
	crc.Write(body)
	if crc.Sum32() != binary.BigEndian.Uint32(hdr[:4]) {
		return record{}, errors.New("kvstore: record CRC mismatch")
	}
	return record{op: hdr[4], key: body[:klen:klen], val: body[klen:]}, nil
}

// Get returns the value stored under key. The returned slice must not be
// modified by the caller.
func (s *Store) Get(key []byte) ([]byte, bool, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, false, ErrClosed
	}
	v, ok := s.table[string(key)]
	return v, ok, nil
}

// Put stores val under key, appending to the WAL first when persistent.
func (s *Store) Put(key, val []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if err := s.poisonedErr(); err != nil {
		return err
	}
	valCopy := append([]byte(nil), val...)
	if s.walBuf != nil {
		// CHA fans writeRecord's io.Writer.Write out to every Writer in the
		// program, including net-conn wrappers; walBuf is a local bufio.Writer
		// over the WAL file, so no network I/O happens under s.mu.
		//deltavet:allow blockunderlock walBuf is a local bufio.Writer, the CHA io.Writer fanout is spurious
		if err := writeRecord(s.walBuf, record{op: opPut, key: key, val: valCopy}); err != nil {
			// The bufio state (and possibly the file tail) is now
			// unknowable; nothing after this point may claim durability.
			s.poison(err)
			return fmt.Errorf("kvstore: wal append: %w", err)
		}
		s.walLen += int64(13 + len(key) + len(valCopy))
		s.mutSeq++
		s.kickCommit()
	}
	s.table[string(key)] = valCopy
	return s.maybeCompactLocked()
}

// Delete removes key. Deleting an absent key is not an error.
func (s *Store) Delete(key []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if err := s.poisonedErr(); err != nil {
		return err
	}
	if s.walBuf != nil {
		// Same spurious CHA io.Writer fanout as Put: walBuf is file-backed.
		//deltavet:allow blockunderlock walBuf is a local bufio.Writer, the CHA io.Writer fanout is spurious
		if err := writeRecord(s.walBuf, record{op: opDelete, key: key}); err != nil {
			s.poison(err)
			return fmt.Errorf("kvstore: wal append: %w", err)
		}
		s.walLen += int64(13 + len(key))
		s.mutSeq++
		s.kickCommit()
	}
	delete(s.table, string(key))
	return s.maybeCompactLocked()
}

// Sync makes every mutation that returned before the call durable. Concurrent
// Syncs group-commit: the first caller (leader) flushes and fsyncs the WAL
// once, covering every mutation appended up to that point; a caller whose
// mutations are already covered returns without touching the file.
func (s *Store) Sync() error {
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return ErrClosed
	}
	if s.walBuf == nil {
		s.mu.RUnlock()
		return nil
	}
	target := s.mutSeq
	s.mu.RUnlock()
	return s.commitUpTo(target)
}

// commitUpTo makes mutations 1..target durable, coalescing with any commit
// that already covered them. The fsync happens outside s.mu, so mutations
// keep appending to the buffered WAL while the disk write is in flight.
func (s *Store) commitUpTo(target uint64) error {
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	if err := s.poisonedErr(); err != nil {
		// A poisoned store must never report a commit durable again, even
		// for mutations an earlier (successful) fsync already covered:
		// callers use Sync() == nil as "everything I wrote is on disk".
		return err
	}
	if s.syncedSeq >= target {
		s.coalesced.Add(1)
		return nil
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	covered := s.mutSeq
	err := s.walBuf.Flush()
	s.mu.Unlock()
	if err != nil {
		s.poison(err)
		return err
	}
	if err := s.wal.Sync(); err != nil {
		// fsyncgate: the failed fsync dropped the dirty pages. Retrying
		// against the same file could report clean while the data is
		// gone, so the store is poisoned instead of returning the error
		// once and carrying on.
		s.poison(err)
		return err
	}
	s.fsyncs.Add(1)
	s.syncedSeq = covered
	return nil
}

func (s *Store) syncLocked() error {
	if s.walBuf == nil {
		return nil
	}
	if err := s.poisonedErr(); err != nil {
		return err
	}
	if err := s.walBuf.Flush(); err != nil {
		s.poison(err)
		return err
	}
	//deltavet:allow blockunderlock checkpoint fsync under s.mu is the durability contract
	if err := s.wal.Sync(); err != nil {
		s.poison(err)
		return err
	}
	s.fsyncs.Add(1)
	return nil
}

// poison records the first WAL failure; later calls keep the original.
func (s *Store) poison(err error) { s.poisonVal.CompareAndSwap(nil, err) }

// Poisoned returns the WAL failure that poisoned the store, or nil.
func (s *Store) Poisoned() error {
	if v := s.poisonVal.Load(); v != nil {
		return v.(error)
	}
	return nil
}

// poisonedErr wraps the sticky failure as an ErrPoisoned operation error.
func (s *Store) poisonedErr() error {
	if cause := s.Poisoned(); cause != nil {
		return fmt.Errorf("%w: %v", ErrPoisoned, cause)
	}
	return nil
}

// FsyncCount returns the number of WAL fsyncs performed since Open.
func (s *Store) FsyncCount() int64 { return s.fsyncs.Load() }

// SyncCoalesced returns the number of Sync calls absorbed without an fsync
// because an earlier or concurrent commit already covered their mutations.
func (s *Store) SyncCoalesced() int64 { return s.coalesced.Load() }

// Len returns the number of keys.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.table)
}

// WALSize returns the current WAL length in bytes (0 for memory-only).
func (s *Store) WALSize() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.walLen
}

// Range calls fn for every key with the given prefix, in sorted key order.
// Iteration stops if fn returns false. The key and value slices must not be
// retained or modified.
func (s *Store) Range(prefix []byte, fn func(key, val []byte) bool) error {
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return ErrClosed
	}
	keys := make([]string, 0, len(s.table))
	for k := range s.table {
		if strings.HasPrefix(k, string(prefix)) {
			keys = append(keys, k)
		}
	}
	s.mu.RUnlock()
	sort.Strings(keys)
	for _, k := range keys {
		s.mu.RLock()
		v, ok := s.table[k]
		s.mu.RUnlock()
		if !ok {
			continue
		}
		if !fn([]byte(k), v) {
			return nil
		}
	}
	return nil
}

// maybeCompactLocked compacts when the WAL has outgrown its budget.
func (s *Store) maybeCompactLocked() error {
	if s.walLen < autoCompactWAL {
		return nil
	}
	return s.compactLocked()
}

// Compact writes the full table to a fresh snapshot (atomically replacing
// the old one) and truncates the WAL.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	return s.compactLocked()
}

func (s *Store) compactLocked() error {
	if s.dir == "" {
		return nil
	}
	if err := s.syncLocked(); err != nil {
		return err
	}
	tmp := filepath.Join(s.dir, snapshotName+".tmp")
	f, err := storagefault.Create(s.fs, tmp)
	if err != nil {
		return fmt.Errorf("kvstore: create snapshot: %w", err)
	}
	w := bufio.NewWriter(f)
	for k, v := range s.table {
		// w is the local snapshot-file bufio.Writer; the CHA fanout of
		// io.Writer.Write to net-conn wrappers is spurious here too.
		//deltavet:allow blockunderlock w is the local snapshot bufio.Writer, the CHA io.Writer fanout is spurious
		if err := writeRecord(w, record{op: opPut, key: []byte(k), val: v}); err != nil {
			f.Close()
			return fmt.Errorf("kvstore: write snapshot: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	//deltavet:allow blockunderlock compaction quiesces the store, fsync under the lock is the point
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := s.fs.Rename(tmp, filepath.Join(s.dir, snapshotName)); err != nil {
		return fmt.Errorf("kvstore: install snapshot: %w", err)
	}
	// The rename is not durable until the directory is fsynced; truncating
	// the WAL before that opens a crash window where the old snapshot is
	// back but the log describing everything since is gone.
	//deltavet:allow blockunderlock compaction quiesces the store, the directory fsync under the lock is the point
	if err := syncDir(s.fs, s.dir); err != nil {
		return fmt.Errorf("kvstore: sync dir: %w", err)
	}
	if err := s.wal.Truncate(0); err != nil {
		return fmt.Errorf("kvstore: truncate wal: %w", err)
	}
	if _, err := s.wal.Seek(0, io.SeekStart); err != nil {
		return err
	}
	s.walBuf.Reset(s.wal)
	s.walLen = 0
	return nil
}

// syncDirHook, when non-nil, replaces the directory fsync. Crash-ordering
// tests intercept it to observe (and fault-inject) the
// rename -> dir-fsync -> WAL-truncate sequence.
var syncDirHook func(dir string) error

// syncDir makes a completed rename (or created name) in dir durable. POSIX
// only guarantees a new name survives a crash once the parent directory's
// metadata is fsynced.
func syncDir(fsys storagefault.FS, dir string) error {
	if syncDirHook != nil {
		return syncDirHook(dir)
	}
	return fsys.SyncDir(dir)
}

// Close flushes and closes the store. Further operations return ErrClosed.
func (s *Store) Close() error {
	// Stop the background committer before taking any lock for good: its
	// commit path needs commitMu and mu, so waiting for it under either
	// would deadlock. Nil-ing commitQuit under mu makes Close idempotent.
	s.mu.Lock()
	quit := s.commitQuit
	s.commitQuit = nil
	s.mu.Unlock()
	if quit != nil {
		close(quit)
		<-s.commitDone
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.wal == nil {
		return nil
	}
	if err := s.poisonedErr(); err != nil {
		// No final flush/fsync: the WAL cannot report durable again. The
		// handle still closes so the caller can reopen and replay what
		// actually reached disk.
		s.wal.Close()
		return err
	}
	if err := s.walBuf.Flush(); err != nil {
		s.poison(err)
		s.wal.Close()
		return err
	}
	//deltavet:allow blockunderlock final fsync on Close quiesces the store by design
	if err := s.wal.Sync(); err != nil {
		s.poison(err)
		s.wal.Close()
		return err
	}
	s.fsyncs.Add(1)
	return s.wal.Close()
}
