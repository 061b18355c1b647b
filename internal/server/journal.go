package server

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"sync"
	"time"

	"repro/internal/kvstore"
	"repro/internal/storagefault"
	"repro/internal/wire"
)

// Journal is the server's durable push log: every batch is recorded —
// gob-encoded, in commit order — before it is applied, so a crash between
// periodic snapshots loses no acknowledged push. Recovery is
// snapshot-then-replay: LoadFile restores the last snapshot, Replay re-pushes
// every journaled batch after the snapshot boundary, and the restored
// idempotency state (snapshot v2 dedup) absorbs any batch the snapshot had
// already applied — the replay path reuses Push, so replays are deduped,
// version-checked, and forwarded exactly like live traffic.
//
// Durability rides on kvstore's group-commit WAL: with a commit window, ten
// thousand clients' pushes share one fsync per window instead of paying one
// each; with no window, Record syncs per batch and concurrent pushers
// coalesce onto the leader's fsync.
//
// Lock ordering: Journal.mu is a leaf (level 7 in shard.go's table), taken
// under the batch's shard locks on the push path. Entry keys are
// fixed-width hex under prefix "b/" so kvstore.Range's sorted-key iteration
// is commit order.
type Journal struct {
	mu      sync.Mutex
	kv      *kvstore.Store
	next    uint64 // next entry sequence to assign (under mu)
	pending uint64 // captured-but-uncommitted snapshot boundary (under mu)
	sync    bool   // fsync per Record (no commit window)
}

// journalEntry is one recorded push in the legacy gob entry format.
// Journals written before the binary codec hold these; Replay still decodes
// them, so a server upgraded across the codec change recovers its old WAL.
type journalEntry struct {
	From  uint32
	Batch *wire.Batch
}

// binaryEntryMagic prefixes entries written in the binary format:
// [magic 4][from u32 LE][batch payload]. The first byte is 0x00, which a
// gob stream can never start with (gob frames messages with a uvarint byte
// count ≥ 1), so the two formats are unambiguous side by side in one store.
var binaryEntryMagic = [4]byte{0x00, 'D', 'C', 1}

// snapKey holds the highest entry sequence covered by the latest server
// snapshot; entries at or below it are dead weight, dropped by
// TruncateSnapshotted.
const snapKey = "snap"

func entryKey(seq uint64) []byte {
	return []byte(fmt.Sprintf("b/%016x", seq))
}

// OpenJournal opens (or creates) a push journal in dir. A positive window
// enables group durability: Record returns once the entry is buffered and
// the background committer fsyncs at most once per window (durability lags
// a crash by at most one window). window <= 0 means fsync-per-record, with
// concurrent records coalescing onto one fsync.
func OpenJournal(dir string, window time.Duration) (*Journal, error) {
	return OpenJournalFS(nil, dir, window)
}

// OpenJournalFS is OpenJournal with an explicit storage layer: all journal
// IO (WAL appends, fsyncs, compaction renames) goes through fsys, so fault
// injectors and simulated disks can drive the journal through fsync failure,
// torn writes, and crash-point exploration. nil fsys means the real
// filesystem.
func OpenJournalFS(fsys storagefault.FS, dir string, window time.Duration) (*Journal, error) {
	kv, err := kvstore.OpenWith(dir, kvstore.Options{CommitWindow: window, FS: fsys})
	if err != nil {
		return nil, fmt.Errorf("server: open journal: %w", err)
	}
	j := &Journal{kv: kv, next: 1, sync: window <= 0}
	// Resume the sequence after the highest surviving entry.
	err = kv.Range([]byte("b/"), func(key, _ []byte) bool {
		var seq uint64
		if _, err := fmt.Sscanf(string(key), "b/%016x", &seq); err == nil && seq >= j.next {
			j.next = seq + 1
		}
		return true
	})
	if err != nil {
		//deltavet:allow errsync open failed; the Range error being returned already dooms this store
		kv.Close()
		return nil, fmt.Errorf("server: open journal: %w", err)
	}
	return j, nil
}

// SetJournal wires a push journal into the server (nil detaches). Wire it
// before serving: batches pushed while detached are not journaled.
func (s *Server) SetJournal(j *Journal) { s.journal.Store(j) }

// Record appends one push to the journal. Push calls it while holding the
// batch's shard locks and before applying (WAL discipline): if the entry
// cannot be made durable the batch is rejected, so an acknowledged push is
// always either snapshotted or replayable.
//
// The entry body is the batch's binary wire payload, shared with the
// forwarding outboxes and (for binary-transport pushes) the receive frame
// itself — the journal append performs zero additional payload encodes.
func (j *Journal) Record(from uint32, eb *wire.EncodedBatch) error {
	payload := eb.Bytes()
	val := make([]byte, 0, len(binaryEntryMagic)+4+len(payload))
	val = append(val, binaryEntryMagic[:]...)
	val = binary.LittleEndian.AppendUint32(val, from)
	val = append(val, payload...)
	j.mu.Lock()
	seq := j.next
	j.next++
	// The kvstore put lands in a buffered, file-backed WAL; doing it under
	// the shard locks is the WAL-before-apply contract (replay order must be
	// commit order), and the group-commit window keeps the fsync itself off
	// this path.
	//deltavet:allow blockunderlock WAL-before-apply requires journaling under the batch's shard locks; fsync is group-committed off-path
	err := j.kv.Put(entryKey(seq), val)
	j.mu.Unlock()
	if err != nil {
		return err
	}
	if j.sync {
		// Per-record durability: concurrent pushers group-commit onto one
		// leader fsync inside kvstore.Sync.
		//deltavet:allow blockunderlock per-record durability mode fsyncs before ack by design; concurrent pushers coalesce
		return j.kv.Sync()
	}
	return nil
}

// captureSnapshot notes the boundary candidate — the highest entry sequence
// the in-flight snapshot covers. Save calls it while the server is quiesced
// (all push and shard locks held), so no entry can be racing in. The value
// is only CAPTURED here, not written: recording it durably before the
// snapshot file itself is atomically in place would let a failed snapshot
// fsync truncate entries whose covering snapshot never materialized — the
// crash-point harness's first catch.
func (j *Journal) captureSnapshot() {
	j.mu.Lock()
	j.pending = j.next - 1
	j.mu.Unlock()
}

// commitSnapshot records the captured boundary. SaveFile calls it only
// after the snapshot's rename and directory fsync have succeeded, so the
// boundary can never outrun the snapshot that justifies it.
func (j *Journal) commitSnapshot() {
	j.mu.Lock()
	last := j.pending
	j.mu.Unlock()
	var v [8]byte
	binary.BigEndian.PutUint64(v[:], last)
	// Best-effort: a failed boundary write only means replay re-pushes
	// batches the snapshot already holds, which dedup absorbs.
	//deltavet:allow errsync snapshot boundary is advisory; replay of covered entries is deduped
	j.kv.Put([]byte(snapKey), v[:])
}

// snapshotted returns the recorded snapshot boundary (0 if none).
func (j *Journal) snapshotted() uint64 {
	v, ok, err := j.kv.Get([]byte(snapKey))
	if err != nil || !ok || len(v) != 8 {
		return 0
	}
	return binary.BigEndian.Uint64(v)
}

// Replay re-pushes every journaled batch after the snapshot boundary, in
// commit order, returning how many were replayed. Call it after LoadFile and
// before serving (in particular, before SetJournal re-wires the journal —
// replayed pushes must not re-record themselves). Replays go through
// PushEncoded, so batches the snapshot already applied are absorbed by the
// restored dedup state rather than re-applied, and each entry's payload is
// reused as decoded instead of re-encoded. Entries in the legacy gob format
// are decoded transparently alongside binary ones.
func (j *Journal) Replay(s *Server) (int, error) {
	boundary := j.snapshotted()
	type pending struct {
		seq  uint64
		from uint32
		eb   *wire.EncodedBatch
	}
	var entries []pending
	var decodeErr error
	err := j.kv.Range([]byte("b/"), func(key, val []byte) bool {
		var seq uint64
		if _, err := fmt.Sscanf(string(key), "b/%016x", &seq); err != nil {
			return true
		}
		if seq <= boundary {
			return true
		}
		if len(val) >= len(binaryEntryMagic)+4 && bytes.HasPrefix(val, binaryEntryMagic[:]) {
			from := binary.LittleEndian.Uint32(val[len(binaryEntryMagic):])
			// Copy the payload out of the store's buffer, then alias the
			// copy: the EncodedBatch owns its bytes and no re-encode is
			// needed if this replayed push is journaled or forwarded again.
			payload := append([]byte(nil), val[len(binaryEntryMagic)+4:]...)
			b, err := wire.DecodeBatchPayload(payload, true)
			if err != nil {
				decodeErr = fmt.Errorf("journal entry %d: %w", seq, err)
				return false
			}
			entries = append(entries, pending{seq: seq, from: from, eb: wire.NewEncodedBatchRaw(b, payload)})
			return true
		}
		var e journalEntry
		if err := gob.NewDecoder(bytes.NewReader(val)).Decode(&e); err != nil {
			decodeErr = fmt.Errorf("journal entry %d: %w", seq, err)
			return false
		}
		if e.Batch != nil {
			entries = append(entries, pending{seq: seq, from: e.From, eb: wire.NewEncodedBatch(e.Batch)})
		}
		return true
	})
	if err != nil {
		return 0, err
	}
	if decodeErr != nil {
		return 0, decodeErr
	}
	for _, p := range entries {
		if reply := s.PushEncoded(p.from, p.eb); reply.Err != "" {
			return 0, fmt.Errorf("journal replay entry %d: %s", p.seq, reply.Err)
		}
	}
	return len(entries), nil
}

// TruncateSnapshotted drops every entry covered by the latest snapshot
// boundary and compacts the backing store, returning how many entries were
// dropped. Call it after a successful SaveFile.
func (j *Journal) TruncateSnapshotted() (int, error) {
	boundary := j.snapshotted()
	if boundary == 0 {
		return 0, nil
	}
	var dead [][]byte
	err := j.kv.Range([]byte("b/"), func(key, _ []byte) bool {
		var seq uint64
		if _, err := fmt.Sscanf(string(key), "b/%016x", &seq); err == nil && seq <= boundary {
			dead = append(dead, append([]byte(nil), key...))
		}
		return true
	})
	if err != nil {
		return 0, err
	}
	for _, k := range dead {
		if err := j.kv.Delete(k); err != nil {
			return 0, err
		}
	}
	if len(dead) > 0 {
		if err := j.kv.Compact(); err != nil {
			return 0, err
		}
	}
	return len(dead), nil
}

// Fsyncs returns the number of WAL fsyncs the journal has performed — the
// write-amplification counter bench/ reports as journal.fsyncs.
func (j *Journal) Fsyncs() int64 { return j.kv.FsyncCount() }

// SyncCoalesced returns how many durability requests were absorbed by an
// already-covering fsync (group-commit effectiveness).
func (j *Journal) SyncCoalesced() int64 { return j.kv.SyncCoalesced() }

// Sync forces pending entries durable (shutdown path).
func (j *Journal) Sync() error { return j.kv.Sync() }

// Close flushes and closes the journal.
func (j *Journal) Close() error { return j.kv.Close() }
