package core

import (
	"fmt"
	"strings"

	"repro/internal/integrity"
	"repro/internal/relation"
	"repro/internal/syncqueue"
	"repro/internal/undolog"
	"repro/internal/version"
)

// verifyAndRecoverRange checks the blocks covering [off, off+n) of path
// against stored checksums; corrupted blocks trigger recovery of the whole
// file from the cloud (§III-E: "we use the correct data on the cloud to
// recover").
func (e *Engine) verifyAndRecoverRange(path string, off, n int64) error {
	bad, err := e.integ.VerifyRange(path, off, n, e.readBlock(path))
	if err != nil {
		return err
	}
	if len(bad) == 0 {
		return nil
	}
	e.stats.Corruptions += len(bad)
	return e.recoverFromCloud(path)
}

// recoverFromCloud replaces path's local content and checksums with the
// cloud's copy.
func (e *Engine) recoverFromCloud(path string) error {
	rep, err := e.ep.Fetch(path)
	if err != nil {
		return fmt.Errorf("core: recover %s: %w", path, err)
	}
	if !rep.Exists {
		return fmt.Errorf("core: recover %s: cloud has no copy", path)
	}
	if err := e.installContent(path, rep.Content); err != nil {
		return err
	}
	if err := e.integ.SetFile(path, rep.Content); err != nil {
		return err
	}
	e.stats.Recovered++
	return nil
}

// PrimeChecksums computes block checksums for every file currently in the
// backing store — what a real client does when it first indexes an existing
// sync folder. Harnesses call this after seeding initial state.
func (e *Engine) PrimeChecksums() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	paths, err := e.backing.List("")
	if err != nil {
		return err
	}
	for _, p := range paths {
		content, err := e.backing.ReadFile(p)
		if err != nil {
			return err
		}
		if err := e.integ.SetFile(p, content); err != nil {
			return err
		}
	}
	return nil
}

// RecoveryReport summarizes a post-crash integrity scan.
type RecoveryReport struct {
	// Scanned lists the recently-modified files checked.
	Scanned []string
	// Inconsistent lists files whose content disagreed with their
	// checksums (data changed without metadata — the ordered-journaling
	// crash signature).
	Inconsistent []string
	// Restored lists the inconsistent files replaced with the cloud copy.
	Restored []string
	// Missing lists dirty files that no longer exist locally.
	Missing []string
}

// DropVolatileState simulates a crash: everything not persisted (the Sync
// Queue, relation table, undo log, pending deltas) is lost. The checksum
// store and dirty-file set live in the kvstore and survive. Experiments
// call this before CrashScan.
func (e *Engine) DropVolatileState() {
	e.mu.Lock()
	defer e.mu.Unlock()
	// Everything before the simulated crash point completed synchronously in
	// the serial engine, so settle in-flight encodes before dropping state.
	e.pool.joinAll()
	e.q = syncqueue.New(e.cfg.UploadDelay)
	e.rel = relation.New(e.cfg.RelationTimeout)
	e.undo = undolog.New(e.meter)
	e.pendingDelta = make(map[string]pendingBase)
	e.trashVer = make(map[string]version.ID)
	// The unsent buffer is volatile too; local files remain the durable
	// copy and CrashScan reconciles them against the cloud. batchSeq is
	// durable client state (like the version counter): a post-crash batch
	// must never reuse a key the server may already have applied.
	e.unsent = nil
	e.unsentBytes = 0
	e.consecFails = 0
	e.lastPushErr = nil
}

// ResyncVersions refreshes the local version map from cloud metadata — the
// reconnect step after a crash or long partition, matching the persist-layer
// contract that "a reconnecting client re-syncs via Head metadata". With no
// arguments every local file is refreshed; otherwise only the given paths.
// Local versions the cloud never saw (batches lost to the crash) rewind to
// the cloud's, so the next update chains onto a base the server recognizes.
func (e *Engine) ResyncVersions(paths ...string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(paths) == 0 {
		var err error
		paths, err = e.backing.List("")
		if err != nil {
			return err
		}
	}
	for _, p := range paths {
		v, ok, err := e.ep.Head(p)
		if err != nil {
			return fmt.Errorf("core: resync %s: %w", p, err)
		}
		if ok {
			e.vers.Set(p, v)
		} else {
			e.vers.Delete(p)
		}
	}
	return nil
}

// CrashScan is the post-crash check (§III-E): every recently-modified file
// is compared against its block checksums; inconsistent files are restored
// from the cloud when restore is true (the paper lets the user decide which
// version to keep — restore=false reports without touching local data).
func (e *Engine) CrashScan(restore bool) (*RecoveryReport, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	report := &RecoveryReport{}
	var dirty []string
	err := e.kv.Range([]byte("dirty/"), func(k, v []byte) bool {
		dirty = append(dirty, strings.TrimPrefix(string(k), "dirty/"))
		return true
	})
	if err != nil {
		return nil, err
	}
	for _, path := range dirty {
		report.Scanned = append(report.Scanned, path)
		content, err := e.backing.ReadFile(path)
		if err != nil {
			report.Missing = append(report.Missing, path)
			continue
		}
		has, err := e.integ.Has(path)
		if err != nil {
			return nil, err
		}
		if !has {
			continue // never checksummed (checksums disabled when written)
		}
		bad, err := e.integ.Verify(path, content)
		if err != nil {
			return nil, err
		}
		if len(bad) == 0 {
			continue
		}
		report.Inconsistent = append(report.Inconsistent, path)
		if restore {
			if err := e.recoverFromCloud(path); err == nil {
				report.Restored = append(report.Restored, path)
			}
		}
	}
	return report, nil
}

// blockSizeCheck asserts the integrity and rsync layers agree on block
// granularity (the paper's checksum-reuse trick requires it).
var _ = func() struct{} {
	if integrity.BlockSize != 4096 {
		panic("integrity block size must match the rsync default")
	}
	return struct{}{}
}()
