package server

import (
	"os"
	"path/filepath"
)

// BadSnapshot violates crashsafe twice: the temp file is renamed with no
// fsync on any path, and the rename is never made durable by a directory
// fsync.
func BadSnapshot(dir string, data []byte) error {
	tmp := filepath.Join(dir, "state.tmp")
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, filepath.Join(dir, "state"))
}

// notify does the channel send; the blockunderlock finding at the call in
// BadNotifyUnderLock exists only via the transitive blocking summary.
func (s *Server) notify(v string) {
	s.ch <- v
}

// BadNotifyUnderLock calls a blocking helper while s.mu is held.
func (s *Server) BadNotifyUnderLock(v string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.notify(v)
}
