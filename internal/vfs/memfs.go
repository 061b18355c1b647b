package vfs

import (
	"errors"
	"fmt"
	"path"
	"sort"
	"strings"
	"sync"
)

// Common vfs errors.
var (
	ErrNotExist = errors.New("vfs: file does not exist")
	ErrExist    = errors.New("vfs: file already exists")
	ErrIsDir    = errors.New("vfs: path is a directory")
	ErrNotDir   = errors.New("vfs: path is not a directory")
	ErrNotEmpty = errors.New("vfs: directory not empty")
)

// memFile is the inode: hard links share one memFile.
type memFile struct {
	data  []byte
	links int
}

// MemFS is an in-memory FS with hard-link support. It is the default backing
// store for tests and benchmarks, and it exposes bypass hooks (BypassWrite,
// FlipBit) used by the fault-injection experiments to corrupt data "on disk"
// without going through the interception layer — the software equivalent of
// the paper's debugfs bit-flipping.
type MemFS struct {
	mu    sync.RWMutex
	files map[string]*memFile
	dirs  map[string]bool
}

// NewMemFS returns an empty in-memory file system.
func NewMemFS() *MemFS {
	return &MemFS{
		files: make(map[string]*memFile),
		dirs:  map[string]bool{".": true},
	}
}

func clean(p string) string {
	p = path.Clean(strings.TrimPrefix(p, "/"))
	if p == "" {
		return "."
	}
	return p
}

func (m *MemFS) parentExists(p string) bool {
	dir := path.Dir(p)
	return m.dirs[dir]
}

// Create creates an empty regular file, truncating an existing one — the
// POSIX O_CREAT|O_TRUNC semantics the paper's "create" operations imply.
func (m *MemFS) Create(p string) error {
	p = clean(p)
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.dirs[p] {
		return fmt.Errorf("create %s: %w", p, ErrIsDir)
	}
	if !m.parentExists(p) {
		return fmt.Errorf("create %s: parent: %w", p, ErrNotExist)
	}
	if f, ok := m.files[p]; ok {
		f.data = f.data[:0]
		return nil
	}
	m.files[p] = &memFile{links: 1}
	return nil
}

// WriteAt writes data at offset off, creating the file if absent (FUSE
// write on an open handle always has a file; trace replay is simpler if
// writes create implicitly) and zero-filling any gap.
func (m *MemFS) WriteAt(p string, off int64, data []byte) error {
	p = clean(p)
	if off < 0 {
		return fmt.Errorf("write %s: negative offset %d", p, off)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.dirs[p] {
		return fmt.Errorf("write %s: %w", p, ErrIsDir)
	}
	f, ok := m.files[p]
	if !ok {
		if !m.parentExists(p) {
			return fmt.Errorf("write %s: parent: %w", p, ErrNotExist)
		}
		f = &memFile{links: 1}
		m.files[p] = f
	}
	end := off + int64(len(data))
	if int64(len(f.data)) < end {
		f.data = growZeroed(f.data, end)
	}
	copy(f.data[off:end], data)
	return nil
}

// growZeroed extends data to n bytes, zero-filling the extension. Capacity
// doubles, so a file built by appends is copied a bounded number of times
// rather than once per write. MemFS keeps one flat slice rather than adopt
// extent.File: its writes land in place and cost nothing today, and a page
// table would turn every 100 B in-place write into a 64 KiB page copy.
func growZeroed(data []byte, n int64) []byte {
	if n <= int64(cap(data)) {
		old := len(data)
		data = data[:n]
		clear(data[old:]) // Truncate and Create shrink in place: stale bytes may sit past len
		return data
	}
	grown := make([]byte, n, max(n, 2*int64(cap(data))))
	copy(grown, data)
	return grown
}

// ReadAt reads up to n bytes at offset off. Reading past EOF returns the
// available prefix (possibly empty) without error, matching pread semantics
// closely enough for the sync engines.
func (m *MemFS) ReadAt(p string, off, n int64) ([]byte, error) {
	p = clean(p)
	if off < 0 || n < 0 {
		return nil, fmt.Errorf("read %s: negative offset or count", p)
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	f, ok := m.files[p]
	if !ok {
		return nil, fmt.Errorf("read %s: %w", p, ErrNotExist)
	}
	if off >= int64(len(f.data)) {
		return nil, nil
	}
	end := off + n
	if end > int64(len(f.data)) {
		end = int64(len(f.data))
	}
	out := make([]byte, end-off)
	copy(out, f.data[off:end])
	return out, nil
}

// ReadFile returns a copy of the whole file.
func (m *MemFS) ReadFile(p string) ([]byte, error) {
	p = clean(p)
	m.mu.RLock()
	defer m.mu.RUnlock()
	f, ok := m.files[p]
	if !ok {
		return nil, fmt.Errorf("read %s: %w", p, ErrNotExist)
	}
	out := make([]byte, len(f.data))
	copy(out, f.data)
	return out, nil
}

// Truncate sets the file length, zero-filling on growth.
func (m *MemFS) Truncate(p string, size int64) error {
	p = clean(p)
	if size < 0 {
		return fmt.Errorf("truncate %s: negative size", p)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[p]
	if !ok {
		return fmt.Errorf("truncate %s: %w", p, ErrNotExist)
	}
	if int64(len(f.data)) >= size {
		f.data = f.data[:size]
		return nil
	}
	f.data = growZeroed(f.data, size)
	return nil
}

// Rename atomically moves oldPath to newPath, replacing any existing file at
// newPath (POSIX rename semantics, the atomic commit step of transactional
// updates).
func (m *MemFS) Rename(oldPath, newPath string) error {
	oldPath, newPath = clean(oldPath), clean(newPath)
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.dirs[oldPath] {
		return m.renameDirLocked(oldPath, newPath)
	}
	f, ok := m.files[oldPath]
	if !ok {
		return fmt.Errorf("rename %s: %w", oldPath, ErrNotExist)
	}
	if m.dirs[newPath] {
		return fmt.Errorf("rename to %s: %w", newPath, ErrIsDir)
	}
	if !m.parentExists(newPath) {
		return fmt.Errorf("rename to %s: parent: %w", newPath, ErrNotExist)
	}
	if old, ok := m.files[newPath]; ok {
		old.links--
	}
	m.files[newPath] = f
	delete(m.files, oldPath)
	return nil
}

func (m *MemFS) renameDirLocked(oldPath, newPath string) error {
	if m.dirs[newPath] || m.files[newPath] != nil {
		return fmt.Errorf("rename to %s: %w", newPath, ErrExist)
	}
	if !m.parentExists(newPath) {
		return fmt.Errorf("rename to %s: parent: %w", newPath, ErrNotExist)
	}
	oldPrefix := oldPath + "/"
	for d := range m.dirs {
		if d == oldPath {
			delete(m.dirs, d)
			m.dirs[newPath] = true
		} else if strings.HasPrefix(d, oldPrefix) {
			delete(m.dirs, d)
			m.dirs[newPath+"/"+d[len(oldPrefix):]] = true
		}
	}
	for p, f := range m.files {
		if strings.HasPrefix(p, oldPrefix) {
			delete(m.files, p)
			m.files[newPath+"/"+p[len(oldPrefix):]] = f
		}
	}
	return nil
}

// Link creates a hard link newPath referring to oldPath's inode. It fails if
// newPath exists (link(2) semantics).
func (m *MemFS) Link(oldPath, newPath string) error {
	oldPath, newPath = clean(oldPath), clean(newPath)
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[oldPath]
	if !ok {
		return fmt.Errorf("link %s: %w", oldPath, ErrNotExist)
	}
	if m.files[newPath] != nil || m.dirs[newPath] {
		return fmt.Errorf("link to %s: %w", newPath, ErrExist)
	}
	if !m.parentExists(newPath) {
		return fmt.Errorf("link to %s: parent: %w", newPath, ErrNotExist)
	}
	f.links++
	m.files[newPath] = f
	return nil
}

// Unlink removes the name; the inode lives on while other links reference it.
func (m *MemFS) Unlink(p string) error {
	p = clean(p)
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[p]
	if !ok {
		if m.dirs[p] {
			return fmt.Errorf("unlink %s: %w", p, ErrIsDir)
		}
		return fmt.Errorf("unlink %s: %w", p, ErrNotExist)
	}
	f.links--
	delete(m.files, p)
	return nil
}

// Mkdir creates a directory. Parent must exist.
func (m *MemFS) Mkdir(p string) error {
	p = clean(p)
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.dirs[p] || m.files[p] != nil {
		return fmt.Errorf("mkdir %s: %w", p, ErrExist)
	}
	if !m.parentExists(p) {
		return fmt.Errorf("mkdir %s: parent: %w", p, ErrNotExist)
	}
	m.dirs[p] = true
	return nil
}

// Rmdir removes an empty directory.
func (m *MemFS) Rmdir(p string) error {
	p = clean(p)
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.dirs[p] {
		return fmt.Errorf("rmdir %s: %w", p, ErrNotDir)
	}
	prefix := p + "/"
	for q := range m.files {
		if strings.HasPrefix(q, prefix) {
			return fmt.Errorf("rmdir %s: %w", p, ErrNotEmpty)
		}
	}
	for q := range m.dirs {
		if strings.HasPrefix(q, prefix) {
			return fmt.Errorf("rmdir %s: %w", p, ErrNotEmpty)
		}
	}
	delete(m.dirs, p)
	return nil
}

// Close is a release notification; MemFS needs no action.
func (m *MemFS) Close(p string) error { return nil }

// Fsync is a durability notification; MemFS needs no action.
func (m *MemFS) Fsync(p string) error { return nil }

// Stat describes the file or directory at p.
func (m *MemFS) Stat(p string) (FileInfo, error) {
	p = clean(p)
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.dirs[p] {
		return FileInfo{IsDir: true}, nil
	}
	f, ok := m.files[p]
	if !ok {
		return FileInfo{}, fmt.Errorf("stat %s: %w", p, ErrNotExist)
	}
	return FileInfo{Size: int64(len(f.data)), Links: f.links}, nil
}

// List returns all regular-file paths under prefix, sorted.
func (m *MemFS) List(prefix string) ([]string, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var out []string
	if prefix != "" {
		prefix = clean(prefix)
	}
	for p := range m.files {
		if prefix == "" || p == prefix || strings.HasPrefix(p, prefix+"/") {
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out, nil
}

// TotalBytes returns the sum of all file sizes (each inode counted once per
// name, matching what a sync engine sees).
func (m *MemFS) TotalBytes() int64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var n int64
	for _, f := range m.files {
		n += int64(len(f.data))
	}
	return n
}

// BypassWrite mutates file bytes directly, without any interception-visible
// operation — simulating on-disk corruption or a crash-inconsistent state
// where data changed but metadata (and any layered bookkeeping) did not.
func (m *MemFS) BypassWrite(p string, off int64, data []byte) error {
	p = clean(p)
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[p]
	if !ok {
		return fmt.Errorf("bypass write %s: %w", p, ErrNotExist)
	}
	if off < 0 || off+int64(len(data)) > int64(len(f.data)) {
		return fmt.Errorf("bypass write %s: range [%d,%d) outside file of %d bytes",
			p, off, off+int64(len(data)), len(f.data))
	}
	copy(f.data[off:], data)
	return nil
}

// FlipBit flips one bit at byte offset off — the paper's debugfs-style
// corruption injection.
func (m *MemFS) FlipBit(p string, off int64) error {
	p = clean(p)
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[p]
	if !ok {
		return fmt.Errorf("flip bit %s: %w", p, ErrNotExist)
	}
	if off < 0 || off >= int64(len(f.data)) {
		return fmt.Errorf("flip bit %s: offset %d outside file of %d bytes",
			p, off, len(f.data))
	}
	f.data[off] ^= 0x01
	return nil
}
