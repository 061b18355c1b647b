package main

import (
	"os"
	"runtime"
	"strings"
	"sync/atomic"

	"repro/internal/storagefault"
	"repro/internal/version"
	"repro/internal/vfs"
	"repro/internal/wire"
)

// The four wrappers below are all the instrumentation there is: each sits at
// a public seam of the system (core.Config.Backing, core.Config.Endpoint,
// wire.Backend, storagefault.FS) and, in a traced run, records one span per
// call. Nothing inside the program is touched. The first two are installed
// only when tracing; the Backend and storagefault.FS ones always, for what
// they do besides timing (detach; counting fsyncs in place of executing them), and without a
// tracer they only forward.

// timedFS wraps a vfs.FS and hands every call to span, which times it. It
// serves two positions: under core.Config.Backing (span records a vfs-layer
// span; traced run only) and above Engine.FS(), where the application sits
// (span records the op's latency; every run).
type timedFS struct {
	fs   vfs.FS
	span func(name string, bytes int64, fn func() error) error

	readBytes, writeBytes atomic.Int64
}

// backingFS is the timedFS under an engine's core.Config.Backing. client
// says whose backing it is.
func backingFS(fs vfs.FS, t *tracer, client uint32) *timedFS {
	return &timedFS{fs: fs, span: func(name string, bytes int64, fn func() error) error {
		if !t.on.Load() {
			return fn()
		}
		id := t.beginClient(layerVFS, name, client, 0)
		err := fn()
		t.endClient(id, bytes)
		return err
	}}
}

func (f *timedFS) Create(p string) error {
	return f.span("create", 0, func() error { return f.fs.Create(p) })
}
func (f *timedFS) WriteAt(p string, off int64, data []byte) error {
	f.writeBytes.Add(int64(len(data)))
	return f.span("write", int64(len(data)), func() error { return f.fs.WriteAt(p, off, data) })
}
func (f *timedFS) ReadAt(p string, off, n int64) (out []byte, err error) {
	err = f.span("read", n, func() error { out, err = f.fs.ReadAt(p, off, n); return err })
	f.readBytes.Add(int64(len(out)))
	return out, err
}
func (f *timedFS) ReadFile(p string) (out []byte, err error) {
	err = f.span("readfile", 0, func() error { out, err = f.fs.ReadFile(p); return err })
	f.readBytes.Add(int64(len(out)))
	return out, err
}
func (f *timedFS) Truncate(p string, size int64) error {
	return f.span("truncate", 0, func() error { return f.fs.Truncate(p, size) })
}
func (f *timedFS) Rename(o, n string) error {
	return f.span("rename", 0, func() error { return f.fs.Rename(o, n) })
}
func (f *timedFS) Link(o, n string) error {
	return f.span("link", 0, func() error { return f.fs.Link(o, n) })
}
func (f *timedFS) Unlink(p string) error {
	return f.span("unlink", 0, func() error { return f.fs.Unlink(p) })
}
func (f *timedFS) Mkdir(p string) error {
	return f.span("mkdir", 0, func() error { return f.fs.Mkdir(p) })
}
func (f *timedFS) Rmdir(p string) error {
	return f.span("rmdir", 0, func() error { return f.fs.Rmdir(p) })
}
func (f *timedFS) Close(p string) error {
	return f.span("close", 0, func() error { return f.fs.Close(p) })
}
func (f *timedFS) Fsync(p string) error {
	return f.span("fsync", 0, func() error { return f.fs.Fsync(p) })
}
func (f *timedFS) Stat(p string) (fi vfs.FileInfo, err error) {
	err = f.span("stat", 0, func() error { fi, err = f.fs.Stat(p); return err })
	return fi, err
}
func (f *timedFS) List(prefix string) (out []string, err error) {
	err = f.span("list", 0, func() error { out, err = f.fs.List(prefix); return err })
	return out, err
}

var _ vfs.FS = (*timedFS)(nil)

// timedEndpoint wraps a client's wire.Endpoint: one span per round trip. While
// it is open it is the client's innermost span, which is where the
// server-side span of the request finds its parent.
type timedEndpoint struct {
	ep wire.Endpoint
	t  *tracer
	id uint32
}

func (e *timedEndpoint) call(name string, seq uint64, fn func() error) error {
	if !e.t.on.Load() {
		return fn()
	}
	id := e.t.beginClient(layerWire, name, e.id, seq)
	err := fn()
	e.t.endClient(id, 0)
	return err
}

func (e *timedEndpoint) Register() (uint32, error) { return e.ep.Register() }
func (e *timedEndpoint) Push(b *wire.Batch) (r *wire.PushReply, err error) {
	err = e.call("push", b.Seq, func() error { r, err = e.ep.Push(b); return err })
	return r, err
}
func (e *timedEndpoint) Fetch(p string) (r *wire.FetchReply, err error) {
	err = e.call("fetch", 0, func() error { r, err = e.ep.Fetch(p); return err })
	return r, err
}
func (e *timedEndpoint) Head(p string) (v version.ID, ok bool, err error) {
	err = e.call("head", 0, func() error { v, ok, err = e.ep.Head(p); return err })
	return v, ok, err
}
func (e *timedEndpoint) FetchRange(p string, off, n int64) (out []byte, err error) {
	err = e.call("fetchrange", 0, func() error { out, err = e.ep.FetchRange(p, off, n); return err })
	return out, err
}
func (e *timedEndpoint) Poll() (bs []*wire.Batch, err error) {
	err = e.call("poll", 0, func() error { bs, err = e.ep.Poll(); return err })
	return bs, err
}
func (e *timedEndpoint) Close() error { return e.ep.Close() }

var _ wire.Endpoint = (*timedEndpoint)(nil)

// timedBackend wraps the *server.Server handed to wire.ServeWith: one span
// per dispatched request, parented to the client round trip that carried it.
// With a nil tracer it only forwards.
//
// It is installed on every run, traced or not, because of detach: when
// wire's poller shuts down, its close can take the wake pipe out of the
// epoll set before the dispatch goroutine has seen the wake byte, and that
// goroutine then blocks forever holding the serve state and, through it, the
// backend — a whole repetition's server (observed in two shutdowns out of
// five). detach makes what it holds empty, so repetitions stay independent.
type timedBackend struct {
	be atomic.Pointer[wire.Backend]
	t  *tracer
}

func newTimedBackend(be wire.Backend, t *tracer) *timedBackend {
	b := &timedBackend{t: t}
	b.be.Store(&be)
	return b
}

// detach drops the backend. Call only after every connection has closed.
func (b *timedBackend) detach() { b.be.Store(nil) }

func (b *timedBackend) on() bool { return b.t != nil && b.t.on.Load() }

func (b *timedBackend) RegisterGroup(group uint32) uint32 { return (*b.be.Load()).RegisterGroup(group) }
func (b *timedBackend) Attach(client uint32)              { (*b.be.Load()).Attach(client) }

func (b *timedBackend) PushEncoded(from uint32, eb *wire.EncodedBatch) *wire.PushReply {
	be := *b.be.Load()
	if !b.on() {
		return be.PushEncoded(from, eb)
	}
	id := b.t.beginServer("push", from, eb.Batch().Seq)
	r := be.PushEncoded(from, eb)
	b.t.endServer(id, eb.Batch().WireSize())
	return r
}

func (b *timedBackend) PollEncoded(client uint32) []*wire.EncodedBatch {
	be := *b.be.Load()
	if !b.on() {
		return be.PollEncoded(client)
	}
	id := b.t.beginServer("poll", client, 0)
	r := be.PollEncoded(client)
	b.t.endServer(id, 0)
	return r
}

// anon times a Backend call that does not name its client; the engine
// workloads have one round trip in flight at a time, so the last one begun
// is the parent.
func (b *timedBackend) anon(name string, fn func(be wire.Backend)) {
	be := *b.be.Load()
	if !b.on() {
		fn(be)
		return
	}
	id := b.t.beginServer(name, 0, 0)
	fn(be)
	b.t.endServer(id, 0)
}

func (b *timedBackend) Fetch(p string) (r *wire.FetchReply) {
	b.anon("fetch", func(be wire.Backend) { r = be.Fetch(p) })
	return r
}
func (b *timedBackend) Head(p string) (v version.ID, ok bool) {
	b.anon("head", func(be wire.Backend) { v, ok = be.Head(p) })
	return v, ok
}
func (b *timedBackend) FetchRange(p string, off, n int64) (out []byte, err error) {
	b.anon("fetchrange", func(be wire.Backend) { out, err = be.FetchRange(p, off, n) })
	return out, err
}

var _ wire.Backend = (*timedBackend)(nil)

// countFS wraps the storagefault.FS under the server journal
// (server.OpenJournalFS) or the client checksum store (kvstore.Options.FS).
// It is installed on every run: it counts bytes written and fsyncs, and when
// tracing it times every IO call.
//
// It never executes the fsyncs it counts. The ISSUE puts the data directory
// on a tmpfs, where an fsync returns at once, so that fsyncs are a count and
// not the neighbour's disk; the contract keeps the benchmark inside its
// checkout, on whatever disk holds it. Dropping the call here gives the
// tmpfs's behaviour on that disk: the write path and the fsync count stay,
// the device's latency goes. (With real fsyncs the group-committed journal
// makes the file system commit every 5 ms, every other file operation in the
// process waits on the shared VM disk, and run-to-run spread doubled.) File
// data is deleted before the kernel writes it back either way.
//
// The checksum store's IO is done by its client's engine calls (client is
// that client's ID). The journal's (client 0) is done either while serving a
// push or by the group-commit goroutine beside it; only the first is on the
// measured path, and the call stack tells the two apart.
type countFS struct {
	fs     storagefault.FS
	t      *tracer
	layer  string
	client uint32

	writeBytes, fsyncs atomic.Int64
}

// committerFrame is the function the journal's background flushes run under.
// If it is renamed, all journal IO counts as on the path and journal.io_s
// rises above server.push_s, which the README says to look for.
const committerFrame = "kvstore.(*Store).committer"

// onCommitter reports whether the caller runs on a group-commit goroutine,
// whose entry function is the outermost frame of its stack.
func onCommitter() bool {
	var pcs [32]uintptr
	n := runtime.Callers(2, pcs[:])
	frames := runtime.CallersFrames(pcs[:n])
	for {
		f, more := frames.Next()
		if strings.HasSuffix(f.Function, committerFrame) {
			return true
		}
		if !more {
			return false
		}
	}
}

func (c *countFS) call(name string, bytes int64, fn func() error) error {
	if c.t == nil || !c.t.on.Load() {
		return fn()
	}
	id := c.t.beginIO(c.layer, name, c.client, c.client == 0 && !onCommitter())
	err := fn()
	c.t.endIO(id, bytes)
	return err
}

func (c *countFS) OpenFile(name string, flag int, perm os.FileMode) (f storagefault.File, err error) {
	err = c.call("open", 0, func() error { f, err = c.fs.OpenFile(name, flag, perm); return err })
	if err != nil {
		return nil, err
	}
	return &countFile{File: f, c: c}, nil
}
func (c *countFS) ReadFile(name string) (out []byte, err error) {
	err = c.call("readfile", 0, func() error { out, err = c.fs.ReadFile(name); return err })
	return out, err
}
func (c *countFS) Rename(o, n string) error {
	return c.call("rename", 0, func() error { return c.fs.Rename(o, n) })
}
func (c *countFS) Remove(n string) error {
	return c.call("remove", 0, func() error { return c.fs.Remove(n) })
}
func (c *countFS) Link(o, n string) error {
	return c.call("link", 0, func() error { return c.fs.Link(o, n) })
}
func (c *countFS) Truncate(n string, size int64) error {
	return c.call("truncate", 0, func() error { return c.fs.Truncate(n, size) })
}
func (c *countFS) Mkdir(n string, perm os.FileMode) error { return c.fs.Mkdir(n, perm) }
func (c *countFS) MkdirAll(n string, perm os.FileMode) error {
	return c.fs.MkdirAll(n, perm)
}
func (c *countFS) SyncDir(string) error                     { c.fsyncs.Add(1); return nil }
func (c *countFS) Stat(n string) (storagefault.Info, error) { return c.fs.Stat(n) }
func (c *countFS) List(dir string) ([]string, error)        { return c.fs.List(dir) }

var _ storagefault.FS = (*countFS)(nil)

// countFile is an open file of a countFS. Only the calls the WAL makes on
// its hot path are timed; the rest pass through the embedded File.
type countFile struct {
	storagefault.File
	c *countFS
}

func (f *countFile) Write(p []byte) (n int, err error) {
	f.c.writeBytes.Add(int64(len(p)))
	err = f.c.call("write", int64(len(p)), func() error { n, err = f.File.Write(p); return err })
	return n, err
}
func (f *countFile) WriteAt(p []byte, off int64) (n int, err error) {
	f.c.writeBytes.Add(int64(len(p)))
	err = f.c.call("write", int64(len(p)), func() error { n, err = f.File.WriteAt(p, off); return err })
	return n, err
}
func (f *countFile) Sync() error { f.c.fsyncs.Add(1); return nil }
