package wire

import (
	"bufio"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// The bounded worker/accept model. Goroutine-per-connection costs a stack
// (and scheduler presence) per client, which is what caps a sync server in
// the low thousands of mostly-idle connections. Here a plain TCP connection
// costs only its file descriptor plus a buffered reader: connections
// park in an OS readiness poller (poller_linux.go) with no goroutine
// attached; when bytes arrive, the poller hands the connection to a fixed
// pool of workers, one of which runs the request loop until the connection
// goes quiet again and re-arms it. EPOLLONESHOT guarantees a connection is
// owned by at most one worker at a time, preserving the strict
// request/response pairing of the frames on a connection.
//
// Connections the poller cannot multiplex — TLS and fault-injection
// wrappers (their net.Conn hides the descriptor and carries decryption
// state a readiness event knows nothing about), or platforms without a
// poller — fall back to the historical dedicated-goroutine loop. The stats
// record which path each connection took, so tests can assert the bound.

// ServeStats exposes the transport's connection and request counters. All
// methods are safe for concurrent use.
type ServeStats struct {
	conns    atomic.Int64
	peak     atomic.Int64
	polled   atomic.Int64
	fallback atomic.Int64
	requests atomic.Int64
}

// Conns returns the number of currently open connections.
func (s *ServeStats) Conns() int64 { return s.conns.Load() }

// PeakConns returns the highest concurrent connection count observed.
func (s *ServeStats) PeakConns() int64 { return s.peak.Load() }

// Polled returns how many admitted connections were multiplexed onto the
// readiness poller (no dedicated goroutine).
func (s *ServeStats) Polled() int64 { return s.polled.Load() }

// Fallback returns how many admitted connections required a dedicated
// goroutine (TLS/wrapped conns, or no poller on this platform).
func (s *ServeStats) Fallback() int64 { return s.fallback.Load() }

// Requests returns the total number of requests served.
func (s *ServeStats) Requests() int64 { return s.requests.Load() }

// defaultServeWorkers sizes the worker pool: enough parallelism to keep
// every core busy and ride out short blocking (journal group-commit waits),
// while staying O(cores), not O(clients).
func defaultServeWorkers() int {
	n := 4 * runtime.GOMAXPROCS(0)
	if n < 16 {
		n = 16
	}
	return n
}

// serveState is one ServeWith invocation's shared machinery: the worker
// pool, the readiness poller, and the lifecycle that shuts both down once
// the listener is closed and the last connection drains.
type serveState struct {
	backend Backend
	cfg     ServeConfig
	stats   *ServeStats
	poller  *connPoller // nil → every connection falls back
	work    chan *polledConn
	quit    chan struct{}

	lisClosed atomic.Bool
	stopOnce  sync.Once
}

func newServeState(backend Backend, cfg ServeConfig) *serveState {
	workers := defaultServeWorkers()
	stats := cfg.Stats
	if stats == nil {
		stats = &ServeStats{}
	}
	s := &serveState{
		backend: backend,
		cfg:     cfg,
		stats:   stats,
		work:    make(chan *polledConn, 4*workers),
		quit:    make(chan struct{}),
	}
	if p, err := newConnPoller(); err == nil {
		s.poller = p
		for i := 0; i < workers; i++ {
			go s.worker()
		}
		go s.dispatchLoop()
	}
	return s
}

// admit routes one accepted connection to the poller or the fallback path.
func (s *serveState) admit(conn net.Conn) {
	n := s.stats.conns.Add(1)
	for {
		p := s.stats.peak.Load()
		if n <= p || s.stats.peak.CompareAndSwap(p, n) {
			break
		}
	}
	if s.poller != nil {
		if tc, ok := conn.(*net.TCPConn); ok {
			if err := s.admitPolled(tc); err == nil {
				s.stats.polled.Add(1)
				return
			}
		}
	}
	s.stats.fallback.Add(1)
	go func() {
		serveConn(conn, s.backend, s.cfg, s.stats)
		s.connClosed()
	}()
}

// admitPolled registers a TCP connection with the readiness poller.
func (s *serveState) admitPolled(tc *net.TCPConn) error {
	raw, err := tc.SyscallConn()
	if err != nil {
		return err
	}
	var fd int32 = -1
	if err := raw.Control(func(f uintptr) { fd = int32(f) }); err != nil {
		return err
	}
	pc := &polledConn{
		srv:  s,
		conn: tc,
		fd:   fd,
		cc:   &connCodec{conn: tc, br: bufio.NewReader(tc)},
	}
	return s.poller.add(pc)
}

// worker serves readiness events until the pool shuts down. Each event is
// one connection with bytes pending; the worker owns it exclusively
// (EPOLLONESHOT) until it re-arms.
func (s *serveState) worker() {
	for {
		select {
		case pc := <-s.work:
			pc.serveReady()
		case <-s.quit:
			return
		}
	}
}

// dispatchLoop drains the poller and hands ready connections to the
// workers. A full work channel applies backpressure to the poller (events
// are one-shot, so nothing re-fires while waiting). It is the only caller
// of wait(), so it releases the poller's descriptors on its way out.
func (s *serveState) dispatchLoop() {
	defer s.poller.release()
	for {
		ready, err := s.poller.wait()
		if err != nil {
			return
		}
		for _, pc := range ready {
			select {
			case s.work <- pc:
			case <-s.quit:
				return
			}
		}
	}
}

// listenerClosed records that no further connections will be admitted and
// shuts the pool down once the connection count drains to zero.
func (s *serveState) listenerClosed() {
	s.lisClosed.Store(true)
	if s.stats.conns.Load() == 0 {
		s.stop()
	}
}

// connClosed is the single exit point for admitted connections.
func (s *serveState) connClosed() {
	if s.stats.conns.Add(-1) == 0 && s.lisClosed.Load() {
		s.stop()
	}
}

func (s *serveState) stop() {
	s.stopOnce.Do(func() {
		close(s.quit)
		if s.poller != nil {
			s.poller.close()
		}
	})
}

// polledConn is one multiplexed connection: its descriptor is registered
// with the poller; its framing state (preamble checked, buffered reader)
// lives here between wakeups.
type polledConn struct {
	srv   *serveState
	conn  *net.TCPConn
	fd    int32
	token uint32 // poller registration identity (guards against fd reuse)
	cc    *connCodec

	client    uint32 // bound identity; only the owning worker touches it
	closeOnce sync.Once
}

// serveReady runs on a pool worker after a readiness event: serve requests
// until the connection goes quiet, then re-arm it. The reader's buffer is
// drained before re-arming — bytes already read out of the kernel will
// never produce another readiness event.
func (pc *polledConn) serveReady() {
	cfg := pc.srv.cfg
	if cfg.WriteTimeout > 0 {
		// Readiness promised at least one byte, not a whole request: bound
		// the read so a trickling or stalled client cannot pin this worker.
		pc.conn.SetReadDeadline(time.Now().Add(cfg.WriteTimeout))
	}
	for {
		if err := serveOne(pc.cc, pc.srv.backend, cfg, pc.srv.stats, &pc.client); err != nil {
			pc.close()
			return
		}
		if pc.cc.br.Buffered() == 0 {
			break
		}
	}
	pc.conn.SetReadDeadline(time.Time{})
	if err := pc.srv.poller.rearm(pc); err != nil {
		pc.close()
	}
}

// close deregisters the connection from the poller (while the descriptor is
// still valid) and closes it. Idempotent: the poller and a worker can race
// to close.
func (pc *polledConn) close() {
	pc.closeOnce.Do(func() {
		pc.srv.poller.remove(pc)
		pc.conn.Close()
		pc.srv.connClosed()
	})
}
