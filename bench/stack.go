package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/kvstore"
	"repro/internal/metrics"
	"repro/internal/server"
	"repro/internal/storagefault"
	"repro/internal/vfs"
	"repro/internal/wire"
)

// stack is one repetition's system under test, assembled the way
// deltacfs-server and deltacfs-client assemble it: a server.Server with a
// group-committed push journal, served by wire.ServeWith on a loopback TCP
// listener, and clients dialled over that listener. Everything lives under
// dir and is removed by close.
type stack struct {
	dir      string
	t        *tracer // nil = untraced
	srv      *server.Server
	srvMeter *metrics.CPUMeter
	journal  *server.Journal
	jfs      *countFS // journal IO seam
	lis      net.Listener
	backend  *timedBackend
	served   chan error
	stats    *wire.ServeStats
	sync     *metrics.SyncMeter // the server's throttle counter
	clients  []*client
	encodes  int64 // wire.BatchEncodes over the measured region
}

// client is one device: a TCP connection, and for the engine workloads a
// DirFS-backed core.Engine on top of it.
type client struct {
	id      uint32
	conn    *wire.NetClient
	ep      wire.Endpoint // conn, or its timing wrapper
	traffic *metrics.TrafficMeter
	meter   *metrics.CPUMeter
	dirfs   *vfs.DirFS // the real backing directory (oracle reads go here)
	backing vfs.FS     // dirfs, or its timing wrapper
	tfs     *timedFS   // traced only
	kv      *kvstore.Store
	kvfs    *countFS // checksum-store IO seam
	eng     *core.Engine
}

func newStack(dir string, t *tracer) (*stack, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &stack{dir: dir, t: t, srvMeter: metrics.NewCPUMeter(metrics.PC), stats: &wire.ServeStats{}}
	s.srv = server.New(s.srvMeter)
	s.sync = &metrics.SyncMeter{}
	s.srv.SetSyncMeter(s.sync)

	s.jfs = &countFS{fs: storagefault.OS, t: t, layer: layerJournal}
	j, err := server.OpenJournalFS(s.jfs, filepath.Join(dir, "journal"), kvstore.DefaultCommitWindow)
	if err != nil {
		return nil, err
	}
	s.journal = j
	s.srv.SetJournal(j)

	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		j.Close()
		return nil, err
	}
	s.lis = lis
	s.backend = newTimedBackend(s.srv, t)
	s.served = make(chan error, 1)
	go func() { s.served <- wire.ServeWith(lis, s.backend, wire.ServeConfig{Stats: s.stats}) }()
	return s, nil
}

// dial opens one more client connection in the default sharing group.
func (s *stack) dial() (*client, error) {
	c := &client{traffic: &metrics.TrafficMeter{}, meter: metrics.NewCPUMeter(metrics.PC)}
	conn, err := wire.DialWith(s.lis.Addr().String(), wire.DialOpts{Meter: c.meter, Traffic: c.traffic})
	if err != nil {
		return nil, err
	}
	c.conn, c.ep = conn, conn
	c.id, _ = conn.Register() // NetClient.Register returns the ID the dial obtained
	if c.id >= maxClients {
		conn.Close()
		return nil, fmt.Errorf("client ID %d: the tracer keeps %d clients apart", c.id, maxClients)
	}
	if s.t != nil {
		c.ep = &timedEndpoint{ep: conn, t: s.t, id: c.id}
	}
	s.clients = append(s.clients, c)
	return c, nil
}

// openBacking gives the client its DirFS directory (under the stack's dir).
func (s *stack) openBacking(c *client, name string) error {
	d, err := vfs.NewDirFS(filepath.Join(s.dir, name))
	if err != nil {
		return err
	}
	c.dirfs, c.backing = d, d
	if s.t != nil {
		c.tfs = backingFS(d, s.t, c.id)
		c.backing = c.tfs
	}
	return nil
}

// engineOpts are the two ways the workloads' engines differ.
type engineOpts struct {
	checksums bool // integrity layer on, with an on-disk checksum store
}

// startEngine builds the client's engine over its (already seeded) backing.
func (s *stack) startEngine(c *client, clk *clock.Clock, o engineOpts) error {
	cfg := core.Config{Backing: c.backing, Endpoint: c.ep, Clock: clk, Meter: c.meter, Checksums: o.checksums}
	if o.checksums {
		c.kvfs = &countFS{fs: storagefault.OS, t: s.t, layer: layerKV, client: c.id}
		kv, err := kvstore.OpenWith(filepath.Join(s.dir, fmt.Sprintf("kv%d", c.id)), kvstore.Options{FS: c.kvfs})
		if err != nil {
			return err
		}
		c.kv, cfg.KV = kv, kv
	}
	eng, err := core.New(cfg)
	if err != nil {
		return err
	}
	c.eng = eng
	if o.checksums {
		return eng.PrimeChecksums()
	}
	return nil
}

// close stops everything the stack started, waits for the serve loop to
// return, and removes the data directory.
func (s *stack) close() error {
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	for _, c := range s.clients {
		keep(c.conn.Close())
		if c.kv != nil {
			keep(c.kv.Close())
		}
	}
	keep(s.lis.Close())
	keep(<-s.served)
	// The server notices its clients' closes on its own time; wait until it
	// has, so that nothing can still call into the backend.
	for s.stats.Conns() > 0 {
		time.Sleep(100 * time.Microsecond)
	}
	s.backend.detach()
	keep(s.journal.Close())
	keep(os.RemoveAll(s.dir))
	return first
}
