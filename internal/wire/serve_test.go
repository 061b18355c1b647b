package wire

import (
	"bytes"
	"crypto/tls"
	"encoding/gob"
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"
)

// Bounded transport: on Linux, plain-TCP connections are multiplexed onto
// the poller and a fixed worker pool — N idle connections must not cost N
// goroutines — and the stats must say so.
func TestServePolledConnectionsBounded(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	stats := &ServeStats{}
	backend := newFakeBackend()
	go ServeWith(lis, backend, ServeConfig{Stats: stats})

	// The pool is defaultServeWorkers() goroutines, however many connections
	// it serves; more connections than pool plus slack makes a
	// goroutine-per-connection leak visible on any core count.
	const slack = 16
	conns := defaultServeWorkers() + 2*slack
	before := runtime.NumGoroutine()
	var clients []*NetClient
	defer func() {
		for _, c := range clients {
			c.Close()
		}
	}()
	for i := 0; i < conns; i++ {
		c, err := DialWith(lis.Addr().String(), DialOpts{OpTimeout: time.Minute})
		if err != nil {
			t.Fatalf("dial %d: %v", i, err)
		}
		clients = append(clients, c)
	}

	if got := stats.Conns(); got != int64(conns) {
		t.Fatalf("Conns = %d, want %d", got, conns)
	}
	if got := stats.PeakConns(); got != int64(conns) {
		t.Fatalf("PeakConns = %d, want %d", got, conns)
	}
	if runtime.GOOS == "linux" {
		if got := stats.Polled(); got != int64(conns) {
			t.Fatalf("Polled = %d, want %d (plain TCP must take the poller path)", got, conns)
		}
		if got := stats.Fallback(); got != 0 {
			t.Fatalf("Fallback = %d, want 0", got)
		}
		// The boundedness claim: goroutine growth is the worker pool plus
		// runtime slack, not one per connection.
		if grew := runtime.NumGoroutine() - before; grew > defaultServeWorkers()+slack {
			t.Fatalf("goroutines grew by %d for %d idle conns; transport is not bounded", grew, conns)
		}
	}

	// Every multiplexed connection still works, including concurrently.
	var wg sync.WaitGroup
	errs := make(chan error, conns)
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *NetClient) {
			defer wg.Done()
			path := fmt.Sprintf("f%d", i)
			if _, err := c.Push(&Batch{Nodes: []*Node{{Kind: NFull, Path: path, Full: []byte{byte(i)}}}}); err != nil {
				errs <- fmt.Errorf("push %d: %w", i, err)
				return
			}
			fr, err := c.Fetch(path)
			if err != nil || !fr.Exists || len(fr.Content) != 1 || fr.Content[0] != byte(i) {
				errs <- fmt.Errorf("fetch %d: %+v, %v", i, fr, err)
			}
		}(i, c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := stats.Requests(); got < int64(conns)*3 {
		t.Fatalf("Requests = %d, want >= %d (register+push+fetch per conn)", got, conns*3)
	}

	// Closing the clients drains the server's connection count.
	for _, c := range clients {
		c.Close()
	}
	clients = nil
	deadline := time.Now().Add(5 * time.Second)
	for stats.Conns() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("Conns = %d after close, want 0", stats.Conns())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TLS connections cannot expose a raw fd, so they must take the fallback
// (goroutine-per-conn) path and still work end to end.
func TestServeTLSFallsBack(t *testing.T) {
	serverConf, clientConf, err := SelfSignedTLS()
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	stats := &ServeStats{}
	backend := newFakeBackend()
	go ServeWith(tls.NewListener(lis, serverConf), backend, ServeConfig{Stats: stats})

	c, err := DialWith(lis.Addr().String(), DialOpts{TLS: clientConf, OpTimeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Push(&Batch{Nodes: []*Node{{Kind: NFull, Path: "f", Full: []byte("x")}}}); err != nil {
		t.Fatal(err)
	}
	if got := stats.Fallback(); got != 1 {
		t.Fatalf("Fallback = %d, want 1 (TLS conns cannot be polled)", got)
	}
	if got := stats.Polled(); got != 0 {
		t.Fatalf("Polled = %d, want 0", got)
	}
}

// Every connection must open with the codecMagic preamble. One that opens
// with anything else is closed without a reply, on both the polled and the
// fallback path, and nothing it sent reaches the backend. The gob stream —
// a gob-encoded register request followed by four bytes of garbage — is
// what a gob-speaking client would send; the wrong-version stream is a
// well-formed register frame behind a preamble for a codec version this
// server does not speak.
func TestServeRejectsConnectionWithoutPreamble(t *testing.T) {
	serverConf, clientConf, err := SelfSignedTLS()
	if err != nil {
		t.Fatal(err)
	}
	var gobStream bytes.Buffer
	if err := gob.NewEncoder(&gobStream).Encode(&request{Op: "register"}); err != nil {
		t.Fatal(err)
	}
	gobStream.Write([]byte{0xde, 0xad, 0xbe, 0xef})
	wrongVersion := []byte{codecMagic[0], codecMagic[1], codecMagic[2], codecMagic[3] + 1}
	frame, err := appendRequest(beginFrame(nil), &request{Op: "register"})
	if err != nil {
		t.Fatal(err)
	}
	if err := finishFrame(frame, 0); err != nil {
		t.Fatal(err)
	}
	streams := []struct {
		name  string
		bytes []byte
	}{
		{"gob", gobStream.Bytes()},
		{"wrong-version", append(wrongVersion, frame...)},
	}
	for _, path := range []struct {
		name   string
		useTLS bool
	}{{"polled", false}, {"fallback-tls", true}} {
		for _, stream := range streams {
			t.Run(path.name+"/"+stream.name, func(t *testing.T) {
				lis, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				defer lis.Close()
				stats := &ServeStats{}
				backend := newFakeBackend()
				served := lis
				if path.useTLS {
					served = tls.NewListener(lis, serverConf)
				}
				go ServeWith(served, backend, ServeConfig{Stats: stats})

				conn, err := net.Dial("tcp", lis.Addr().String())
				if err != nil {
					t.Fatal(err)
				}
				if path.useTLS {
					conn = tls.Client(conn, clientConf)
				}
				defer conn.Close()
				conn.SetDeadline(time.Now().Add(10 * time.Second))

				if _, err := conn.Write(stream.bytes); err != nil {
					t.Fatal(err)
				}
				n, err := conn.Read(make([]byte, 256))
				if n != 0 || err == nil {
					t.Fatalf("server replied with %d bytes (err %v); want the connection closed unanswered", n, err)
				}
				if ne, ok := err.(net.Error); ok && ne.Timeout() {
					t.Fatal("server neither replied nor closed the connection")
				}

				backend.mu.Lock()
				registered := len(backend.groups)
				backend.mu.Unlock()
				if registered != 0 {
					t.Fatalf("backend saw %d RegisterGroup calls, want 0", registered)
				}
				if got := stats.Requests(); got != 0 {
					t.Fatalf("Requests = %d, want 0", got)
				}
				if path.useTLS {
					if got := stats.Fallback(); got != 1 {
						t.Fatalf("Fallback = %d, want 1", got)
					}
				} else if runtime.GOOS == "linux" {
					if got := stats.Polled(); got != 1 {
						t.Fatalf("Polled = %d, want 1", got)
					}
				}
			})
		}
	}
}
