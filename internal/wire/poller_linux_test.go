//go:build linux

package wire

import (
	"net"
	"os"
	"runtime"
	"testing"
	"time"
)

func openFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Fatal(err)
	}
	return len(ents)
}

// Regression: connPoller.close used to write the wake byte and close the
// wake pipe and the epoll descriptor in the same breath. When the close won,
// the dispatch goroutine stayed in epoll_wait for good, pinning an OS thread,
// the serve state and the backend behind it. Serve, connect and shut down
// many times: goroutines and descriptors must come back.
func TestServeShutdownLeaksNothing(t *testing.T) {
	const rounds = 500
	const slack = 8
	goroutines, fds := runtime.NumGoroutine(), openFDs(t)

	for i := 0; i < rounds; i++ {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		served := make(chan error, 1)
		go func() { served <- ServeWith(lis, newFakeBackend(), ServeConfig{}) }()
		c, err := DialWith(lis.Addr().String(), DialOpts{OpTimeout: time.Minute})
		if err != nil {
			t.Fatalf("round %d: dial: %v", i, err)
		}
		if _, err := c.Push(&Batch{Nodes: []*Node{{Kind: NFull, Path: "f", Full: []byte{1}}}}); err != nil {
			t.Fatalf("round %d: push: %v", i, err)
		}
		c.Close()
		lis.Close()
		if err := <-served; err != nil {
			t.Fatalf("round %d: serve: %v", i, err)
		}
	}

	// The pool stops once the last connection has drained, which the server
	// notices a moment after the client's close.
	deadline := time.Now().Add(10 * time.Second)
	for {
		g, f := runtime.NumGoroutine(), openFDs(t)
		if g <= goroutines+slack && f <= fds+slack {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("after %d serve/shutdown rounds: %d goroutines (started with %d), %d open descriptors (started with %d)",
				rounds, g, goroutines, f, fds)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
