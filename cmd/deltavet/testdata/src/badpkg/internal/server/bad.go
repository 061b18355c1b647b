// Package server is the deltavet integration fixture: one package that
// violates every invariant the driver checks. Its path ends in
// internal/server so the suffix-scoped analyzers treat it like the real
// server package. It lives under testdata so wildcard builds skip it, but it
// must stay compilable — the driver type-checks it for real.
package server

import (
	"sync"

	"repro/internal/kvstore"
)

type Server struct {
	mu sync.Mutex
	ch chan string
	kv *kvstore.Store
}

// BadSendUnderLock violates blockunderlock: a channel send while s.mu is
// held via the deferred unlock.
func (s *Server) BadSendUnderLock(v string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ch <- v
}

// BadDropError violates errsync: a WAL write with its error discarded.
func (s *Server) BadDropError() {
	_ = s.kv.Put([]byte("k"), nil)
}

// AllowedDropError is the same violation with an inline allow; the
// integration test asserts the driver suppresses it.
func (s *Server) AllowedDropError() {
	_ = s.kv.Put([]byte("k"), nil) //deltavet:allow errsync best-effort write, the next commit retries
}
