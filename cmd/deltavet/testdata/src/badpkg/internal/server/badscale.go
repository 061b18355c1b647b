// Seeded violations of the scale-path invariants: copy-on-write publication
// and resource release. The driver integration test asserts atomicsafe and
// leakcheck each catch their bug here.
package server

import (
	"net"
	"sync/atomic"
)

type memberSet struct {
	members map[uint32]string
}

// Registry mirrors the server's lock-free sharing gate: readers Load the
// current memberSet with no lock, so a published set must never be touched.
type Registry struct {
	cur atomic.Pointer[memberSet]
}

// BadPublishThenMutate stores the fresh set and THEN inserts the member:
// a reader between the Store and the insert sees a torn membership map, and
// the map write races the lock-free readers.
func (r *Registry) BadPublishThenMutate(id uint32, name string) {
	next := &memberSet{members: make(map[uint32]string)}
	r.cur.Store(next)
	next.members[id] = name
}

// BadLoadMutate edits the shared snapshot in place instead of copying.
func (r *Registry) BadLoadMutate(id uint32) {
	cur := r.cur.Load()
	delete(cur.members, id)
}

// BadDialLeak drops the connection on the timeout-config path: under load
// every pass through that branch burns an fd.
func BadDialLeak(addr string, useDeadline bool) error {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	if useDeadline {
		return nil // leaks c
	}
	return c.Close()
}

// BadForeverWorker spawns a goroutine nothing can stop.
func BadForeverWorker(work chan int) {
	go func() {
		for {
			<-work
		}
	}()
}
