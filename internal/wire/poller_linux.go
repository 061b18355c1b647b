//go:build linux

package wire

import (
	"errors"
	"sync"
	"syscall"
)

// connPoller wraps one epoll descriptor. Registrations are keyed by a
// monotonically increasing token (carried in the epoll event's user data),
// not by file descriptor: a stale event for a closed-and-reused descriptor
// misses the token lookup and is ignored instead of waking the wrong
// connection.
//
// Events are level-triggered with EPOLLONESHOT: a connection fires at most
// once per arm, so exactly one worker owns it until serveReady re-arms via
// EPOLL_CTL_MOD — and level triggering means bytes that arrived between the
// drain check and the re-arm fire immediately.
type connPoller struct {
	epfd   int
	wakeR  int // pipe read end, registered as token 0, to interrupt wait()
	wakeW  int
	mu     sync.Mutex
	conns  map[uint32]*polledConn
	next   uint32
	closed bool
}

const pollerEvents = uint32(syscall.EPOLLIN) | uint32(syscall.EPOLLRDHUP) | uint32(syscall.EPOLLONESHOT)

func newConnPoller() (*connPoller, error) {
	epfd, err := syscall.EpollCreate1(syscall.EPOLL_CLOEXEC)
	if err != nil {
		return nil, err
	}
	var pipe [2]int
	if err := syscall.Pipe2(pipe[:], syscall.O_CLOEXEC|syscall.O_NONBLOCK); err != nil {
		syscall.Close(epfd)
		return nil, err
	}
	p := &connPoller{epfd: epfd, wakeR: pipe[0], wakeW: pipe[1], conns: make(map[uint32]*polledConn)}
	ev := syscall.EpollEvent{Events: uint32(syscall.EPOLLIN), Fd: 0}
	if err := syscall.EpollCtl(epfd, syscall.EPOLL_CTL_ADD, p.wakeR, &ev); err != nil {
		syscall.Close(p.wakeW)
		p.release()
		return nil, err
	}
	return p, nil
}

// add registers a connection (token 0 is reserved for the wake pipe).
func (p *connPoller) add(pc *polledConn) error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return errors.New("wire: poller closed")
	}
	p.next++
	token := p.next
	pc.token = token
	p.conns[token] = pc
	p.mu.Unlock()
	ev := syscall.EpollEvent{Events: pollerEvents, Fd: int32(token)}
	if err := syscall.EpollCtl(p.epfd, syscall.EPOLL_CTL_ADD, int(pc.fd), &ev); err != nil {
		p.mu.Lock()
		delete(p.conns, token)
		p.mu.Unlock()
		return err
	}
	return nil
}

// rearm re-enables a one-shot registration after a worker drained the
// connection.
func (p *connPoller) rearm(pc *polledConn) error {
	ev := syscall.EpollEvent{Events: pollerEvents, Fd: int32(pc.token)}
	return syscall.EpollCtl(p.epfd, syscall.EPOLL_CTL_MOD, int(pc.fd), &ev)
}

// remove deregisters a connection. Call before closing the descriptor.
func (p *connPoller) remove(pc *polledConn) {
	p.mu.Lock()
	delete(p.conns, pc.token)
	p.mu.Unlock()
	syscall.EpollCtl(p.epfd, syscall.EPOLL_CTL_DEL, int(pc.fd), nil)
}

// wait blocks for readiness events and resolves them to live connections.
// It returns an error once the poller is closed.
func (p *connPoller) wait() ([]*polledConn, error) {
	events := make([]syscall.EpollEvent, 128)
	for {
		n, err := syscall.EpollWait(p.epfd, events, -1)
		if err == syscall.EINTR {
			continue
		}
		if err != nil {
			return nil, err
		}
		var ready []*polledConn
		for i := 0; i < n; i++ {
			token := uint32(events[i].Fd)
			if token == 0 { // wake pipe: closing
				return nil, errors.New("wire: poller closed")
			}
			p.mu.Lock()
			pc := p.conns[token]
			p.mu.Unlock()
			if pc != nil {
				ready = append(ready, pc)
			}
		}
		if len(ready) > 0 {
			return ready, nil
		}
	}
}

// close marks the poller closed and wakes wait(). It closes only the write
// end of the wake pipe: the goroutine blocked in wait() owns the read end and
// the epoll descriptor and releases them itself once it has seen the wake.
// Closing them here would race the wake byte — when the close won,
// epoll_wait never returned and the dispatch goroutine leaked with
// everything it references.
func (p *connPoller) close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	p.mu.Unlock()
	syscall.Write(p.wakeW, []byte{1})
	syscall.Close(p.wakeW)
}

// release closes the descriptors wait() blocks on. Only the goroutine that
// calls wait() may call it, after its last wait().
func (p *connPoller) release() {
	syscall.Close(p.wakeR)
	syscall.Close(p.epfd)
}
