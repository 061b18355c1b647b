//go:build !linux

package wire

import "errors"

// connPoller is unavailable on platforms without an epoll-style readiness
// interface wired up; every connection takes the fallback dedicated
// goroutine. The methods exist only to satisfy references from serve.go and
// are never reached (serveState keeps poller == nil).
type connPoller struct{}

func newConnPoller() (*connPoller, error) {
	return nil, errors.New("wire: no connection poller on this platform")
}

func (p *connPoller) add(pc *polledConn) error     { return errors.New("wire: no poller") }
func (p *connPoller) rearm(pc *polledConn) error   { return errors.New("wire: no poller") }
func (p *connPoller) remove(pc *polledConn)        {}
func (p *connPoller) wait() ([]*polledConn, error) { return nil, errors.New("wire: no poller") }
func (p *connPoller) close()                       {}
func (p *connPoller) release()                     {}
