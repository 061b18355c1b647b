package server

import (
	"repro/internal/metrics"
	"repro/internal/version"
	"repro/internal/wire"
)

// Loopback is an in-process wire.Endpoint bound directly to a Server. The
// paper-table experiments (internal/experiment), the baselines and most
// tests use it: no sockets, but identical message-size accounting to the
// network transport (both charge wire.WireSize), so traffic numbers are
// byte-for-byte comparable while CPU measurements stay free of kernel noise.
// The wall-clock benchmark (bench/) dials TCP instead.
type Loopback struct {
	s       *Server
	id      uint32
	meter   *metrics.CPUMeter     // client-side CPU
	traffic *metrics.TrafficMeter // client-side traffic
}

// requestSize approximates the framing of a small request message.
const requestSize = 64

// NewLoopback registers a new client on s and returns its endpoint. meter
// and traffic account the client side (either may be nil).
func NewLoopback(s *Server, meter *metrics.CPUMeter, traffic *metrics.TrafficMeter) *Loopback {
	return &Loopback{s: s, id: s.Register(), meter: meter, traffic: traffic}
}

// Register implements wire.Endpoint.
func (l *Loopback) Register() (uint32, error) { return l.id, nil }

// Push implements wire.Endpoint.
func (l *Loopback) Push(b *wire.Batch) (*wire.PushReply, error) {
	b.Client = l.id
	size := b.WireSize()
	l.meter.RPC(1)
	l.meter.Net(size)
	l.traffic.Upload(size)
	r := l.s.Push(l.id, b)
	l.meter.Net(r.WireSize())
	l.traffic.Download(r.WireSize())
	return r, nil
}

// Fetch implements wire.Endpoint.
func (l *Loopback) Fetch(path string) (*wire.FetchReply, error) {
	l.meter.RPC(1)
	l.traffic.Upload(requestSize + int64(len(path)))
	r := l.s.Fetch(path)
	l.meter.Net(r.WireSize())
	l.traffic.Download(r.WireSize())
	return r, nil
}

// Head implements wire.Endpoint.
func (l *Loopback) Head(path string) (version.ID, bool, error) {
	l.meter.RPC(1)
	l.traffic.Upload(requestSize + int64(len(path)))
	v, ok := l.s.Head(path)
	l.traffic.Download(32)
	return v, ok, nil
}

// FetchRange implements wire.Endpoint.
func (l *Loopback) FetchRange(path string, off, n int64) ([]byte, error) {
	l.meter.RPC(1)
	l.traffic.Upload(requestSize + int64(len(path)))
	data, err := l.s.FetchRange(path, off, n)
	if err != nil {
		return nil, err
	}
	l.meter.Net(int64(len(data)) + 32)
	l.traffic.Download(int64(len(data)) + 32)
	return data, nil
}

// Poll implements wire.Endpoint.
func (l *Loopback) Poll() ([]*wire.Batch, error) {
	l.meter.RPC(1)
	l.traffic.Upload(requestSize)
	batches := l.s.Poll(l.id)
	var size int64 = 16
	for _, b := range batches {
		size += b.WireSize()
	}
	l.meter.Net(size)
	l.traffic.Download(size)
	return batches, nil
}

// Close implements wire.Endpoint.
func (l *Loopback) Close() error { return nil }

var _ wire.Endpoint = (*Loopback)(nil)
