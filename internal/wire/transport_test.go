package wire

import (
	"bytes"
	"crypto/tls"
	"net"
	"sync"
	"testing"

	"repro/internal/metrics"
	"repro/internal/version"
)

// fakeBackend is a minimal in-memory Backend for transport tests.
type fakeBackend struct {
	mu      sync.Mutex
	nextID  uint32
	files   map[string][]byte
	vers    map[string]version.ID
	outbox  map[uint32][]*Batch
	groups  map[uint32]uint32
	pushed  []*Batch
	pushErr string
}

func newFakeBackend() *fakeBackend {
	return &fakeBackend{
		files:  make(map[string][]byte),
		vers:   make(map[string]version.ID),
		outbox: make(map[uint32][]*Batch),
		groups: make(map[uint32]uint32),
	}
}

func (f *fakeBackend) RegisterGroup(group uint32) uint32 {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.nextID++
	f.groups[f.nextID] = group
	return f.nextID
}

func (f *fakeBackend) Attach(client uint32) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if client > f.nextID {
		f.nextID = client
	}
}

func (f *fakeBackend) Push(from uint32, b *Batch) *PushReply {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.pushed = append(f.pushed, b)
	for _, n := range b.Nodes {
		if n.Kind == NFull {
			f.files[n.Path] = append([]byte(nil), n.Full...)
			f.vers[n.Path] = n.Ver
		}
	}
	return &PushReply{Statuses: make([]ApplyStatus, len(b.Nodes)), Err: f.pushErr}
}

func (f *fakeBackend) Fetch(path string) *FetchReply {
	f.mu.Lock()
	defer f.mu.Unlock()
	c, ok := f.files[path]
	return &FetchReply{Content: c, Ver: f.vers[path], Exists: ok}
}

func (f *fakeBackend) Head(path string) (version.ID, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	_, ok := f.files[path]
	return f.vers[path], ok
}

func (f *fakeBackend) FetchRange(path string, off, n int64) ([]byte, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	c := f.files[path]
	if off >= int64(len(c)) {
		return nil, nil
	}
	end := off + n
	if end > int64(len(c)) {
		end = int64(len(c))
	}
	return c[off:end], nil
}

func (f *fakeBackend) Poll(client uint32) []*Batch {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := f.outbox[client]
	f.outbox[client] = nil
	return out
}

// PushEncoded/PollEncoded adapt the legacy-shaped fake to the encoded
// Backend interface the transport dispatches into.
func (f *fakeBackend) PushEncoded(from uint32, eb *EncodedBatch) *PushReply {
	return f.Push(from, eb.Batch())
}

func (f *fakeBackend) PollEncoded(client uint32) []*EncodedBatch {
	bs := f.Poll(client)
	if bs == nil {
		return nil
	}
	out := make([]*EncodedBatch, len(bs))
	for i, b := range bs {
		out[i] = NewEncodedBatch(b)
	}
	return out
}

func startServer(t *testing.T, backend Backend) (addr string, stop func()) {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go Serve(lis, backend)
	return lis.Addr().String(), func() { lis.Close() }
}

func TestTransportAllOps(t *testing.T) {
	backend := newFakeBackend()
	addr, stop := startServer(t, backend)
	defer stop()

	meter := metrics.NewCPUMeter(metrics.PC)
	traffic := &metrics.TrafficMeter{}
	c, err := Dial(addr, nil, meter, traffic)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	id, err := c.Register()
	if err != nil || id == 0 {
		t.Fatalf("Register = %d, %v", id, err)
	}

	// Push a full-file node and read it back through every read op.
	content := []byte("transported content, long enough to range over")
	rep, err := c.Push(&Batch{Nodes: []*Node{{
		Kind: NFull, Path: "f", Full: content, Ver: version.ID{Client: id, Count: 1},
	}}})
	if err != nil || len(rep.Statuses) != 1 {
		t.Fatalf("Push = %+v, %v", rep, err)
	}

	fr, err := c.Fetch("f")
	if err != nil || !fr.Exists || !bytes.Equal(fr.Content, content) {
		t.Fatalf("Fetch = %+v, %v", fr, err)
	}
	if fr2, err := c.Fetch("missing"); err != nil || fr2.Exists {
		t.Fatalf("Fetch(missing) = %+v, %v", fr2, err)
	}

	v, exists, err := c.Head("f")
	if err != nil || !exists || v != (version.ID{Client: id, Count: 1}) {
		t.Fatalf("Head = %v, %v, %v", v, exists, err)
	}
	if _, exists, err := c.Head("missing"); err != nil || exists {
		t.Fatalf("Head(missing) exists=%v err=%v", exists, err)
	}

	part, err := c.FetchRange("f", 12, 7)
	if err != nil || !bytes.Equal(part, content[12:19]) {
		t.Fatalf("FetchRange = %q, %v", part, err)
	}

	batches, err := c.Poll()
	if err != nil || len(batches) != 0 {
		t.Fatalf("Poll = %v, %v", batches, err)
	}

	if traffic.Uploaded() == 0 || traffic.Downloaded() == 0 {
		t.Fatal("traffic meters uncharged")
	}
}

func TestTransportPollDeliversForwarded(t *testing.T) {
	backend := newFakeBackend()
	addr, stop := startServer(t, backend)
	defer stop()

	c, err := Dial(addr, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	id, _ := c.Register()

	backend.mu.Lock()
	backend.outbox[id] = []*Batch{{Client: 99, Nodes: []*Node{{Kind: NCreate, Path: "fwd"}}}}
	backend.mu.Unlock()

	batches, err := c.Poll()
	if err != nil || len(batches) != 1 || batches[0].Nodes[0].Path != "fwd" {
		t.Fatalf("Poll = %+v, %v", batches, err)
	}
	// Drained.
	batches, err = c.Poll()
	if err != nil || len(batches) != 0 {
		t.Fatalf("second Poll = %+v, %v", batches, err)
	}
}

func TestTransportConcurrentClients(t *testing.T) {
	backend := newFakeBackend()
	addr, stop := startServer(t, backend)
	defer stop()

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := Dial(addr, nil, nil, nil)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for j := 0; j < 20; j++ {
				if _, err := c.Push(&Batch{Nodes: []*Node{{Kind: NFull,
					Path: "f", Full: []byte{byte(i), byte(j)}}}}); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	backend.mu.Lock()
	defer backend.mu.Unlock()
	if len(backend.pushed) != 80 {
		t.Fatalf("backend saw %d pushes, want 80", len(backend.pushed))
	}
}

func TestDialFailure(t *testing.T) {
	if _, err := Dial("127.0.0.1:1", nil, nil, nil); err == nil {
		t.Fatal("Dial to a closed port succeeded")
	}
}

// closeRecorder records whether the conn it wraps was closed.
type closeRecorder struct {
	net.Conn
	closed bool
}

func (c *closeRecorder) Close() error {
	c.closed = true
	return c.Conn.Close()
}

// A session that fails to establish must not leak its connection: the
// preamble write (plaintext) or the TLS handshake fails against a peer that
// already hung up, and handshake closes the conn it was given.
func TestHandshakeFailureClosesConn(t *testing.T) {
	_, clientConf, err := SelfSignedTLS()
	if err != nil {
		t.Fatal(err)
	}
	for name, o := range map[string]DialOpts{"preamble": {}, "tls": {TLS: clientConf}} {
		near, far := net.Pipe()
		far.Close()
		conn := &closeRecorder{Conn: near}
		if _, err := handshake(conn, "pipe", o); err == nil {
			t.Fatalf("%s: handshake with a closed peer succeeded", name)
		}
		if !conn.closed {
			t.Fatalf("%s: failed handshake left the connection open", name)
		}
	}
}

func TestTransportOverTLS(t *testing.T) {
	serverConf, clientConf, err := SelfSignedTLS()
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	backend := newFakeBackend()
	go Serve(tls.NewListener(lis, serverConf), backend)

	c, err := Dial(lis.Addr().String(), clientConf, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Fetch("x"); err != nil {
		t.Fatal(err)
	}
}
