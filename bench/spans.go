package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// Layers a span can belong to. A span's self time is charged to its layer.
const (
	layerCore    = "core"    // driver-side: one engine call (op, tick, peer tick)
	layerVFS     = "vfs"     // a call on the vfs.FS under core.Config.Backing
	layerWire    = "wire"    // a client round trip on the wire.Endpoint
	layerServer  = "server"  // a wire.Backend call inside the server
	layerJournal = "journal" // file IO of the server push journal
	layerKV      = "kvstore" // file IO of the client checksum store
)

// span is one timed call at a seam. Parent is the span that caused it: for a
// call made by an engine, the engine call it was made in; for a server-side
// span, the client round trip that carried the request; for journal IO, the
// push being served. Times are nanoseconds since the tracer started.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // 0 = none: a driver call, or background work
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Client uint32 `json:"client,omitempty"`
	Seq    uint64 `json:"seq,omitempty"` // batch Seq for pushes, op index for ops
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Bytes  int64  `json:"bytes,omitempty"`

	prev int32 // the span this one displaced as innermost, restored when it ends
}

// tracer collects spans in memory. A nil *tracer is the untraced run.
//
// Parents are found without goroutine identity (parsing runtime.Stack costs
// 3–14 µs a call, more than most of what is measured). Everything one client
// does happens on one goroutine at a time — the engine serialises its work
// and each connection carries one request at a time — so the innermost open
// span per client is enough on the client side, and it is also the parent of
// the server-side span its request causes.
type tracer struct {
	t0 time.Time
	// on gates recording to the measured region: set-up and the oracle go
	// through the same wrappers and must leave no spans.
	on atomic.Bool

	mu    sync.Mutex
	spans []span
	cur   [maxClients]int32 // innermost open client-side span, by client ID
	// lastRPC is the parent for Backend calls that do not name their client
	// (Fetch, Head, FetchRange); srvOpen is the innermost open server-side
	// span, the parent of journal IO done while serving.
	lastRPC, srvOpen int32
}

// maxClients bounds the client IDs a tracer keeps apart. The server hands out
// IDs from 1, the engine workloads dial two clients and small_push four;
// stack.dial refuses an ID that would share a slot.
const maxClients = 8

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)}
}

// add appends a span; the caller holds t.mu.
func (t *tracer) add(parent, prev int32, layer, name string, client uint32, seq uint64) int32 {
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Layer: layer, Name: name,
		Client: client, Seq: seq, Start: int64(time.Since(t.t0)), prev: prev})
	return id
}

// beginClient opens a span on a client's side, under that client's innermost
// open span.
func (t *tracer) beginClient(layer, name string, client uint32, seq uint64) int32 {
	t.mu.Lock()
	slot := &t.cur[client]
	id := t.add(*slot, *slot, layer, name, client, seq)
	*slot = id
	if layer == layerWire {
		t.lastRPC = id
	}
	t.mu.Unlock()
	return id
}

// endClient closes a span opened with beginClient and returns its duration.
func (t *tracer) endClient(id int32, bytes int64) time.Duration {
	t.mu.Lock()
	s := &t.spans[id-1]
	s.End, s.Bytes = int64(time.Since(t.t0)), bytes
	t.cur[s.Client] = s.prev
	d := s.End - s.Start
	t.mu.Unlock()
	return time.Duration(d)
}

// beginServer opens a server-side span under the round trip of the client it
// serves (client 0: the last round trip begun).
func (t *tracer) beginServer(name string, client uint32, seq uint64) int32 {
	t.mu.Lock()
	parent := t.lastRPC
	if client != 0 {
		parent = t.cur[client]
	}
	id := t.add(parent, t.srvOpen, layerServer, name, client, seq)
	t.srvOpen = id
	t.mu.Unlock()
	return id
}

func (t *tracer) endServer(id int32, bytes int64) {
	t.mu.Lock()
	s := &t.spans[id-1]
	s.End, s.Bytes = int64(time.Since(t.t0)), bytes
	if t.srvOpen == id {
		// Two requests can be served at once; fall back to the displaced
		// one only if it is still open.
		t.srvOpen = 0
		if s.prev != 0 && t.spans[s.prev-1].End == 0 {
			t.srvOpen = s.prev
		}
	}
	t.mu.Unlock()
}

// beginIO opens a file-IO span. inServer says the call was made while
// serving a request (its parent is the open server span); otherwise it is
// the client's own IO, or — client 0 — background work with no parent.
func (t *tracer) beginIO(layer, name string, client uint32, inServer bool) int32 {
	t.mu.Lock()
	var parent int32
	switch {
	case inServer:
		parent = t.srvOpen
	case client != 0:
		parent = t.cur[client]
	}
	id := t.add(parent, 0, layer, name, client, 0)
	t.mu.Unlock()
	return id
}

func (t *tracer) endIO(id int32, bytes int64) {
	t.mu.Lock()
	s := &t.spans[id-1]
	s.End, s.Bytes = int64(time.Since(t.t0)), bytes
	t.mu.Unlock()
}

// layerTimes sums, per layer, the self time of every span that has a parent
// chain up to a driver call: duration minus the part its children cover.
// Background spans (no parent, not a driver call) run beside the measured
// path and are summed separately.
type layerTimes struct {
	self       map[string]float64 // layer → seconds on the measured path
	background map[string]float64 // layer → seconds off it
	byName     map[string]float64 // "layer.name" → total seconds (not self)
	calls      map[string]int     // "layer.name" → spans
	selfByName map[string]float64 // "layer.name" → self seconds on the measured path
	topLevel   float64            // seconds covered by root spans of the measured path
	pushUS     []float64          // client-observed Push round trips (wire.push spans)
	srvPushUS  []float64          // Backend.PushEncoded calls (server.push spans)
}

func (t *tracer) layerTimes() layerTimes {
	t.mu.Lock()
	defer t.mu.Unlock()
	lt := layerTimes{self: map[string]float64{}, background: map[string]float64{},
		byName: map[string]float64{}, calls: map[string]int{}, selfByName: map[string]float64{}}
	child := make([]int64, len(t.spans)+1) // time covered by children
	for i := range t.spans {
		s := &t.spans[i]
		if s.End == 0 {
			s.End = s.Start // still open when recording stopped: no time charged
		}
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	// A span is on the measured path when its root is a driver call. Spans
	// are appended in begin order, so a parent always precedes its children.
	onPath := make([]bool, len(t.spans)+1)
	for i := range t.spans {
		s := &t.spans[i]
		key := s.Layer + "." + s.Name
		dur := float64(s.End-s.Start) / 1e9
		lt.byName[key] += dur
		lt.calls[key]++
		switch key {
		case "wire.push":
			lt.pushUS = append(lt.pushUS, dur*1e6)
		case "server.push":
			lt.srvPushUS = append(lt.srvPushUS, dur*1e6)
		}
		root := s.Parent == 0
		onPath[s.ID] = (root && (s.Layer == layerCore || s.Layer == layerWire)) || (!root && onPath[s.Parent])
		if !onPath[s.ID] {
			lt.background[s.Layer] += dur
			continue
		}
		if root {
			lt.topLevel += dur
		}
		self := float64(s.End-s.Start-child[s.ID]) / 1e9
		if self < 0 {
			self = 0 // children on other goroutines overlapped each other
		}
		lt.self[s.Layer] += self
		lt.selfByName[key] += self
	}
	return lt
}
