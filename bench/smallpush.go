package main

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"math/rand"
	"sync"
	"time"

	"repro/internal/version"
	"repro/internal/wire"
)

// pusher is one raw client of small_push: no engine, just a connection that
// pushes one small full-file node at a time and polls for its peer's.
type pusher struct {
	c       *client
	paths   []string
	order   []int  // path index of each push, from the seed
	payload []byte // push i carries payload[i : i+PushPayload]
	vers    []version.ID
	last    []int // index of the last push to each path, -1 for none

	lat      []float64         // push round trips, µs
	polled   int               // batches received from the peers
	misorder int               // polled batches that broke a peer's Seq order
	nextSeq  map[uint32]uint64 // last Seq polled, by pushing client
	failed   int
	err      error
}

// runSmallPush is one repetition of small_push: PushClients connections in
// one sharing group, each a closed loop of Pushes pushes over its own
// PushPaths paths, polling after every PollEach pushes and whenever the server
// says a peer's outbox is full. work_s is the wall time until every client
// has pushed everything and drained its outbox; the loops do nothing but
// round trips, the inputs being generated beforehand.
func runSmallPush(env repEnv) (*rep, error) {
	t0 := time.Now()
	st, err := newStack(env.dir, env.tracer())
	if err != nil {
		return nil, err
	}
	sz := env.sz
	ps := make([]*pusher, sz.PushClients)
	for i := range ps {
		c, err := st.dial()
		if err != nil {
			st.close()
			return nil, err
		}
		rng := rand.New(rand.NewSource(env.seed + 4000 + int64(i)))
		p := &pusher{c: c, nextSeq: make(map[uint32]uint64),
			paths: make([]string, sz.PushPaths), order: make([]int, sz.Pushes),
			payload: make([]byte, sz.Pushes+sz.PushPayload),
			vers:    make([]version.ID, sz.PushPaths), last: make([]int, sz.PushPaths),
			lat: make([]float64, 0, sz.Pushes)}
		for j := range p.paths {
			p.paths[j] = fmt.Sprintf("c%d/f%04d", i, j)
			p.last[j] = -1
		}
		for j := range p.order {
			p.order[j] = rng.Intn(sz.PushPaths)
		}
		rng.Read(p.payload)
		ps[i] = p
	}
	r := &rep{setupS: time.Since(t0).Seconds()}
	if env.setupOnly {
		return r, st.close()
	}

	m := st.beginMeasure()
	start := time.Now()
	var wg sync.WaitGroup
	for _, p := range ps {
		wg.Add(1)
		go func(p *pusher) {
			defer wg.Done()
			p.pushAll(sz)
		}(p)
	}
	wg.Wait()
	// Everyone has pushed everything; one more poll each drains the outboxes.
	for _, p := range ps {
		p.poll()
	}
	r.workS = time.Since(start).Seconds()
	u := st.endMeasure(m)
	r.cpuS, r.allocMB, r.stealS = u.cpu.Seconds(), float64(u.alloc)/1e6, u.steal.Seconds()

	var wireBytes int64
	for i, p := range ps {
		if p.err != nil {
			st.close()
			return nil, fmt.Errorf("client %d: %w", i, p.err)
		}
		r.opUS = append(r.opUS, p.lat...)
		r.pushUS = append(r.pushUS, p.lat...)
		r.attempted += len(p.lat)
		r.failed += p.failed
		wireBytes += p.c.traffic.Uploaded() + p.c.traffic.Downloaded()
	}
	payload := float64(len(ps) * sz.Pushes * sz.PushPayload)
	r.tue = float64(wireBytes) / payload

	r.problems, r.digest = smallPushOracle(st, ps, sz)
	r.failed += len(r.problems)

	L := map[string]float64{}
	r.layer = L
	if lt := st.stackCounts(L, float64(len(ps)*sz.Pushes), payload, payload); lt != nil {
		r.srvPushUS = lt.srvPushUS
		r.spans = st.t.spans
	}
	if err := st.close(); err != nil {
		return nil, err
	}
	return r, nil
}

func (p *pusher) pushAll(sz sizes) {
	ctr := version.NewCounter(p.c.id)
	for i, pi := range p.order {
		n := &wire.Node{Kind: wire.NFull, Path: p.paths[pi], Base: p.vers[pi], Ver: ctr.Next(),
			Full: p.payload[i : i+sz.PushPayload]}
		b := &wire.Batch{Seq: uint64(i + 1), Nodes: []*wire.Node{n}}
		t0 := time.Now()
		reply, err := p.c.ep.Push(b)
		p.lat = append(p.lat, float64(time.Since(t0))/1e3)
		if err != nil {
			p.err = err
			return
		}
		if reply.Err != "" || reply.Statuses[0] != wire.StatusOK {
			p.failed++
		}
		p.vers[pi], p.last[pi] = n.Ver, i
		if reply.Throttled || i%sz.PollEach == sz.PollEach-1 {
			if p.poll(); p.err != nil {
				return
			}
		}
	}
}

// poll fetches the batches the peers pushed and checks that each peer's
// arrive in its Seq order with none missing.
func (p *pusher) poll() {
	if p.err != nil {
		return
	}
	batches, err := p.c.ep.Poll()
	if err != nil {
		p.err = err
		return
	}
	for _, b := range batches {
		if b.Seq != p.nextSeq[b.Client]+1 {
			p.misorder++
		}
		p.nextSeq[b.Client] = b.Seq
		p.polled++
	}
}

// smallPushOracle fetches every pushed path back and compares it with the
// last payload pushed there, and checks that each client polled exactly the
// other's pushes, in order. It also returns the CRC-32 of what it fetched.
func smallPushOracle(st *stack, ps []*pusher, sz sizes) ([]string, uint32) {
	var bad []string
	var digest uint32
	for i, p := range ps {
		if want := (len(ps) - 1) * sz.Pushes; p.polled != want || p.misorder != 0 {
			bad = append(bad, fmt.Sprintf("client %d polled %d of its peers' %d pushes, %d out of order",
				i, p.polled, want, p.misorder))
		}
		mismatches := 0
		for j, path := range p.paths {
			if p.last[j] < 0 {
				continue
			}
			fr, err := p.c.conn.Fetch(path)
			if err != nil {
				return append(bad, fmt.Sprintf("client %d: fetch %s: %v", i, path, err)), digest
			}
			digest = crc32.Update(digest, crc32.IEEETable, fr.Content)
			want := p.payload[p.last[j] : p.last[j]+sz.PushPayload]
			if !fr.Exists || fr.Ver != p.vers[j] || !bytes.Equal(fr.Content, want) {
				mismatches++
			}
		}
		if mismatches > 0 {
			bad = append(bad, fmt.Sprintf("client %d: %d paths read back wrong", i, mismatches))
		}
	}
	return append(bad, st.serverProblems()...), digest
}
