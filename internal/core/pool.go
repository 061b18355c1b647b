package core

import "runtime"

// deltaPool runs triggered delta encodings off the engine's operation path.
//
// The split mirrors what the serial code did at each trigger site: every
// queue, version-map and stats decision stays exactly where it was — on the
// engine thread, at the intercept or pack sequence point — and only the pure
// rsync encode (private snapshots in, *rsync.Delta out) moves to a worker.
// Each job carries a commit closure that the engine thread runs at a join
// point to splice the finished delta back in. Joins happen at two places:
//
//   - joinPath, at the top of every mutating file operation, so at most one
//     job per path is ever in flight and no operation observes a path whose
//     deferred commit is outstanding;
//   - joinAll, in Tick and Drain before the queue releases upload batches,
//     so a reserved delta node is always filled before it can ship.
//
// Workers are bounded by a semaphore; dispatch itself never blocks (each job
// gets a goroutine that waits for a slot), so a burst of large encodes queues
// up behind the pool instead of stalling intercept-path enqueues.
type deltaPool struct {
	sem  chan struct{}
	jobs []*deltaJob // dispatch order; commits replay in this order
}

type deltaJob struct {
	path    string
	done    chan struct{}
	compute func()
	commit  func()
}

// newDeltaPool returns a pool of GOMAXPROCS workers. The pool changes
// wall-clock behaviour only: every queue/version decision still happens at
// the serial algorithm's sequence points, so reported traffic and CPU ticks
// are identical to a fully serial engine.
func newDeltaPool() *deltaPool {
	return &deltaPool{sem: make(chan struct{}, runtime.GOMAXPROCS(0))}
}

// dispatch schedules compute on a pool worker and registers commit to run on
// the engine thread at the next join covering path. compute must touch only
// data private to the job (snapshots, the atomic meter); commit may touch
// engine state freely.
func (p *deltaPool) dispatch(path string, compute, commit func()) {
	j := &deltaJob{path: path, done: make(chan struct{}), compute: compute, commit: commit}
	p.jobs = append(p.jobs, j)
	go func() {
		p.sem <- struct{}{}
		defer func() { <-p.sem }()
		defer close(j.done)
		j.compute()
	}()
}

// joinPath waits out and commits every in-flight job for path, in dispatch
// order. Engine thread only.
func (p *deltaPool) joinPath(path string) {
	if len(p.jobs) == 0 {
		return
	}
	kept := p.jobs[:0]
	for _, j := range p.jobs {
		if j.path == path {
			<-j.done
			j.commit()
		} else {
			kept = append(kept, j)
		}
	}
	// Drop the tail references so committed jobs can be collected.
	for i := len(kept); i < len(p.jobs); i++ {
		p.jobs[i] = nil
	}
	p.jobs = kept
}

// joinAll waits out and commits every in-flight job, in dispatch order.
// Engine thread only.
func (p *deltaPool) joinAll() {
	for _, j := range p.jobs {
		<-j.done
		j.commit()
	}
	p.jobs = p.jobs[:0]
}

// inFlight reports the number of dispatched-but-uncommitted jobs (tests).
func (p *deltaPool) inFlight() int { return len(p.jobs) }
