package core

import (
	"runtime"
	"slices"
)

// deltaPool runs triggered delta encodings off the engine's operation path.
//
// Every decision a trigger makes — which queue nodes the delta would
// replace, the version it carries, the stats — stays on the engine thread at
// the intercept or pack sequence point, and only the pure rsync encode
// (private snapshots in, *rsync.Delta out) moves to a worker. Each job
// carries a commit closure that the engine thread runs at a join point to
// substitute the finished delta for the nodes it pinned, or to let them ship
// raw. A job is registered under every name its pins touch, and joins happen
// at two places:
//
//   - joinPath, at the top of every mutating file operation, so no operation
//     observes or changes a name whose commit is outstanding;
//   - joinAll, in Tick and Drain before the queue releases upload batches,
//     so a pinned node never ships before its commit has decided.
//
// Workers are bounded by a semaphore; dispatch itself never blocks (each job
// gets a goroutine that waits for a slot), so a burst of large encodes queues
// up behind the pool instead of stalling intercept-path enqueues.
type deltaPool struct {
	sem  chan struct{}
	jobs []*deltaJob // dispatch order; commits replay in this order
}

type deltaJob struct {
	paths   []string
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
// the engine thread at the next join covering any of paths. compute must
// touch only data private to the job (snapshots, the atomic meter); commit
// may touch engine state freely.
func (p *deltaPool) dispatch(paths []string, compute, commit func()) {
	j := &deltaJob{paths: paths, done: make(chan struct{}), compute: compute, commit: commit}
	p.jobs = append(p.jobs, j)
	go func() {
		p.sem <- struct{}{}
		defer func() { <-p.sem }()
		defer close(j.done)
		j.compute()
	}()
}

// joinPath waits out and commits every in-flight job registered under path,
// in dispatch order. Engine thread only.
func (p *deltaPool) joinPath(path string) {
	if len(p.jobs) == 0 {
		return
	}
	kept := p.jobs[:0]
	for _, j := range p.jobs {
		if slices.Contains(j.paths, path) {
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
