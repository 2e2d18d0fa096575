package sim

import (
	"runtime"
	"time"

	"sinrconn/internal/faults"
)

// stage identifies the work a dispatched worker round performs.
type stage uint8

const (
	stageStep stage = iota + 1
	stageDecode
	// stageFarAccum folds the slot's pyramid shards: worker k takes shards
	// k, k+w, k+2w, … — every shard runs exactly once, on some worker, and
	// shard writes are disjoint, so any assignment yields the same pyramid.
	stageFarAccum
	// stageDecodeFarBatch decodes the slot's listeners (farVs, in batch
	// order) through shared frontiers, chunked contiguously per worker.
	stageDecodeFarBatch
)

// job is one unit of pool work: run a stage of engine e over this worker's
// static shard. The two-word struct travels by value on the command
// channels, so dispatching allocates nothing.
type job struct {
	e  *Engine
	st stage
}

// Pool is a persistent set of worker goroutines that execute engine stages.
// Unlike the per-engine pool it replaced, a Pool is not tied to any one
// Engine: each job carries the engine it belongs to, and completion is
// signaled on that engine's private WaitGroup — so a session-scoped Pool
// (one per sinrconn.Network) can be shared by every engine the session
// creates, including engines running concurrently from a batch sweep.
// Workers live until Close.
type Pool struct {
	cmd []chan job
}

// NewPool spawns a pool of the given number of workers (0 means
// runtime.NumCPU()).
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	p := &Pool{cmd: make([]chan job, workers)}
	for k := range p.cmd {
		p.cmd[k] = make(chan job, 1)
		go p.work(k)
	}
	return p
}

// Workers returns the pool's worker count.
func (p *Pool) Workers() int { return len(p.cmd) }

// work is one worker's loop: receive a job, process this worker's static
// shard of the job engine's live nodes, signal that engine's WaitGroup.
// Terminates when the command channel closes.
func (p *Pool) work(k int) {
	w := len(p.cmd)
	for j := range p.cmd[k] {
		e := j.e
		// Fault site pool.worker.stall: delay this worker's share of the
		// stage. The stage barrier (stageWG) still waits for every shard,
		// so a stall reorders nothing — it only stretches the slot.
		if e.cfg.Injector != nil {
			if act, ok := e.cfg.Injector.Fire(faults.PoolWorkerStall); ok {
				time.Sleep(act.Delay)
			}
		}
		switch j.st {
		case stageStep:
			lo, hi := chunkRange(len(e.live), w, k)
			e.stepRange(lo, hi)
		case stageDecode:
			lo, hi := chunkRange(len(e.lis), w, k)
			e.decodeRange(lo, hi, &e.shards[k])
		case stageFarAccum:
			nsh := e.farShard.AccumShards()
			for s := k; s < nsh; s += w {
				e.farShard.AccumShard(s, e.txs)
			}
		case stageDecodeFarBatch:
			lo, hi := chunkRange(len(e.farVs), w, k)
			e.decodeFarBatchRange(lo, hi, k)
		}
		e.stageWG.Done()
	}
}

// chunkRange is worker k's static contiguous share of n items split across
// w workers.
func chunkRange(n, w, k int) (lo, hi int) {
	chunk := (n + w - 1) / w
	lo = k * chunk
	hi = lo + chunk
	if lo > n {
		lo = n
	}
	if hi > n {
		hi = n
	}
	return lo, hi
}

// dispatch runs one stage of engine e across all workers and waits for
// completion. Safe for concurrent use by different engines: each engine
// waits only on its own WaitGroup, and jobs from concurrent dispatches
// interleave freely on the command channels.
func (p *Pool) dispatch(e *Engine, st stage) {
	e.stageWG.Add(len(p.cmd))
	for _, c := range p.cmd {
		c <- job{e: e, st: st}
	}
	e.stageWG.Wait()
}

// Close releases the pool's goroutines. Engines using the pool must not be
// stepped afterwards. Close is not idempotent; callers own the lifecycle
// (sinrconn.Network guards it with its own once).
func (p *Pool) Close() {
	for _, c := range p.cmd {
		close(c)
	}
}
