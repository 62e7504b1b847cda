package fleet

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/load"
	"repro/internal/sim"
)

// Shard is the lifecycle every partitioned run shares: stores and their
// ledger placed together, an injector feeding the serving queue, the
// s<s>-setup process that preloads and then injects, the workers, and
// the s<s>-verify process that marks the shard drained once they
// return; Err says after the run which step never finished. A shard is
// written only in its own context and read host-side after the run.
type Shard struct {
	Tally
	Sys     *core.System
	Stores  []*core.MemoryProclet
	Ledger  *Ledger
	Queue   load.Queue
	Inj     *load.Injector
	StartNS int64 // when the preload landed and injection began; 0 until it has

	index    int
	preload  *core.Batch // what Serve preloads; nil when the shard does not serve
	setupErr error       // why the preload failed
	workers  sim.WaitGroup
	drained  bool
}

const (
	injectWindows = 125                   // the injector's batch window, in lookahead windows: 250us
	serverPoll    = 20 * time.Microsecond // how often an idle server looks at its queue
)

// The steps of a shard's lifecycle that Err reports unfinished, for
// callers that add their own advice.
var (
	ErrPreloading = errors.New("was still on the wire")
	ErrUndrained  = errors.New("did not drain")
)

// NewShard places shard s's n stores, s<s>-store-<i>, on machines 1 and
// up at replication factor rf, with their ledger of size-byte objects,
// and opens the shard's injector; machine 0 stays the shard's front end.
// Call it once the shard's system has started and, for rf >= 2, enabled
// its replication plane.
func (f *Fleet) NewShard(s, n, rf int, size int64) (*Shard, error) {
	sys := f.Shards[s]
	stores, err := PlaceStores(sys, fmt.Sprintf("s%d-store-%%d", s), n, 1, rf)
	if err != nil {
		return nil, err
	}
	sh := &Shard{Sys: sys, Stores: stores, Ledger: NewLedger(stores, size), index: s}
	sh.Inj = load.NewInjector(sys.K, time.Duration(f.PK.Lookahead())*injectWindows, sh.Queue.Push)
	return sh, nil
}

// Serve spawns s<s>-setup, which preloads every store with objs and
// then injects until the tally's Horizon, and servers s<s>-server-<i>,
// staged processes (load.Queue.Serve) that drain the queue until then in
// batches of up to batchMax: each a Server over objs' keys with
// writeFrac of them writes, handed to wrap when it is set. Register the
// injector's tenants first.
func (sh *Shard) Serve(objs *core.Batch, servers, batchMax int, writeFrac float64, wrap func(*Server) load.Handler) {
	sh.preload = objs
	sh.Sys.K.Spawn(fmt.Sprintf("s%d-setup", sh.index), func(p *sim.Proc) {
		if sh.setupErr = sh.Ledger.Preload(p, objs); sh.setupErr != nil {
			return
		}
		sh.StartNS = int64(p.Now())
		sh.Inj.Start(p.Now(), sh.Horizon)
	})
	done := sh.workers.Done
	for i := 0; i < servers; i++ {
		srv := NewServer(sh, len(objs.IDs), batchMax, writeFrac)
		var h load.Handler = srv
		if wrap != nil {
			h = wrap(srv)
		}
		sh.workers.Add(1)
		sh.Queue.Serve(sh.Sys.K, func() string { return fmt.Sprintf("s%d-server-%d", sh.index, i) },
			sh.Horizon, serverPoll, batchMax, h, done)
	}
}

// Go spawns a worker the shard waits for before it drains.
func (sh *Shard) Go(name string, fn func(p *sim.Proc)) {
	sh.workers.Add(1)
	sh.Sys.K.Spawn(name, func(p *sim.Proc) {
		defer sh.workers.Done()
		fn(p)
	})
}

// Drain spawns s<s>-verify, which waits for every worker, runs verify
// when it is set, and marks the shard drained. Spawn the workers first.
func (sh *Shard) Drain(verify func(p *sim.Proc)) {
	sh.Sys.K.Spawn(fmt.Sprintf("s%d-verify", sh.index), func(p *sim.Proc) {
		sh.workers.Wait(p)
		if verify != nil {
			verify(p)
		}
		sh.drained = true
	})
}

// Err names the shard and the first step of its lifecycle that had not
// finished when the run ended at limit: the preload failed, it was
// still on the wire (ErrPreloading), or the workers had not drained
// (ErrUndrained). nil when every step finished.
func (sh *Shard) Err(limit sim.Time) error {
	switch {
	case sh.setupErr != nil:
		return fmt.Errorf("shard %d: %w", sh.index, sh.setupErr)
	case sh.preload != nil && sh.StartNS == 0:
		return fmt.Errorf("shard %d: the preload of %d stores (%d objects of %d bytes each) %w at %v, so no request was ever generated",
			sh.index, len(sh.Stores), len(sh.preload.IDs), sh.Ledger.size, ErrPreloading, limit)
	case !sh.drained && sh.preload == nil:
		return fmt.Errorf("shard %d %w by %v", sh.index, ErrUndrained, limit)
	case !sh.drained:
		return fmt.Errorf("shard %d %w by %v (%d served of %d generated)",
			sh.index, ErrUndrained, limit, sh.Served, sh.Inj.TotalGenerated())
	}
	return nil
}
