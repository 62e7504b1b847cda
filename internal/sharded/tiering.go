package sharded

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Memory tiering — the paper's §5 storage-class direction: "fast flash
// disks are increasingly used as slow cheap memory". A Vector created
// with Options.Spill set can hold datasets larger than cluster RAM:
// when memory runs out, the coldest shard's contents move to the flat
// storage tier and its memory proclet is destroyed; touching a spilled
// range faults the shard back in (evicting another cold shard if RAM
// is still tight).

// ErrNoTier is returned when a spill is required but no storage tier
// was configured.
var ErrNoTier = errors.New("sharded: dataset exceeds memory and no spill tier is configured")

// spillPayload is what a spilled shard stores in the flat tier.
type spillPayload struct {
	ids   []uint64
	vals  []core.Value
	sizes []int64
}

// touch stamps a shard's last access time (the spill policy's signal).
func (v *Vector[T]) touch(s int) {
	v.shards[s].lastAccess = v.sys.K.Now()
}

// ensureResident faults the shard covering element i back into memory
// if it is spilled. It serializes with other restructures via adaptMu.
func (v *Vector[T]) ensureResident(p *sim.Proc, i uint64) error {
	for attempt := 0; attempt < 64; attempt++ {
		s := v.shardIdx(i)
		if !v.shards[s].spilled {
			return nil
		}
		if !v.adaptMu.TryLock() {
			p.Sleep(100 * time.Microsecond) // another restructure is running
			continue
		}
		// Recheck under the lock; the index may have shifted.
		s = v.shardIdx(i)
		var err error
		if v.shards[s].spilled {
			err = v.faultShard(p, s)
		}
		v.adaptMu.Unlock()
		if err != nil {
			return err
		}
	}
	return fmt.Errorf("sharded: element %d not faultable after retries", i)
}

// spillKey names a shard's object in the storage tier.
func (v *Vector[T]) spillKey(lo uint64) string {
	return fmt.Sprintf("%s/shard@%d", v.name, lo)
}

// spillShard moves shard s's contents to the storage tier and destroys
// its memory proclet. Caller holds adaptMu. The tail shard (the append
// target) never spills.
func (v *Vector[T]) spillShard(p *sim.Proc, s int) error {
	if v.opts.Spill == nil {
		return ErrNoTier
	}
	if s == len(v.shards)-1 || v.shards[s].spilled {
		return fmt.Errorf("sharded: shard %d not spillable", s)
	}
	lo, hi := v.shards[s].lo, v.hiOf(s)
	gateHi := hi
	v.gate.open(lo, gateHi)
	defer v.gate.close()
	mp := v.shards[s].mp
	v.ops.drain(p, mp.ID())

	home := mp.Location()
	ids, vals, sizes, err := mp.Scan(p, home, lo+1, hi+1)
	if err != nil {
		return err
	}
	var bytes int64
	for _, b := range sizes {
		bytes += b
	}
	key := v.spillKey(lo)
	if err := v.opts.Spill.Write(p, home, key, &spillPayload{ids: ids, vals: vals, sizes: sizes}, bytes); err != nil {
		return err
	}
	mp.Destroy()
	v.shards[s].mp = nil
	v.shards[s].spilled = true
	v.shards[s].spillBytes = bytes
	v.Spills++
	v.publishIndex(p)
	v.sys.Trace.Emitf(v.sys.K.Now(), obs.KindMigrate, v.name, int(home), -1,
		"spilled shard [%d,%d) %d bytes to %s", lo, hi, bytes, v.opts.Spill.Name())
	return nil
}

// faultShard brings a spilled shard back into memory, evicting other
// cold shards if RAM is tight. Caller holds adaptMu.
func (v *Vector[T]) faultShard(p *sim.Proc, s int) error {
	lo, hi := v.shards[s].lo, v.hiOf(s)
	v.gate.open(lo, hi)
	defer v.gate.close()

	need := v.shards[s].spillBytes + v.shards[s].spillBytes/8 + 4096
	machine, err := v.placeWithEviction(p, s, need)
	if err != nil {
		return err
	}
	mp, err := core.NewMemoryProcletOn(v.sys, fmt.Sprintf("%s.shard-f%d", v.name, v.nextShard), machine)
	if err != nil {
		return err
	}
	v.nextShard++
	key := v.spillKey(lo)
	raw, err := v.opts.Spill.Read(p, mp.Location(), key)
	if err != nil {
		mp.Destroy()
		return err
	}
	pl := raw.(*spillPayload)
	if err := mp.PutBatch(p, mp.Location(), &core.Batch{IDs: pl.ids, Vals: pl.vals, Sizes: pl.sizes}); err != nil {
		mp.Destroy()
		return err
	}
	if err := v.opts.Spill.Delete(p, mp.Location(), key); err != nil {
		return err
	}
	v.shards[s].mp = mp
	v.shards[s].spilled = false
	v.shards[s].spillBytes = 0
	v.touch(s)
	v.Faults++
	v.publishIndex(p)
	v.sys.Trace.Emitf(v.sys.K.Now(), obs.KindMigrate, v.name, -1, int(machine),
		"faulted shard [%d,%d) back from %s", lo, hi, v.opts.Spill.Name())
	return nil
}

// placeWithEviction finds a machine with `need` free bytes, spilling
// the coldest resident shards (other than `keep`) until one exists.
func (v *Vector[T]) placeWithEviction(p *sim.Proc, keep int, need int64) (cluster.MachineID, error) {
	for round := 0; round < len(v.shards)+1; round++ {
		if m, err := v.sys.Sched.PlaceMemory(need); err == nil {
			return m, nil
		}
		// Try the scheduler's evacuation path first.
		for _, m := range v.sys.Cluster.Machines() {
			if v.sys.Sched.FreeUpMemory(p, m.ID, need) {
				return m.ID, nil
			}
		}
		// Spill the coldest resident shard.
		coldest := -1
		for s := range v.shards {
			if s == keep || s == len(v.shards)-1 || v.shards[s].spilled || v.shards[s].mp == nil {
				continue
			}
			if coldest == -1 || v.shards[s].lastAccess < v.shards[coldest].lastAccess {
				coldest = s
			}
		}
		if coldest == -1 {
			break
		}
		if err := v.spillShard(p, coldest); err != nil {
			return 0, err
		}
	}
	return 0, fmt.Errorf("%w: need %d bytes", core.ErrNoCapacity, need)
}
