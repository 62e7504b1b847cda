package core

import (
	"errors"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/proclet"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// Memory-proclet method names (the runtime-level RPC surface behind
// distributed pointers and sharded structures).
const (
	methodMemGet      = "mem.get"
	methodMemGetBatch = "mem.getbatch"
	methodMemPut      = "mem.put"
	methodMemDel      = "mem.del"
	methodMemScan     = "mem.scan"
	methodMemPutBatch = "mem.putbatch"
	methodMemDelRange = "mem.delrange"
	methodMemTake     = "mem.take"
	methodMemUpdate   = "mem.update"
)

// ObjectOverheadBytes is the accounting overhead per stored object
// (allocator metadata, index entry).
const ObjectOverheadBytes = 64

// ErrNoObject is returned when dereferencing a dangling pointer.
var ErrNoObject = errors.New("core: no such object")

// MemoryProclet is a resource proclet specialized for memory: it stores
// in-memory objects and exposes NewPtr-style distributed pointers for
// access from anywhere in the cluster (§3.1). Its compute footprint is
// negligible — data operations cost network transfer, not CPU — so the
// scheduler places and migrates it purely by memory availability.
//
// Unreplicated, every method serves on the inline fast-dispatch path:
// none of them blocks, so remote operations are served at the instant
// the request is delivered — no handler process, no process switch.
// A replicated primary (rs != nil) keeps reads inline but declines
// mutating fast dispatches to their staged registrations, which ship log
// records to the backups before acking (replication.go).
type MemoryProclet struct {
	sys     *System
	pr      *proclet.Proclet
	objs    objTable
	nextObj uint64

	// rs is the replica set when this proclet is a replicated primary.
	rs *replicaSet
	// recs is where a replicated primary's mutators build their log
	// records. One buffer serves every write because it is filled and
	// copied into the pipe by the write's first step, within one event.
	recs []repRecord
	// isBackup marks a backup replica: it serves only mem.replapply
	// traffic from its primary and is excluded from generic recovery.
	isBackup bool
}

// displaced is what one put overwrote.
type displaced struct {
	old     objEntry
	existed bool
}

// intArg carries mem.put's value when it is a scalar: the id rides in the
// message's Word and the size in its Bytes, which leaves a scalar value no
// inline place (a reference value is the Payload itself). Cells are
// recycled on the System. One is reachable only through the invocation's
// envelope, so it is free when Invoke returns, as the envelope is.
type intArg struct{ n int64 }

func (s *System) getIntArg(n int64) *intArg {
	if last := len(s.intArgs) - 1; last >= 0 {
		c := s.intArgs[last]
		s.intArgs = s.intArgs[:last]
		c.n = n
		return c
	}
	return &intArg{n: n}
}

func (s *System) putIntArg(c *intArg) { s.intArgs = append(s.intArgs, c) }

// scanReq asks for all objects with id in [lo, hi).
type scanReq struct {
	lo, hi uint64
}

// Batch is a set of objects moving into or out of a memory proclet in
// one invocation: PutBatch stores it and GetBatch fills the one its
// caller passes. The caller owns the slices. A caller that reads in a
// loop keeps one Batch and passes it to every GetBatch, which then
// allocates nothing once the slices have grown; a caller that holds on
// to results across calls passes a fresh Batch each time. A Batch must
// not be reused while a call it was passed to is outstanding.
type Batch struct {
	IDs   []uint64
	Vals  []Value
	Sizes []int64

	// want is the request half of a GetBatch: the IDs asked for, which
	// the handler answers into the exported slices. StartGetBatch sets it
	// and nothing clears it: only the handler of a call in flight reads it,
	// and a retried attempt must find it again.
	want []uint64
}

// totalBytes sums the batch's payload bytes.
func (b *Batch) totalBytes() int64 {
	var sum int64
	for _, n := range b.Sizes {
		sum += n
	}
	return sum
}

// add appends one object.
func (b *Batch) add(id uint64, e objEntry) {
	b.IDs = append(b.IDs, id)
	b.Vals = append(b.Vals, e.val)
	b.Sizes = append(b.Sizes, e.bytes)
}

// NewMemoryProclet creates a memory proclet on an explicit machine.
// Most callers use the scheduler-driven System.NewMemoryProclet.
func NewMemoryProcletOn(sys *System, name string, m cluster.MachineID) (*MemoryProclet, error) {
	pr, err := sys.Runtime.Spawn(name, m, 0)
	if err != nil {
		return nil, err
	}
	mp := &MemoryProclet{sys: sys, pr: pr}
	pr.Data = mp
	mp.registerMethods()
	mp.registerMutators()
	sys.Sched.register(pr, KindMemory)
	return mp, nil
}

// NewMemoryProclet creates a memory proclet, letting the scheduler pick
// the machine with the most free memory.
func (s *System) NewMemoryProclet(name string, expectedBytes int64) (*MemoryProclet, error) {
	m, err := s.Sched.PlaceMemory(expectedBytes)
	if err != nil {
		return nil, err
	}
	return NewMemoryProcletOn(s, name, m)
}

// gate refuses service while ownership is unproven: a replicated
// primary serves only under a valid lease, so a primary partitioned
// from the monitor fails fast (retryably) instead of serving reads a
// promoted backup may already contradict. Unreplicated proclets pay a
// single nil check.
func (mp *MemoryProclet) gate() error {
	rs := mp.rs
	if rs == nil {
		return nil
	}
	mid := mp.pr.Location()
	if !rs.rm.leaseValid(mid) {
		return fmt.Errorf("%w: %s lease lapsed on m%d", proclet.ErrUnavailable, mp.pr.Name(), mid)
	}
	return nil
}

// applyFn applies one mutating operation to local state and returns the
// log records describing its effect, in mp.recs. Records are built only
// when the proclet is a replicated primary; the unreplicated fast path
// allocates nothing.
type applyFn func(arg proclet.Msg) (proclet.Msg, []repRecord, error)

// handleMutator registers a mutating method over one evaluation of the
// apply method value: inline unreplicated, and on a replicated primary as
// a staged write (replWrite), which ships log records before it acks.
func (mp *MemoryProclet) handleMutator(method string, apply applyFn) {
	mp.pr.HandleStaged(method, func(arg proclet.Msg) (proclet.Msg, error) {
		if mp.rs != nil {
			return proclet.Msg{}, simnet.ErrWouldBlock
		}
		res, _, err := apply(arg)
		return res, err
	}, func(arg proclet.Msg) proclet.Staged { return mp.sys.getWrite(mp, apply, arg) })
}

func (mp *MemoryProclet) registerMethods() {
	mp.pr.HandleFast(methodMemGet, func(arg proclet.Msg) (proclet.Msg, error) {
		if err := mp.gate(); err != nil {
			return proclet.Msg{}, err
		}
		e, ok := mp.objs.get(arg.Word)
		if !ok {
			return proclet.Msg{}, fmt.Errorf("%w: obj %d in %s", ErrNoObject, arg.Word, mp.pr.Name())
		}
		return e.msg(), nil
	})
	mp.pr.HandleFast(methodMemGetBatch, func(arg proclet.Msg) (proclet.Msg, error) {
		// Read-only and non-blocking, so like mem.get it serves on the
		// inline fast path even on a replicated primary. Absent IDs are
		// skipped: the response lists what was found.
		if err := mp.gate(); err != nil {
			return proclet.Msg{}, err
		}
		b := arg.Payload.(*Batch)
		b.IDs, b.Vals, b.Sizes = b.IDs[:0], b.Vals[:0], b.Sizes[:0]
		for _, id := range b.want {
			if e, ok := mp.objs.get(id); ok {
				b.add(id, e)
			}
		}
		return proclet.Msg{Payload: b, Bytes: b.totalBytes()}, nil
	})
	mp.pr.HandleFast(methodMemScan, func(arg proclet.Msg) (proclet.Msg, error) {
		if err := mp.gate(); err != nil {
			return proclet.Msg{}, err
		}
		r := arg.Payload.(*scanReq)
		ids := mp.idsInRange(r.lo, r.hi)
		res := &Batch{IDs: make([]uint64, 0, len(ids)), Vals: make([]Value, 0, len(ids)), Sizes: make([]int64, 0, len(ids))}
		for _, id := range ids {
			e, _ := mp.objs.get(id)
			res.add(id, e)
		}
		return proclet.Msg{Payload: res, Bytes: res.totalBytes()}, nil
	})
	mp.pr.HandleFast(methodMemReplApply, func(arg proclet.Msg) (proclet.Msg, error) {
		// Backup side of log shipping: apply a record batch. Records are
		// absolute effects, so reapplying after a retried ship is
		// idempotent. A heap-growth failure leaves this backup stale and
		// errors the ship; the primary drops and replaces it.
		r := arg.Payload.(*replApplyReq)
		mp.objs.reserve(mp.objs.len() + len(r.recs))
		for _, rec := range r.recs {
			if rec.del {
				if e, ok := mp.objs.del(rec.id); ok {
					if err := mp.pr.GrowHeap(-(e.bytes + ObjectOverheadBytes)); err != nil {
						return proclet.Msg{}, err
					}
				}
				continue
			}
			if err := mp.store(rec.id, objEntry{val: rec.val, bytes: rec.bytes}); err != nil {
				return proclet.Msg{}, err
			}
			if rec.id > mp.nextObj {
				mp.nextObj = rec.id
			}
		}
		return proclet.Msg{}, nil
	})
}

// record returns the one log record of a single-object mutation, in
// mp.recs; nothing when the proclet is not a replicated primary.
func (mp *MemoryProclet) record(r repRecord) []repRecord {
	if mp.rs == nil {
		return nil
	}
	mp.recs = append(mp.recs[:0], r)
	return mp.recs
}

// msg is the reply that carries the object: a Value crosses the wire as
// its two halves, the reference in Payload and the scalar in Word.
func (e objEntry) msg() proclet.Msg {
	return proclet.Msg{Payload: e.val.ref, Word: uint64(e.val.n), Bytes: e.bytes}
}

// msgValue is the Value a reply built by objEntry.msg carries.
func msgValue(m proclet.Msg) Value { return Value{ref: m.Payload, n: int64(m.Word)} }

// store puts e under id, one probe whether or not the id is new, and
// charges the heap for the difference. If the machine refuses, the table
// is put back as it was.
func (mp *MemoryProclet) store(id uint64, e objEntry) error {
	old, existed := mp.objs.put(id, e)
	delta := e.bytes - old.bytes
	if !existed {
		delta += ObjectOverheadBytes
	}
	if err := mp.pr.GrowHeap(delta); err != nil {
		mp.unstore(id, displaced{old, existed})
		return err
	}
	return nil
}

// unstore undoes one put.
func (mp *MemoryProclet) unstore(id uint64, d displaced) {
	if d.existed {
		mp.objs.put(id, d.old)
	} else {
		mp.objs.del(id)
	}
}

func (mp *MemoryProclet) applyPut(arg proclet.Msg) (proclet.Msg, []repRecord, error) {
	// The id is the message's Word and the size its Bytes. The value is
	// the Payload itself, unless that is an intArg holding a scalar.
	val := refTo(arg.Payload)
	if c, ok := arg.Payload.(*intArg); ok {
		val = Int(c.n)
	}
	if err := mp.store(arg.Word, objEntry{val: val, bytes: arg.Bytes}); err != nil {
		return proclet.Msg{}, nil, err
	}
	return proclet.Msg{}, mp.record(repRecord{id: arg.Word, val: val, bytes: arg.Bytes}), nil
}

func (mp *MemoryProclet) applyDel(arg proclet.Msg) (proclet.Msg, []repRecord, error) {
	id := arg.Word
	e, ok := mp.objs.del(id)
	if !ok {
		return proclet.Msg{}, nil, fmt.Errorf("%w: obj %d", ErrNoObject, id)
	}
	if err := mp.pr.GrowHeap(-(e.bytes + ObjectOverheadBytes)); err != nil {
		return proclet.Msg{}, nil, err
	}
	return proclet.Msg{}, mp.record(repRecord{id: id, del: true}), nil
}

func (mp *MemoryProclet) applyPutBatch(arg proclet.Msg) (proclet.Msg, []repRecord, error) {
	// Everything is copied out of the caller's batch, into the object
	// table and the log records, before this returns: the caller may
	// refill the batch as soon as its PutBatch does.
	//
	// One pass of puts, each remembering what it displaced, then one
	// charge for the sum: an id named twice finds its first occurrence in
	// the table, so the sum is right whatever the batch repeats. If the
	// machine refuses the charge, undoing the puts last to first leaves
	// the table holding exactly what it held.
	r := arg.Payload.(*Batch)
	mp.objs.reserve(mp.objs.len() + len(r.IDs))
	undo := mp.sys.undo[:0]
	var delta int64
	for i, id := range r.IDs {
		old, existed := mp.objs.put(id, objEntry{val: r.Vals[i], bytes: r.Sizes[i]})
		undo = append(undo, displaced{old, existed})
		delta += r.Sizes[i] - old.bytes
		if !existed {
			delta += ObjectOverheadBytes
		}
	}
	err := mp.pr.GrowHeap(delta)
	if err != nil {
		for i := len(undo) - 1; i >= 0; i-- {
			mp.unstore(r.IDs[i], undo[i])
		}
	}
	clear(undo) // pin no value
	mp.sys.undo = undo
	if err != nil {
		return proclet.Msg{}, nil, err
	}
	recs := mp.recs[:0]
	for i, id := range r.IDs {
		if id > mp.nextObj {
			mp.nextObj = id
		}
		if mp.rs != nil {
			recs = append(recs, repRecord{id: id, val: r.Vals[i], bytes: r.Sizes[i]})
		}
	}
	mp.recs = recs
	return proclet.Msg{}, recs, nil
}

func (mp *MemoryProclet) applyDelRange(arg proclet.Msg) (proclet.Msg, []repRecord, error) {
	r := arg.Payload.(*scanReq)
	var delta int64
	recs := mp.recs[:0]
	for _, id := range mp.idsInRange(r.lo, r.hi) {
		e, _ := mp.objs.del(id)
		delta -= e.bytes + ObjectOverheadBytes
		if mp.rs != nil {
			recs = append(recs, repRecord{id: id, del: true})
		}
	}
	mp.recs = recs
	if delta != 0 {
		if err := mp.pr.GrowHeap(delta); err != nil {
			return proclet.Msg{}, nil, err
		}
	}
	return proclet.Msg{}, recs, nil
}

// UpdateFn mutates one object in place, inside the memory proclet —
// compute shipped to the data. It receives the old value (if any) and
// returns the new value with its size; returning keep=false deletes the
// object instead.
type UpdateFn func(old any, exists bool) (val any, bytes int64, keep bool)

// updateReq is the wire argument of mem.update. argBytes sizes the
// closure's captured state on the wire.
type updateReq struct {
	id uint64
	fn UpdateFn
}

// registerMutators installs the mutating methods; registerMethods the
// rest.
func (mp *MemoryProclet) registerMutators() {
	mp.handleMutator(methodMemPut, mp.applyPut)
	mp.handleMutator(methodMemDel, mp.applyDel)
	mp.handleMutator(methodMemPutBatch, mp.applyPutBatch)
	mp.handleMutator(methodMemDelRange, mp.applyDelRange)
	mp.handleMutator(methodMemTake, mp.applyTake)
	mp.handleMutator(methodMemUpdate, mp.applyUpdate)
}

func (mp *MemoryProclet) applyTake(arg proclet.Msg) (proclet.Msg, []repRecord, error) {
	id := arg.Word
	e, ok := mp.objs.del(id)
	if !ok {
		return proclet.Msg{}, nil, fmt.Errorf("%w: obj %d in %s", ErrNoObject, id, mp.pr.Name())
	}
	if err := mp.pr.GrowHeap(-(e.bytes + ObjectOverheadBytes)); err != nil {
		return proclet.Msg{}, nil, err
	}
	return e.msg(), mp.record(repRecord{id: id, del: true}), nil
}

func (mp *MemoryProclet) applyUpdate(arg proclet.Msg) (proclet.Msg, []repRecord, error) {
	// The closure runs at the primary only; its resulting value — not
	// the closure — is what replicates, so backups never re-run
	// application code.
	r := arg.Payload.(*updateReq)
	old, existed := mp.objs.get(r.id)
	ret, bytes, keep := r.fn(old.val.Any(), existed)
	val := refTo(ret)
	var delta int64
	switch {
	case keep && existed:
		delta = bytes - old.bytes
	case keep:
		delta = bytes + ObjectOverheadBytes
	case existed:
		delta = -(old.bytes + ObjectOverheadBytes)
	default:
		return proclet.Msg{}, nil, nil
	}
	if err := mp.pr.GrowHeap(delta); err != nil {
		return proclet.Msg{}, nil, err
	}
	if keep {
		mp.objs.put(r.id, objEntry{val: val, bytes: bytes})
		if r.id > mp.nextObj {
			mp.nextObj = r.id
		}
		return proclet.Msg{}, mp.record(repRecord{id: r.id, val: val, bytes: bytes}), nil
	}
	mp.objs.del(r.id)
	return proclet.Msg{}, mp.record(repRecord{id: r.id, del: true}), nil
}

// Put stores val at an explicit object ID (sharded structures derive
// IDs from element indices or key hashes).
func (mp *MemoryProclet) Put(p *sim.Proc, from cluster.MachineID, id uint64, val any, bytes int64) error {
	_, err := mp.sys.Runtime.Invoke(p, from, 0, mp.ID(), methodMemPut,
		proclet.Msg{Word: id, Payload: val, Bytes: bytes})
	return err
}

// PutInt is Put for a scalar, which is stored inline: nothing is boxed
// between the caller and the object table, or the backup's.
func (mp *MemoryProclet) PutInt(p *sim.Proc, from cluster.MachineID, id uint64, val int64, bytes int64) error {
	c := mp.sys.getIntArg(val)
	_, err := mp.sys.Runtime.Invoke(p, from, 0, mp.ID(), methodMemPut,
		proclet.Msg{Word: id, Payload: c, Bytes: bytes})
	mp.sys.putIntArg(c)
	return err
}

// fetch invokes a method that takes an object id and answers with the
// object: mem.get or mem.take.
func (mp *MemoryProclet) fetch(p *sim.Proc, from cluster.MachineID, method string, id uint64) (Value, error) {
	res, err := mp.sys.Runtime.Invoke(p, from, 0, mp.ID(), method,
		proclet.Msg{Word: id, Bytes: 8})
	if err != nil {
		return Value{}, err
	}
	return msgValue(res), nil
}

// Get fetches the object with the given ID.
func (mp *MemoryProclet) Get(p *sim.Proc, from cluster.MachineID, id uint64) (any, error) {
	v, err := mp.fetch(p, from, methodMemGet, id)
	return v.Any(), err
}

// GetInt is Get for an object stored as a scalar; ok is false when the
// object is a reference.
func (mp *MemoryProclet) GetInt(p *sim.Proc, from cluster.MachineID, id uint64) (val int64, ok bool, err error) {
	v, err := mp.fetch(p, from, methodMemGet, id)
	val, ok = v.Int()
	return val, ok, err
}

// GetBatch fetches the objects with the given IDs in one invocation,
// into the caller's batch (see Batch for who reuses one and who must
// not). Absent IDs are skipped: into.IDs lists what was found, aligned
// with into.Vals and into.Sizes. One batched call costs one network
// round instead of len(ids), which is the point — open-loop serving fans
// many same-shard reads into a single RPC.
func (mp *MemoryProclet) GetBatch(p *sim.Proc, from cluster.MachineID, ids []uint64, into *Batch) error {
	_, err := mp.StartGetBatch(from, ids, into).Await(p)
	return err
}

// StartGetBatch is GetBatch as an invocation for its caller to step —
// from an Await stage, say — and end: into is filled once the invocation
// is over. GetBatch is StartGetBatch run on a process.
func (mp *MemoryProclet) StartGetBatch(from cluster.MachineID, ids []uint64, into *Batch) *proclet.Invocation {
	into.want = ids
	return mp.sys.Runtime.Begin(from, 0, mp.ID(), methodMemGetBatch,
		proclet.Msg{Payload: into, Bytes: int64(8 * len(ids))})
}

// Take atomically fetches and removes the object (queue pops).
func (mp *MemoryProclet) Take(p *sim.Proc, from cluster.MachineID, id uint64) (any, error) {
	v, err := mp.fetch(p, from, methodMemTake, id)
	return v.Any(), err
}

// Update applies fn to the object with the given ID inside the proclet,
// charging argBytes for the shipped closure state. The object is
// created, replaced, or deleted according to fn's result.
func (mp *MemoryProclet) Update(p *sim.Proc, from cluster.MachineID, id uint64, argBytes int64, fn UpdateFn) error {
	_, err := mp.sys.Runtime.Invoke(p, from, 0, mp.ID(), methodMemUpdate,
		proclet.Msg{Payload: &updateReq{id: id, fn: fn}, Bytes: argBytes})
	return err
}

// idsInRange returns the IDs of stored objects in [lo, hi), ascending, in
// the System's scratch: the caller is done with them within its event.
// It iterates the object table (not the range), so sparse ID spaces —
// hash-sharded maps — scan in O(objects).
func (mp *MemoryProclet) idsInRange(lo, hi uint64) []uint64 {
	if hi == 0 {
		return nil
	}
	mp.sys.ids = mp.objs.ids(mp.sys.ids[:0], lo, hi-1)
	return mp.sys.ids
}

// Scan reads all objects with IDs in [lo, hi) from the proclet.
func (mp *MemoryProclet) Scan(p *sim.Proc, from cluster.MachineID, lo, hi uint64) (ids []uint64, vals []Value, sizes []int64, err error) {
	res, err := mp.sys.Runtime.Invoke(p, from, 0, mp.ID(), methodMemScan,
		proclet.Msg{Payload: &scanReq{lo: lo, hi: hi}, Bytes: 16})
	if err != nil {
		return nil, nil, nil, err
	}
	r := res.Payload.(*Batch)
	return r.IDs, r.Vals, r.Sizes, nil
}

// PutBatch bulk-stores the batch's objects (loaders, shard splits, write
// fan-in). The proclet keeps the values, not the slices.
func (mp *MemoryProclet) PutBatch(p *sim.Proc, from cluster.MachineID, b *Batch) error {
	_, err := mp.StartPutBatch(from, b).Await(p)
	return err
}

// StartPutBatch is PutBatch as an invocation for its caller to step and
// end, as StartGetBatch is GetBatch. A replicated primary's write is a
// staged method, which the invocation steps like any other wait.
func (mp *MemoryProclet) StartPutBatch(from cluster.MachineID, b *Batch) *proclet.Invocation {
	return mp.sys.Runtime.Begin(from, 0, mp.ID(), methodMemPutBatch,
		proclet.Msg{Payload: b, Bytes: b.totalBytes()})
}

// DelRange bulk-deletes objects with IDs in [lo, hi).
func (mp *MemoryProclet) DelRange(p *sim.Proc, from cluster.MachineID, lo, hi uint64) error {
	_, err := mp.sys.Runtime.Invoke(p, from, 0, mp.ID(), methodMemDelRange,
		proclet.Msg{Payload: &scanReq{lo: lo, hi: hi}, Bytes: 16})
	return err
}

// ID returns the underlying proclet ID.
func (mp *MemoryProclet) ID() proclet.ID { return mp.pr.ID() }

// Location returns the hosting machine.
func (mp *MemoryProclet) Location() cluster.MachineID { return mp.pr.Location() }

// HeapBytes returns accounted state size.
func (mp *MemoryProclet) HeapBytes() int64 { return mp.pr.HeapBytes() }

// Destroy removes the proclet and its objects. Destroying a replicated
// primary tears down its backups too. A proclet that is gone or
// migrating is left as it is: Destroy returns ErrNotFound or
// ErrMigrating before touching its backups or the scheduler.
func (mp *MemoryProclet) Destroy() error {
	switch pr := mp.sys.Runtime.Lookup(mp.pr.ID()); {
	case pr == nil:
		return proclet.ErrNotFound
	case pr.State() == proclet.StateMigrating:
		return proclet.ErrMigrating
	}
	if mp.rs != nil {
		mp.rs.release()
	}
	mp.sys.Sched.unregister(mp.pr.ID())
	return mp.sys.Runtime.Destroy(mp.pr.ID())
}

// allocID reserves a fresh object ID (host-side; IDs are proclet-local).
func (mp *MemoryProclet) allocID() uint64 {
	mp.nextObj++
	return mp.nextObj
}

// Ptr is a distributed pointer to an object stored in a memory proclet
// (§3.1's NewPtr<T>). It stays valid across proclet migrations: the
// runtime re-resolves the proclet's location on every dereference.
type Ptr[T any] struct {
	sys *System
	pid proclet.ID
	obj uint64
}

// NewPtr allocates val into the memory proclet and returns a
// distributed pointer to it. p is the allocating process; from is the
// machine it runs on (invocation is routed like any other call).
func NewPtr[T any](p *sim.Proc, from cluster.MachineID, mp *MemoryProclet, val T, bytes int64) (Ptr[T], error) {
	id := mp.allocID()
	if err := mp.Put(p, from, id, val, bytes); err != nil {
		return Ptr[T]{}, err
	}
	return Ptr[T]{sys: mp.sys, pid: mp.ID(), obj: id}, nil
}

// deref fetches the object from wherever its memory proclet currently
// lives. Local access costs a function call; remote access an RPC
// carrying the object's bytes.
func (pt Ptr[T]) deref(p *sim.Proc, from cluster.MachineID) (T, error) {
	var zero T
	res, err := pt.sys.Runtime.Invoke(p, from, 0, pt.pid, methodMemGet,
		proclet.Msg{Word: pt.obj, Bytes: 8})
	if err != nil {
		return zero, err
	}
	return msgValue(res).Any().(T), nil
}

// store overwrites the object in place (same pointer, new value).
func (pt Ptr[T]) store(p *sim.Proc, from cluster.MachineID, val T, bytes int64) error {
	_, err := pt.sys.Runtime.Invoke(p, from, 0, pt.pid, methodMemPut,
		proclet.Msg{Word: pt.obj, Payload: val, Bytes: bytes})
	return err
}

// free deletes the object.
func (pt Ptr[T]) free(p *sim.Proc, from cluster.MachineID) error {
	_, err := pt.sys.Runtime.Invoke(p, from, 0, pt.pid, methodMemDel,
		proclet.Msg{Word: pt.obj, Bytes: 8})
	return err
}
