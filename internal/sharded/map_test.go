package sharded

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/sim"
)

func TestMapPutGetDelete(t *testing.T) {
	s := testSys(t)
	m, err := NewMap[string, int](s, "map", smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	s.K.Spawn("driver", func(p *sim.Proc) {
		if err := m.Put(p, 0, "alpha", 1, 100); err != nil {
			t.Fatalf("Put: %v", err)
		}
		if err := m.Put(p, 0, "beta", 2, 100); err != nil {
			t.Fatalf("Put: %v", err)
		}
		if m.Len() != 2 {
			t.Errorf("Len = %d, want 2", m.Len())
		}
		got, err := m.Get(p, 0, "alpha")
		if err != nil || got != 1 {
			t.Errorf("Get(alpha) = %d, %v", got, err)
		}
		// Replace does not change count.
		m.Put(p, 0, "alpha", 10, 100)
		if m.Len() != 2 {
			t.Errorf("Len after replace = %d", m.Len())
		}
		got, _ = m.Get(p, 0, "alpha")
		if got != 10 {
			t.Errorf("Get after replace = %d", got)
		}
		if _, err := m.Get(p, 0, "gamma"); !errors.Is(err, ErrNotFound) {
			t.Errorf("Get(missing) = %v, want ErrNotFound", err)
		}
		if err := m.Delete(p, 0, "alpha"); err != nil {
			t.Fatalf("Delete: %v", err)
		}
		if m.Len() != 1 {
			t.Errorf("Len after delete = %d", m.Len())
		}
		if _, err := m.Get(p, 0, "alpha"); !errors.Is(err, ErrNotFound) {
			t.Errorf("Get(deleted) = %v", err)
		}
		// Deleting an absent key is a no-op.
		if err := m.Delete(p, 0, "nope"); err != nil {
			t.Errorf("Delete(missing): %v", err)
		}
		if m.Len() != 1 {
			t.Errorf("Len changed on no-op delete: %d", m.Len())
		}
	})
	s.K.Run()
}

func TestMapGetBatch(t *testing.T) {
	s := testSys(t)
	m, err := NewMap[int, int](s, "map", Options{MaxShardBytes: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	s.K.Spawn("driver", func(p *sim.Proc) {
		for i := 0; i < 200; i++ {
			if err := m.Put(p, 0, i, i*10, 1<<9); err != nil {
				t.Fatalf("Put(%d): %v", i, err)
			}
		}
		if m.NumShards() < 2 {
			t.Fatalf("want a multi-shard map, got %d shards", m.NumShards())
		}
		// A batch spanning every shard, with present, absent, and
		// duplicate keys.
		keys := []int{0, 7, 999, 42, 199, 7, -5}
		vals, found, err := m.GetBatch(p, 0, keys)
		if err != nil {
			t.Fatalf("GetBatch: %v", err)
		}
		for i, k := range keys {
			if k >= 0 && k < 200 {
				if !found[i] || vals[i] != k*10 {
					t.Errorf("key %d: found=%v val=%d, want %d", k, found[i], vals[i], k*10)
				}
			} else if found[i] {
				t.Errorf("absent key %d reported found", k)
			}
		}
		// Batch answers must match singleton Gets exactly.
		all := make([]int, 200)
		for i := range all {
			all[i] = i
		}
		bvals, bfound, err := m.GetBatch(p, 0, all)
		if err != nil {
			t.Fatal(err)
		}
		for i := range all {
			if !bfound[i] || bvals[i] != i*10 {
				t.Fatalf("batch key %d: found=%v val=%d", i, bfound[i], bvals[i])
			}
		}
		// Empty batch is a no-op.
		if v, f, err := m.GetBatch(p, 0, nil); err != nil || len(v) != 0 || len(f) != 0 {
			t.Errorf("empty batch: %v %v %v", v, f, err)
		}
	})
	s.K.Run()
}

func TestMapSplitsUnderLoad(t *testing.T) {
	s := testSys(t)
	m, _ := NewMap[int, []byte](s, "map", Options{MaxShardBytes: 16 << 10})
	s.K.Spawn("driver", func(p *sim.Proc) {
		for i := 0; i < 100; i++ {
			if err := m.Put(p, 0, i, nil, 1<<10); err != nil {
				t.Fatalf("Put(%d): %v", i, err)
			}
		}
		if m.NumShards() < 3 {
			t.Errorf("NumShards = %d, want >= 3", m.NumShards())
		}
		for i := 0; i < 100; i++ {
			if _, err := m.Get(p, 0, i); err != nil {
				t.Errorf("Get(%d) after splits: %v", i, err)
			}
		}
	})
	s.K.Run()
}

// TestMapDoesNotSplitOneObject: a shard over the cap that holds one
// bucket cannot be halved, so a put that leaves it there splits
// nothing, and neither does Adapt afterwards (nor does it merge).
func TestMapDoesNotSplitOneObject(t *testing.T) {
	s := testSys(t)
	m, _ := NewMap[int, []byte](s, "map", Options{MaxShardBytes: 4 << 10})
	s.K.Spawn("driver", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			if err := m.Put(p, 0, 7, nil, 50_000); err != nil {
				t.Fatalf("Put #%d: %v", i, err)
			}
		}
		if m.NumShards() != 1 || m.Splits != 0 {
			t.Errorf("after 10 puts of one key: %d shards, %d splits; want 1 and 0", m.NumShards(), m.Splits)
		}
		m.Adapt(p)
		if m.NumShards() != 1 || m.Splits != 0 || m.Merges != 0 {
			t.Errorf("after Adapt: %d shards, %d splits, %d merges; want 1, 0, 0", m.NumShards(), m.Splits, m.Merges)
		}
		if _, err := m.Get(p, 0, 7); err != nil {
			t.Errorf("Get(7): %v", err)
		}
	})
	s.K.Run()
}

func TestMapMergeAfterDeletes(t *testing.T) {
	// The paper's motivating merge case: a hash table shrunk by heavy
	// deletes re-compacts into fewer memory proclets.
	s := testSys(t)
	m, _ := NewMap[int, []byte](s, "map", Options{MaxShardBytes: 16 << 10})
	s.K.Spawn("driver", func(p *sim.Proc) {
		for i := 0; i < 100; i++ {
			m.Put(p, 0, i, nil, 1<<10)
		}
		before := m.NumShards()
		for i := 0; i < 95; i++ {
			if err := m.Delete(p, 0, i); err != nil {
				t.Fatalf("Delete(%d): %v", i, err)
			}
		}
		m.Adapt(p)
		if m.NumShards() >= before {
			t.Errorf("shards %d -> %d, want merges after deletes", before, m.NumShards())
		}
		if m.Merges == 0 {
			t.Error("no merges recorded")
		}
		for i := 95; i < 100; i++ {
			if _, err := m.Get(p, 0, i); err != nil {
				t.Errorf("survivor Get(%d): %v", i, err)
			}
		}
	})
	s.K.Run()
}

func TestMapHashCollisionsBucketed(t *testing.T) {
	// Force two distinct keys into the same shard object by checking
	// behaviour under the bucket path: same-hash keys are impossible to
	// construct reliably with FNV, so exercise replace+delete within a
	// bucket of one instead, plus a sanity check across many keys.
	s := testSys(t)
	m, _ := NewMap[string, string](s, "map", smallOpts())
	s.K.Spawn("driver", func(p *sim.Proc) {
		keys := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
		for _, k := range keys {
			m.Put(p, 0, k, "v:"+k, 50)
		}
		for _, k := range keys {
			got, err := m.Get(p, 0, k)
			if err != nil || got != "v:"+k {
				t.Errorf("Get(%s) = %q, %v", k, got, err)
			}
		}
	})
	s.K.Run()
}

// FuzzMapModel drives a Map with a tape of puts, deletes, adapt passes
// and fills against a Go map. Each op is two bytes, a code and an
// argument; the machines hold 1 MiB, so 200,000-byte fills push puts
// into ErrNoMemory, and the scheduler's relief either makes room by
// moving a proclet to the other machine or cannot. The model applies
// only the operations the Map acknowledged. After every op, Len, the Get
// of every key and the stored buckets (one entry per key) must match it.
func FuzzMapModel(f *testing.F) {
	// The ample-memory cases: puts of 256 bytes and deletes over 32 keys,
	// as random as the property this target replaced.
	rng := rand.New(rand.NewSource(1))
	for c := 0; c < 25; c++ {
		tape := make([]byte, 2*rng.Intn(120))
		for i := 0; i < len(tape); i += 2 {
			op := rng.Intn(1 << 16)
			if op%3 == 2 {
				tape[i] = mapOpDelete
			}
			tape[i+1] = byte(op % 32)
		}
		f.Add(tape)
	}
	// A 100-byte value replaced by a 50,000-byte one after five fills
	// leave the shard's machine (0) less free than the replace adds:
	// relief moves a fill to machine 1, or finds machine 1 filled too.
	grow := []byte{mapOpPut100, 7, mapOpFill, 0, mapOpFill, 0, mapOpFill, 0, mapOpFill, 0, mapOpFill, 0, mapOpPut50k, 7}
	f.Add(grow)
	f.Add(append([]byte{mapOpFill, 1, mapOpFill, 1, mapOpFill, 1, mapOpFill, 1, mapOpFill, 1}, grow...))
	f.Fuzz(func(t *testing.T, tape []byte) {
		if err := runMapModel(tape); err != nil {
			t.Fatal(err)
		}
	})
}

// The tape's op codes: code%8 picks the op, and for a put code/8%4
// picks the value's size from mapPutBytes.
const (
	mapOpPut     = 0 // and 1, 2
	mapOpDelete  = 3 // and 4
	mapOpAdapt   = 5
	mapOpFill    = 6 // and 7: a 200,000-byte store on machine arg%2
	mapOpPut100  = mapOpPut + 8*1
	mapOpPut50k  = mapOpPut + 8*3
	mapModelKeys = 32
	mapModelOps  = 256
)

var mapPutBytes = [4]int64{256, 100, 1000, 50_000}

// runMapModel plays tape against a Map and a Go map, returning the
// first divergence.
func runMapModel(tape []byte) error {
	s := core.NewSystem(core.DefaultConfig(), []cluster.MachineConfig{
		{Cores: 2, MemBytes: 1 << 20},
		{Cores: 2, MemBytes: 1 << 20},
	})
	m, err := NewMap[int, int](s, "model", Options{MaxShardBytes: 4 << 10})
	if err != nil {
		return err
	}
	var fail error
	s.K.Spawn("driver", func(p *sim.Proc) {
		model := map[int]int{}
		// Past mapModelOps, ops add run time, not reach.
		for i := 0; i+1 < min(len(tape), 2*mapModelOps) && fail == nil; i += 2 {
			code, arg := tape[i], tape[i+1]
			key := int(arg) % mapModelKeys
			switch op := code % 8; {
			case op < mapOpDelete:
				err := m.Put(p, 0, key, i, mapPutBytes[code/8%4])
				if err == nil {
					model[key] = i
				} else if !errors.Is(err, cluster.ErrNoMemory) {
					fail = fmt.Errorf("Put(%d): %w", key, err)
				}
			case op < mapOpAdapt:
				if err := m.Delete(p, 0, key); err != nil {
					fail = fmt.Errorf("Delete(%d): %w", key, err)
				}
				delete(model, key)
			case op == mapOpAdapt:
				m.Adapt(p)
			default:
				if mp, err := core.NewMemoryProcletOn(s, fmt.Sprintf("fill-%d", i), cluster.MachineID(arg%2)); err == nil {
					mp.Put(p, 0, 1, 0, 200_000) // a refused fill stays empty
				}
			}
			if fail == nil {
				fail = checkMapModel(p, m, model)
			}
			if fail != nil {
				fail = fmt.Errorf("op %d (%d, %d): %w", i/2, code, arg, fail)
			}
		}
	})
	s.K.Run()
	return fail
}

// checkMapModel holds m to model: its length, every key's Get, and one
// stored entry per key.
func checkMapModel(p *sim.Proc, m *Map[int, int], model map[int]int) error {
	if m.Len() != int64(len(model)) {
		return fmt.Errorf("Len = %d, model holds %d", m.Len(), len(model))
	}
	for k := 0; k < mapModelKeys; k++ {
		got, err := m.Get(p, 0, k)
		want, ok := model[k]
		if !ok && !errors.Is(err, ErrNotFound) {
			return fmt.Errorf("Get(%d) = %d, %v; want ErrNotFound", k, got, err)
		}
		if ok && (err != nil || got != want) {
			return fmt.Errorf("Get(%d) = %d, %v; want %d", k, got, err, want)
		}
	}
	entries := map[int]int{}
	for _, sh := range m.Shards() {
		_, vals, _, err := sh.Scan(p, 0, 0, ^uint64(0))
		if err != nil {
			return err
		}
		for _, v := range vals {
			for _, e := range v.Any().([]mapEntry[int, int]) {
				entries[e.key]++
			}
		}
	}
	for k, n := range entries {
		if n != 1 {
			return fmt.Errorf("key %d stored %d times", k, n)
		}
	}
	if len(entries) != len(model) {
		return fmt.Errorf("%d keys stored, model holds %d", len(entries), len(model))
	}
	return nil
}

func TestKeyStringStable(t *testing.T) {
	cases := []struct {
		k    any
		want string
	}{
		{"str", "str"}, {42, "42"}, {-7, "-7"}, {int64(9), "9"},
		{uint64(12345678901234567890), "12345678901234567890"},
		{uint32(0), "0"},
	}
	for _, c := range cases {
		var got string
		switch v := c.k.(type) {
		case string:
			got = keyString(v)
		case int:
			got = keyString(v)
		case int64:
			got = keyString(v)
		case uint64:
			got = keyString(v)
		case uint32:
			got = keyString(v)
		}
		if got != c.want {
			t.Errorf("keyString(%v) = %q, want %q", c.k, got, c.want)
		}
	}
	// Struct keys fall back to fmt.
	type pair struct{ A, B int }
	if keyString(pair{1, 2}) != fmt.Sprint(pair{1, 2}) {
		t.Error("struct key fallback broken")
	}
	// Routing: each key hashes to the value recorded when hashKey ran
	// hash/fnv over a hand-rolled decimal form, so no key changes shard.
	for i, c := range []struct{ got, want uint64 }{
		{hashKey(""), 0xcbf29ce484222325},
		{hashKey("str"), 0x826e83195d0d60f0},
		{hashKey("user:42"), 0x6c151ea4dcd221c2},
		{hashKey(0), 0xaf63ad4c86019caf},
		{hashKey(42), 0x7ee7e07b4b19223},
		{hashKey(-7), 0x7d01107b497db5d},
		{hashKey(int64(math.MinInt64)), 0x5cc2383abc21cb79},
		{hashKey(int32(math.MinInt32)), 0x50b2b941857248b1},
		{hashKey(int64(9)), 0xaf63b44c8601a894},
		{hashKey(uint64(math.MaxUint64)), 0xedf2a76b38fc3c54},
		{hashKey(uint32(math.MaxUint32)), 0x2d48362b84de7a22},
		{hashKey(pair{1, 2}), 0x433afdc69ac990ba},
	} {
		if c.got != c.want {
			t.Errorf("case %d: hashKey = %#x, want %#x", i, c.got, c.want)
		}
	}
}
