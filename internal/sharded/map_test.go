package sharded

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"

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

// Property: a sharded map behaves exactly like a Go map under an
// arbitrary sequence of puts and deletes, including across splits.
func TestMapMatchesModelProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		s := testSys(t)
		m, err := NewMap[int, int](s, "model", Options{MaxShardBytes: 4 << 10})
		if err != nil {
			return false
		}
		model := map[int]int{}
		okAll := true
		s.K.Spawn("driver", func(p *sim.Proc) {
			for _, op := range ops {
				key := int(op % 32)
				switch {
				case op%3 == 2:
					m.Delete(p, 0, key)
					delete(model, key)
				default:
					val := int(op)
					if err := m.Put(p, 0, key, val, 256); err != nil {
						okAll = false
						return
					}
					model[key] = val
				}
			}
			if int(m.Len()) != len(model) {
				okAll = false
				return
			}
			for k, want := range model {
				got, err := m.Get(p, 0, k)
				if err != nil || got != want {
					okAll = false
					return
				}
			}
		})
		s.K.Run()
		return okAll
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
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
}
