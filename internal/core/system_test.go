package core

import (
	"errors"
	"testing"

	"repro/internal/cluster"
	"repro/internal/proclet"
	"repro/internal/sim"
)

// TestSystemBuildAllocs: building a fleet costs a constant number of heap
// objects per system and a few per memory proclet. Machines and their
// fabric nodes come in one slab each with their names in one string, every
// machine's completion timer shares one callback, and the proclet runtime
// serves invocations with one registration a fabric, so 125 more machines
// cost almost nothing (one allocation a machine would be 125); every
// memory proclet shares one method table, so a store costs its proclet,
// its MemoryProclet and its scheduler record.
func TestSystemBuildAllocs(t *testing.T) {
	shapes := func(n int) []cluster.MachineConfig {
		ms := make([]cluster.MachineConfig, n)
		for i := range ms {
			ms[i] = cluster.MachineConfig{Cores: 4, MemBytes: 64 << 20}
		}
		return ms
	}
	build := func(ms []cluster.MachineConfig) float64 {
		return testing.AllocsPerRun(10, func() {
			sys := NewSystem(DefaultConfig(), ms)
			sys.Start()
			sys.Close()
		})
	}
	small, large := build(shapes(125)), build(shapes(250))
	if large-small > 16 {
		t.Errorf("a 250-machine system costs %.0f allocations, a 125-machine one %.0f: %.1f a machine, want a constant",
			large, small, (large-small)/125)
	}

	sys := NewSystem(DefaultConfig(), shapes(4))
	defer sys.Close()
	next := 0
	per := testing.AllocsPerRun(200, func() {
		next++
		if _, err := NewMemoryProcletOn(sys, "store", cluster.MachineID(next%4)); err != nil {
			t.Fatal(err)
		}
	})
	if per > 6 {
		t.Errorf("a memory proclet costs %.1f allocations, want at most 6", per)
	}
}

// TestMemoryProcletOwnMethodStaysOwn: memory proclets share one method
// table, and a method one of them registers goes to a copy of its own —
// the store beside it, and one built after, still answer ErrNoMethod,
// and all three still serve the shared methods.
func TestMemoryProcletOwnMethodStaysOwn(t *testing.T) {
	sys := NewSystem(DefaultConfig(), []cluster.MachineConfig{
		{Cores: 4, MemBytes: 1 << 30}, {Cores: 4, MemBytes: 1 << 30},
	})
	defer sys.Close()
	a, err := NewMemoryProcletOn(sys, "a", 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewMemoryProcletOn(sys, "b", 1)
	if err != nil {
		t.Fatal(err)
	}
	a.pr.Handle("extra", func(*proclet.Ctx, proclet.Msg) (proclet.Msg, error) { return proclet.Msg{Word: 7}, nil })
	c, err := NewMemoryProcletOn(sys, "c", 1)
	if err != nil {
		t.Fatal(err)
	}
	sys.K.Spawn("client", func(p *sim.Proc) {
		if res, err := sys.Runtime.Invoke(p, 1, 0, a.ID(), "extra", proclet.Msg{}); err != nil || res.Word != 7 {
			t.Errorf("extra on a = %d, %v; want 7, nil", res.Word, err)
		}
		for _, mp := range []*MemoryProclet{b, c} {
			if _, err := sys.Runtime.Invoke(p, 0, 0, mp.ID(), "extra", proclet.Msg{}); !errors.Is(err, proclet.ErrNoMethod) {
				t.Errorf("extra on %s: err = %v, want ErrNoMethod", mp.pr.Name(), err)
			}
		}
		for i, mp := range []*MemoryProclet{a, b, c} {
			if err := mp.PutInt(p, 0, 1, int64(i), 8); err != nil {
				t.Fatalf("put to %s: %v", mp.pr.Name(), err)
			}
			if v, err := mp.Get(p, 1, 1); err != nil || v != int64(i) {
				t.Errorf("get from %s = %v, %v; want %d", mp.pr.Name(), v, err, i)
			}
		}
	})
	sys.K.Run()
}
