package obs_test

// Determinism regression test for the observability layer: tracing and
// telemetry ride the deterministic kernel, so one seed must produce one
// timeline — identical span IDs in identical order, and byte-identical
// exported JSON — run after run. This mirrors the top-level
// determinism_test.go, but for the span/telemetry plane instead of the
// experiment result plane.

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sharded"
	"repro/internal/sim"
)

// tracedChurnRun executes a small churn workload — a sharded map under
// insert/delete waves plus a bursty memory co-tenant that forces
// pressure-caused migrations — with tracing and telemetry on, and
// returns its Chrome trace export plus the recorded spans.
func tracedChurnRun(t *testing.T, seed int64) (chrome []byte, spans []obs.Span) {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	sys := core.NewSystem(cfg, []cluster.MachineConfig{
		{Cores: 8, MemBytes: 64 << 20},
		{Cores: 8, MemBytes: 64 << 20},
	})
	defer sys.Close()
	sys.EnableTracing()
	sys.EnableTelemetry()
	sys.Start()

	m, err := sharded.NewMap[int, []byte](sys, "kv", sharded.Options{MaxShardBytes: 1 << 20, AutoAdapt: true})
	if err != nil {
		t.Fatal(err)
	}
	m0 := sys.Cluster.Machine(0)
	sys.K.Every(sim.Time(5*time.Millisecond), 10*time.Millisecond, func() bool {
		tenant := m0.MemFree() - (2 << 20)
		if tenant > 0 && m0.AllocMem(tenant) == nil {
			sys.K.After(4*time.Millisecond, func() { m0.FreeMem(tenant) })
		}
		return true
	})
	sys.K.Spawn("churner", func(p *sim.Proc) {
		for wave := 0; ; wave++ {
			for i := 0; i < 256; i++ {
				if err := m.Put(p, 0, wave*10000+i, nil, 8<<10); err != nil {
					return
				}
			}
			for i := 0; i < 240; i++ {
				if err := m.Delete(p, 0, wave*10000+i); err != nil {
					return
				}
			}
			p.Sleep(time.Millisecond)
		}
	})
	sys.K.RunUntil(sim.Time(40 * time.Millisecond))

	var cb bytes.Buffer
	if err := obs.WriteChromeTrace(&cb, sys.Obs, sys.Tel); err != nil {
		t.Fatal(err)
	}
	return cb.Bytes(), append([]obs.Span(nil), sys.Obs.SpansByID()...)
}

// TestTracedRunDeterministic5Seeds sweeps five seeds; each must
// reproduce itself exactly — same spans, same IDs, same order, and
// a byte-identical Chrome trace export.
func TestTracedRunDeterministic5Seeds(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		c1, s1 := tracedChurnRun(t, seed)
		c2, s2 := tracedChurnRun(t, seed)

		if len(s1) == 0 {
			t.Fatalf("seed %d: run recorded no spans", seed)
		}
		if len(s1) != len(s2) {
			t.Fatalf("seed %d: %d spans vs %d", seed, len(s1), len(s2))
		}
		for i := range s1 {
			a, b := s1[i], s2[i]
			// Attrs is a slice; compare scalar identity fields directly.
			if a.ID != b.ID || a.Parent != b.Parent || a.TraceID != b.TraceID ||
				a.Kind != b.Kind || a.Name != b.Name || a.Machine != b.Machine ||
				a.From != b.From || a.To != b.To || a.Bytes != b.Bytes ||
				a.Start != b.Start || a.End != b.End || a.Done != b.Done || a.Err != b.Err {
				t.Fatalf("seed %d: span %d diverges:\n  %+v\n  %+v", seed, i, a, b)
			}
		}
		if !bytes.Equal(c1, c2) {
			t.Errorf("seed %d: Chrome trace export not byte-identical (%d vs %d bytes)", seed, len(c1), len(c2))
		}
	}
}

// TestTracedRunsDifferAcrossSeeds is the sanity inverse: distinct seeds
// must not collapse to the same timeline (the workload is seed-driven
// through proclet placement and steal order).
func TestTracedRunsDifferAcrossSeeds(t *testing.T) {
	c1, _ := tracedChurnRun(t, 1)
	c2, _ := tracedChurnRun(t, 2)
	if bytes.Equal(c1, c2) {
		t.Skip("seeds 1 and 2 produced identical timelines (placement happened to match)")
	}
}
