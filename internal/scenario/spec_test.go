package scenario

import (
	"strings"
	"testing"
)

// minimal is the smallest valid scenario; error-path cases below are
// perturbations of it.
const minimal = `name: mini
horizon_ms: 4
fleet:
  machines: 3
workload:
  stores: 2
  objects: 32
  tenants:
    - name: web
      rate: 50000
`

func TestParseMinimalDefaults(t *testing.T) {
	sp, err := Parse(minimal)
	if err != nil {
		t.Fatal(err)
	}
	if sp.Seed != 1 {
		t.Errorf("default seed = %d, want 1", sp.Seed)
	}
	if sp.Fleet.Shards != 1 || sp.Fleet.Cores != 4 || sp.Fleet.MemMB != 64 {
		t.Errorf("fleet defaults = %+v", sp.Fleet)
	}
	if sp.Workload.RF != 1 || sp.Workload.Servers != 4 || sp.Workload.BatchMax != 32 {
		t.Errorf("workload defaults = %+v", sp.Workload)
	}
	if sp.Workload.Tenants[0].Curve != "constant" {
		t.Errorf("default curve = %q, want constant", sp.Workload.Tenants[0].Curve)
	}
	if sp.BucketMS <= 0 || sp.DrainMS <= 0 || sp.Workload.SampleStepMS <= 0 {
		t.Errorf("derived defaults not applied: bucket=%g drain=%g step=%g",
			sp.BucketMS, sp.DrainMS, sp.Workload.SampleStepMS)
	}
	if sp.RecoveryFrac != 0.9 {
		t.Errorf("recovery_frac default = %g, want 0.9", sp.RecoveryFrac)
	}
}

// TestParseErrorPaths is the issue's required error-path matrix: every
// malformed scenario must be rejected with a precise, line-anchored
// message — never a panic, never a silent default.
func TestParseErrorPaths(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{
			"malformed yaml",
			"name: x\n\tbad: 1\n",
			"line 2: tab in indentation (use spaces)",
		},
		{
			"unknown top-level field",
			minimal + "colour: blue\n",
			`unknown top-level field "colour" (line 11)`,
		},
		{
			"unknown event kind",
			minimal + "events:\n  - at_ms: 1\n    kind: explode\n    machine: 1\n",
			`events[0]: unknown event kind "explode" (want crash, restart, partition, degrade, heal, spike, migrate, gpu_xid, gpu_throttle, gpu_heal) (line 13)`,
		},
		{
			"event missing kind",
			minimal + "events:\n  - at_ms: 1\n    machine: 1\n",
			`events[0]: missing "kind" (line 12)`,
		},
		{
			"out-of-order timestamps",
			minimal + "events:\n  - at_ms: 3\n    kind: crash\n    machine: 1\n  - at_ms: 1\n    kind: restart\n    machine: 1\n",
			"events must be in non-decreasing time order: events[1] at_ms=1 is earlier than events[0] at_ms=3 (line 15)",
		},
		{
			"event beyond horizon",
			minimal + "events:\n  - at_ms: 9\n    kind: crash\n    machine: 1\n",
			"events[0]: at_ms=9 outside the run horizon [0, 4]",
		},
		{
			"unknown assertion metric",
			minimal + "assertions:\n  - metric: happiness\n    op: \">\"\n    value: 0\n",
			`assertions[0]: unknown metric "happiness"`,
		},
		{
			"unknown assertion op",
			minimal + "assertions:\n  - metric: lost\n    op: \"~=\"\n    value: 0\n",
			`assertions[0]: unknown comparison op "~=" (want ==, !=, <, <=, >, >=)`,
		},
		{
			"assertion bound type mismatch",
			minimal + "assertions:\n  - metric: lost\n    op: ==\n    value: zero\n",
			`expected a number, got "zero" (line 14)`,
		},
		{
			"assertion missing value",
			minimal + "assertions:\n  - metric: lost\n    op: ==\n",
			`assertions[0]: missing "value" (line 12)`,
		},
		{
			"crash on front end",
			minimal + "events:\n  - at_ms: 1\n    kind: crash\n    machine: 0\n",
			"machine 0 is a shard front end (servers + failure monitor) and cannot be crashed",
		},
		{
			"crash out of range",
			minimal + "events:\n  - at_ms: 1\n    kind: crash\n    machine: 7\n",
			"events[0]: machine 7 out of range [0, 3)",
		},
		{
			"partition self link",
			minimal + "events:\n  - at_ms: 1\n    kind: partition\n    a: 1\n    b: 1\n",
			"events[0]: link endpoints must differ",
		},
		{
			"spike unknown tenant",
			minimal + "events:\n  - at_ms: 1\n    kind: spike\n    tenant: ghost\n    mult: 2\n    ramp_ms: 1\n    decay_ms: 1\n",
			`events[0]: spike targets unknown tenant "ghost"`,
		},
		{
			"migrate to front end",
			minimal + "events:\n  - at_ms: 1\n    kind: migrate\n    store: 0\n    to: 0\n",
			"machine 0 is a shard front end; stores live on machines 1..",
		},
		{
			"rf too high",
			strings.Replace(minimal, "  stores: 2\n", "  stores: 2\n  rf: 3\n", 1),
			"rf must be in [1, machines-1] (got rf=3 with 3 machines/shard)",
		},
		{
			"rebuild with rf>1",
			strings.Replace(minimal, "  stores: 2\n", "  stores: 2\n  rf: 2\n  rebuild: true\n", 1),
			"rebuild is an rf=1 fallback; at rf=2 durability must come from replication alone",
		},
		{
			"missing name",
			strings.Replace(minimal, "name: mini\n", "", 1),
			`scenario is missing "name"`,
		},
		{
			"no tenants",
			strings.Replace(minimal, "  tenants:\n    - name: web\n      rate: 50000\n", "", 1),
			"workload needs at least one tenant",
		},
		{
			"duplicate tenant",
			minimal + "    - name: web\n      rate: 1\n",
			`duplicate tenant "web"`,
		},
		{
			"unknown curve",
			strings.Replace(minimal, "      rate: 50000\n", "      rate: 50000\n      curve: sawtooth\n", 1),
			`unknown curve "sawtooth" (want constant, diurnal, ramp)`,
		},
		{
			"zipf skew out of range",
			minimal + "      zipf: 1.5\n",
			`scenario "mini": tenant "web": zipf must be in (0, 1) (got 1.5)`,
		},
		{
			"sample step implies too many curve points",
			strings.Replace(minimal, "  stores: 2\n", "  stores: 2\n  sample_step_ms: 0.00003\n", 1),
			`scenario "mini": workload: sample_step_ms 3e-05 cuts horizon_ms 4 into 133333 rate-curve points (limit 100000)`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(tc.src)
			if err == nil {
				t.Fatalf("Parse accepted invalid scenario:\n%s", tc.src)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error = %q\nwant substring %q", err, tc.want)
			}
		})
	}
}

func TestEventEndMSAndString(t *testing.T) {
	sp, err := Parse(minimal +
		"events:\n" +
		"  - at_ms: 1\n    kind: spike\n    tenant: web\n    mult: 3\n    ramp_ms: 1\n    hold_ms: 2\n    decay_ms: 1\n" +
		"  - at_ms: 2\n    kind: crash\n    machine: 1\n")
	if err != nil {
		t.Fatal(err)
	}
	if got := sp.Events[0].EndMS(); got != 5 {
		t.Errorf("spike EndMS = %g, want 5 (1+1+2+1)", got)
	}
	if got := sp.Events[1].EndMS(); got != 2 {
		t.Errorf("crash EndMS = %g, want 2", got)
	}
	if s := sp.Events[1].String(); !strings.Contains(s, "crash") {
		t.Errorf("Event.String() = %q, want kind name in it", s)
	}
}

// miniGPU extends the minimal scenario with a GPU pool and a trainer.
const miniGPU = `name: mini-gpu
horizon_ms: 4
fleet:
  machines: 3
  gpus:
    - count: 2
      mem_mb: 256
      class: a100
      speed: 2
    - count: 1
      mem_mb: 128
      link_gbps: 8
      class: t4
      speed: 0.5
workload:
  stores: 2
  objects: 32
  tenants:
    - name: web
      rate: 50000
  trainers:
    count: 1
    model_mb: 64
    step_us: 500
    batch_kb: 64
    checkpoint_kb: 128
    snapshot_every: 16
`

func TestParseGPUConfig(t *testing.T) {
	sp, err := Parse(miniGPU +
		"events:\n" +
		"  - at_ms: 1\n    kind: gpu_throttle\n    machine: 1\n    gpu: 2\n    factor: 3\n    stall_every: 4\n    stall_us: 200\n" +
		"  - at_ms: 2\n    kind: gpu_xid\n    machine: 2\n    gpu: 0\n    xid: 48\n" +
		"  - at_ms: 3\n    kind: gpu_heal\n    machine: 1\n    gpu: 2\n")
	if err != nil {
		t.Fatal(err)
	}
	f := sp.Fleet
	if len(f.GPUs) != 2 || f.GPUsPerMachine() != 3 {
		t.Fatalf("gpus = %+v, want 2 classes, 3 devices per machine", f.GPUs)
	}
	if f.GPUs[0].Class != "a100" || f.GPUs[0].Speed != 2 || f.GPUs[0].LinkGBps != 16 {
		t.Errorf("class 0 = %+v, want a100 speed 2 default link 16", f.GPUs[0])
	}
	if f.GPUs[1].Count != 1 || f.GPUs[1].LinkGBps != 8 || f.GPUs[1].Speed != 0.5 {
		t.Errorf("class 1 = %+v", f.GPUs[1])
	}
	tr := sp.Workload.Trainers
	if tr.Count != 1 || tr.ModelMB != 64 || tr.StepUS != 500 || tr.BatchKB != 64 ||
		tr.CheckpointKB != 128 || tr.SnapshotEvery != 16 {
		t.Errorf("trainers = %+v", tr)
	}
	if sp.Events[0].Factor != 3 || sp.Events[0].StallEveryN != 4 || sp.Events[0].StallUS != 200 {
		t.Errorf("throttle event = %+v", sp.Events[0])
	}
	if sp.Events[1].Xid != 48 {
		t.Errorf("xid = %d, want 48", sp.Events[1].Xid)
	}
	for i, want := range []string{
		"gpu_throttle m1/gpu2 x3 stall 200us/4 @1ms",
		"gpu_xid m2/gpu0 xid=48 @2ms",
		"gpu_heal m1/gpu2 @3ms",
	} {
		if got := sp.Events[i].String(); got != want {
			t.Errorf("events[%d].String() = %q, want %q", i, got, want)
		}
	}
}

func TestParseGPUDefaultXid(t *testing.T) {
	sp, err := Parse(miniGPU + "events:\n  - at_ms: 1\n    kind: gpu_xid\n    machine: 1\n    gpu: 0\n")
	if err != nil {
		t.Fatal(err)
	}
	if sp.Events[0].Xid != 79 {
		t.Errorf("default xid = %d, want 79 (GPU fell off the bus)", sp.Events[0].Xid)
	}
}

func TestParseGPUErrorPaths(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{
			"gpu event without gpus",
			minimal + "events:\n  - at_ms: 1\n    kind: gpu_xid\n    machine: 1\n    gpu: 0\n",
			"events[0]: gpu_xid requires fleet.gpus device classes",
		},
		{
			"trainers without gpus",
			minimal + "  trainers:\n    count: 1\n    model_mb: 64\n    step_us: 500\n",
			"trainers need fleet.gpus device classes",
		},
		{
			"gpu event on front end",
			miniGPU + "events:\n  - at_ms: 1\n    kind: gpu_xid\n    machine: 0\n    gpu: 0\n",
			"machine 0 is a shard front end and hosts no GPUs",
		},
		{
			"gpu index out of range",
			miniGPU + "events:\n  - at_ms: 1\n    kind: gpu_heal\n    machine: 1\n    gpu: 3\n",
			"events[0]: gpu 3 out of range [0, 3)",
		},
		{
			"gpu index missing",
			miniGPU + "events:\n  - at_ms: 1\n    kind: gpu_xid\n    machine: 1\n",
			"events[0]: gpu -1 out of range [0, 3)",
		},
		{
			"throttle without parameters",
			miniGPU + "events:\n  - at_ms: 1\n    kind: gpu_throttle\n    machine: 1\n    gpu: 0\n",
			"gpu_throttle needs factor > 1 and/or stall_every > 0",
		},
		{
			"throttle factor too small",
			miniGPU + "events:\n  - at_ms: 1\n    kind: gpu_throttle\n    machine: 1\n    gpu: 0\n    factor: 0.5\n",
			"gpu_throttle factor must be > 1 (got 0.5)",
		},
		{
			"stutter without stall length",
			miniGPU + "events:\n  - at_ms: 1\n    kind: gpu_throttle\n    machine: 1\n    gpu: 0\n    stall_every: 3\n",
			"gpu_throttle stall_every needs stall_us > 0",
		},
		{
			"bad gpu class",
			strings.Replace(miniGPU, "      speed: 0.5\n", "      speed: -1\n", 1),
			"gpus[1] needs count >= 1, mem_mb >= 1, link_gbps > 0, speed > 0",
		},
		{
			"trainer missing model",
			strings.Replace(miniGPU, "    model_mb: 64\n", "", 1),
			"trainers need model_mb >= 1 and step_us > 0",
		},
		{
			"unknown trainer field",
			strings.Replace(miniGPU, "    count: 1\n", "    count: 1\n    optimizer: adam\n", 1),
			`trainers: unknown field "optimizer"`,
		},
		{
			"unknown gpu field",
			strings.Replace(miniGPU, "      class: a100\n", "      class: a100\n      hbm: 3\n", 1),
			`gpus[0]: unknown field "hbm"`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(tc.src)
			if err == nil {
				t.Fatalf("Parse accepted invalid scenario:\n%s", tc.src)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error = %q\nwant substring %q", err, tc.want)
			}
		})
	}
}
