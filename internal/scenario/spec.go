package scenario

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"unsafe"

	"repro/internal/core"
	"repro/internal/fault"
)

// The scenario format is declared once, on the types below: a field's
// struct tags are its schema row, compiled at start-up into the table
// (see block) that Parse's one generic decoder walks.
//
//	yaml:"name"           the YAML key; ",required" makes its absence an error;
//	                      "@line" marks the field that receives the mapping's source line
//	def:"v"               the value when the key is absent
//	zero:"text"           0 means unset, and text says what unset resolves to;
//	                      bounds do not apply to it
//	bound:"positive"      the admitted range, worded as messages word it: "positive" or ">= x"
//	enum:"noun"           the value must belong to enums[noun]
//	label:"l"             a nested block's name in error messages, when not the key
//
// Spec is one fully decoded, validated scenario: a fleet, a workload
// mix, a timed event schedule, and declarative assertions over the
// run's measured metrics.
type Spec struct {
	Name         string  `yaml:"name"`
	Description  string  `yaml:"description"`
	Seed         int64   `yaml:"seed" def:"1"`                                        // committed seed; qsctl run -seed overrides
	HorizonMS    float64 `yaml:"horizon_ms" bound:">= 0.001"`                         // virtual run length; the floor keeps each default derived from it >= 1ns
	BucketMS     float64 `yaml:"bucket_ms" zero:"horizon_ms / 40" bound:">= 1e-6"`    // goodput bucket width
	DrainMS      float64 `yaml:"drain_ms" zero:"max(6, horizon_ms / 2)" bound:">= 0"` // post-horizon drain+verify window
	RecoveryFrac float64 `yaml:"recovery_frac" def:"0.9"`                             // goodput fraction of baseline that counts as recovered

	Fleet    Fleet       `yaml:"fleet"`
	Workload Workload    `yaml:"workload"`
	Events   []Event     `yaml:"events"`
	Asserts  []Assertion `yaml:"assertions"`
	SLO      SLO         `yaml:"slo"`
}

// SLO configures the streaming SLO plane (internal/obs/slo): fixed
// windows over the virtual clock and multi-window burn-rate rules that
// open/close incidents. Rates (floor_rps) are fleet-wide; Run divides
// them by the shard count, matching how tenant rates split.
type SLO struct {
	WindowMS float64   `yaml:"window_ms" zero:"no SLO plane" bound:">= 1e-6"`
	Windows  int       `yaml:"windows" def:"5" bound:">= 1"` // burn-rate ring: rules look at the last N windows
	Rules    []SLORule `yaml:"rules" label:"slo rules"`
}

// Enabled reports whether the scenario declared an slo block.
func (s SLO) Enabled() bool { return s.WindowMS > 0 }

// SLORule mirrors slo.Rule with spec-level units.
type SLORule struct {
	Kind     string  `yaml:"kind,required" enum:"rule kind"`
	Name     string  `yaml:"name"`
	BoundMS  float64 `yaml:"bound_ms"`  // p999_above
	FloorRPS float64 `yaml:"floor_rps"` // goodput_below, fleet-wide
	Ceiling  float64 `yaml:"ceiling"`   // error_rate_above, fraction in [0,1)
	For      int     `yaml:"for" def:"1"`
	Severity string  `yaml:"severity" def:"warn" enum:"severity"`
	Line     int     `yaml:"@line"`
}

// Fleet shapes the simulated cluster: Shards independent kernel shards
// of Machines machines each. Machine 0 of every shard is the front end
// (servers, failure-detector monitor) and cannot be crashed. GPUs, when
// present, attach to every non-front-end machine (1..Machines-1).
type Fleet struct {
	Shards   int64      `yaml:"shards" def:"1" bound:">= 1"`
	Machines int64      `yaml:"machines" def:"4" bound:">= 2"` // per shard
	Cores    int        `yaml:"cores" def:"4" bound:">= 1"`
	MemMB    int64      `yaml:"mem_mb" def:"64" bound:">= 1"`
	GPUs     []GPUClass `yaml:"gpus"` // device classes per non-front-end machine
}

// gpusPerMachine is the device count each GPU-bearing machine hosts.
func (f Fleet) gpusPerMachine() int {
	n := 0
	for _, c := range f.GPUs {
		n += c.Count
	}
	return n
}

// GPUClass is one heterogeneous device class: Count devices per
// machine, each with MemMB of device memory, a LinkGBps host link, and
// a relative Speed (kernel time divides by it).
type GPUClass struct {
	Count    int     `yaml:"count" def:"1"`
	MemMB    int64   `yaml:"mem_mb"`
	LinkGBps float64 `yaml:"link_gbps" def:"16"`
	Class    string  `yaml:"class" def:"gpu"`
	Speed    float64 `yaml:"speed" def:"1"`
}

// Workload is the serving mix driven against the fleet: preloaded
// stores, an open-loop multi-tenant request stream, and a write
// fraction that makes durability observable.
type Workload struct {
	Stores       int      `yaml:"stores" def:"4" bound:">= 1"`    // memory proclets per shard, on machines 1..Machines-1
	RF           int      `yaml:"rf" def:"1"`                     // replication factor; 1 = unreplicated
	Rebuild      bool     `yaml:"rebuild"`                        // RF=1 only: rebuild crash-lost contents from the golden record
	Objects      int      `yaml:"objects" def:"512" bound:">= 1"` // preloaded objects per store
	ObjectBytes  int64    `yaml:"object_bytes" def:"256" bound:">= 0"`
	WriteFrac    float64  `yaml:"write_frac" def:"0.25"`        // fraction of requests that are writes
	Servers      int      `yaml:"servers" def:"4" bound:">= 1"` // server procs per shard, on machine 0
	BatchMax     int      `yaml:"batch_max" def:"32" bound:">= 1"`
	DeadlineUS   float64  `yaml:"deadline_us" def:"1000" bound:"positive"`                // latency deadline; beyond it a request is a timeout
	SampleStepMS float64  `yaml:"sample_step_ms" zero:"horizon_ms / 200" bound:">= 1e-6"` // rate-curve discretization step
	Tenants      []Tenant `yaml:"tenants"`
	Trainers     Trainers `yaml:"trainers"`
}

// Trainers is an optional GPU training workload riding alongside the
// serving mix: Count GPU proclets placed by the fleet manager, each
// stepping continuously until the horizon. CheckpointKB > 0 mirrors
// every step's optimizer delta to anti-affine host RAM before the ack,
// so a fatal device error (gpu_xid) loses at most the in-flight step.
type Trainers struct {
	Count         int     `yaml:"count"`
	ModelMB       int64   `yaml:"model_mb"`                    // device-resident state per trainer
	StepUS        float64 `yaml:"step_us"`                     // kernel time per step at speed 1
	BatchKB       int64   `yaml:"batch_kb" bound:">= 0"`       // per-step batch upload
	CheckpointKB  int64   `yaml:"checkpoint_kb" bound:">= 0"`  // per-step delta ship; 0 disables checkpointing
	SnapshotEvery int     `yaml:"snapshot_every" bound:">= 0"` // every Nth delta is a full snapshot
}

// Tenant is one aggregate client population: a rate curve over the
// horizon and a Zipfian key popularity.
type Tenant struct {
	Name     string  `yaml:"name"`
	Rate     float64 `yaml:"rate"` // aggregate req/s across the whole fleet
	Curve    string  `yaml:"curve" zero:"constant" enum:"curve"`
	Amp      float64 `yaml:"amp"`                                 // diurnal amplitude in [0,1]
	PeriodMS float64 `yaml:"period_ms" zero:"horizon_ms"`         // diurnal period
	To       float64 `yaml:"to"`                                  // ramp target rate
	OverMS   float64 `yaml:"over_ms"`                             // ramp duration
	Zipf     float64 `yaml:"zipf" zero:"0.9"`                     // Zipfian skew theta
	Keys     uint64  `yaml:"keys" def:"1048576" bound:"positive"` // keyspace size
}

// EventKind enumerates the timed operations a scenario can schedule.
type EventKind int

// Event kinds, in eventKinds order.
const (
	KindCrash EventKind = iota
	KindRestart
	KindPartition
	KindDegrade
	KindHeal
	KindSpike
	KindMigrate
	KindGPUXid
	KindGPUThrottle
	KindGPUHeal
)

// target says which Event fields address what a kind acts on — and
// with that, which shard it compiles onto.
type target int

const (
	onMachine target = iota // Machine
	onGPU                   // GPU on Machine
	onLink                  // the A–B link
	onTenant                // Tenant, on every shard: folds into its rate curve
	onStore                 // Store, moving to machine To
)

// notFault marks the kinds that do not compile onto the fault plane.
const notFault fault.Op = -1

type eventKind struct {
	name string
	op   fault.Op
	on   target
}

// eventKinds is the event vocabulary: each kind's YAML name, the
// fault-plane operation it compiles to, and how it addresses its
// target. Kind lookup, validate's range checks and Run's compile loop
// all read this table.
var eventKinds = [...]eventKind{
	KindCrash:       {"crash", fault.OpCrash, onMachine},
	KindRestart:     {"restart", fault.OpRestart, onMachine},
	KindPartition:   {"partition", fault.OpPartition, onLink},
	KindDegrade:     {"degrade", fault.OpDegrade, onLink},
	KindHeal:        {"heal", fault.OpHeal, onLink},
	KindSpike:       {"spike", notFault, onTenant},
	KindMigrate:     {"migrate", notFault, onStore},
	KindGPUXid:      {"gpu_xid", fault.OpGPUXid, onGPU},
	KindGPUThrottle: {"gpu_throttle", fault.OpGPUThrottle, onGPU},
	KindGPUHeal:     {"gpu_heal", fault.OpGPUHeal, onGPU},
}

func (k EventKind) String() string { return eventKinds[k].name }

// Event is one timed operation. Machine, A, B, Store, and To are
// global indices: machine g lives on shard g/Fleet.Machines as local
// machine g%Fleet.Machines, store s on shard s/Workload.Stores.
type Event struct {
	AtMS float64   `yaml:"at_ms"`
	Kind EventKind `yaml:"kind,required" enum:"event kind"`
	Line int       `yaml:"@line"`

	Machine int `yaml:"machine" def:"-1"` // crash, restart, gpu_*

	A       int     `yaml:"a" def:"-1"` // partition, degrade, heal
	B       int     `yaml:"b" def:"-1"`
	ExtraUS float64 `yaml:"extra_us"` // degrade: added latency
	Drop    float64 `yaml:"drop"`     // degrade: drop probability

	Tenant  string  `yaml:"tenant"` // spike
	Mult    float64 `yaml:"mult"`   // spike multiplier (>= 1)
	RampMS  float64 `yaml:"ramp_ms"`
	HoldMS  float64 `yaml:"hold_ms"`
	DecayMS float64 `yaml:"decay_ms"`

	Store int `yaml:"store" def:"-1"` // migrate: global store index
	To    int `yaml:"to" def:"-1"`    // migrate: global destination machine

	GPU         int     `yaml:"gpu" def:"-1"` // gpu_*: device index on Machine
	Xid         int     `yaml:"xid" def:"79"` // gpu_xid: device error code
	Factor      float64 `yaml:"factor"`       // gpu_throttle: multiplicative slowdown (> 1)
	StallEveryN int     `yaml:"stall_every"`  // gpu_throttle: ECC stutter cadence (0 = none)
	StallUS     float64 `yaml:"stall_us"`     // gpu_throttle: stall length per stutter
}

// endMS is when the event's disturbance is over: the instant itself,
// except spikes which run at+ramp+hold+decay.
func (e Event) endMS() float64 {
	if e.Kind == KindSpike {
		return e.AtMS + e.RampMS + e.HoldMS + e.DecayMS
	}
	return e.AtMS
}

func (e Event) String() string {
	switch e.Kind {
	case KindCrash, KindRestart:
		return fmt.Sprintf("%s m%d @%gms", e.Kind, e.Machine, e.AtMS)
	case KindPartition, KindHeal:
		return fmt.Sprintf("%s m%d-m%d @%gms", e.Kind, e.A, e.B, e.AtMS)
	case KindDegrade:
		return fmt.Sprintf("degrade m%d-m%d +%gus drop=%g @%gms", e.A, e.B, e.ExtraUS, e.Drop, e.AtMS)
	case KindSpike:
		return fmt.Sprintf("spike %s x%g @%gms (%g+%g+%gms)", e.Tenant, e.Mult, e.AtMS, e.RampMS, e.HoldMS, e.DecayMS)
	case KindMigrate:
		return fmt.Sprintf("migrate store %d -> m%d @%gms", e.Store, e.To, e.AtMS)
	case KindGPUXid:
		return fmt.Sprintf("gpu_xid m%d/gpu%d xid=%d @%gms", e.Machine, e.GPU, e.Xid, e.AtMS)
	case KindGPUThrottle:
		return fmt.Sprintf("gpu_throttle m%d/gpu%d x%g stall %gus/%d @%gms",
			e.Machine, e.GPU, e.Factor, e.StallUS, e.StallEveryN, e.AtMS)
	case KindGPUHeal:
		return fmt.Sprintf("gpu_heal m%d/gpu%d @%gms", e.Machine, e.GPU, e.AtMS)
	default:
		return fmt.Sprintf("event(%d)", int(e.Kind))
	}
}

// Assertion is one declarative bound over a run metric.
type Assertion struct {
	Metric string  `yaml:"metric,required" enum:"metric"`
	Op     string  `yaml:"op,required" enum:"comparison op"`
	Value  float64 `yaml:"value,required"`
	Line   int     `yaml:"@line"`
}

func (a Assertion) String() string {
	return fmt.Sprintf("%s %s %g", a.Metric, a.Op, a.Value)
}

// NeverRecovered is the recovery_ms value reported when goodput never
// regains the recovery threshold after the last event: any upper-bound
// assertion on recovery_ms fails against it.
const NeverRecovered = 1e300

// enum is a closed set of names: a string field holds one of them, an
// integer field such as Event.Kind the index of one.
type enum struct {
	word  string // introduces the set in messages: "want a, b, c"
	names []string
	late  bool // membership is validate's to check — its message names the owner — not the decoder's
}

func (e *enum) hint() string { return e.word + " " + strings.Join(e.names, ", ") }

// enums is every closed set of the format, keyed by the noun messages
// use for it.
var enums = map[string]*enum{
	"event kind":    {"want", column(eventKinds[:], func(k eventKind) string { return k.name }), false},
	"rule kind":     {"want", []string{"p999_above", "goodput_below", "error_rate_above"}, false},
	"severity":      {"want", []string{"warn", "page"}, true},
	"curve":         {"want", []string{"constant", "diurnal", "ramp"}, true},
	"metric":        {"known:", MetricNames, false},
	"comparison op": {"want", []string{"==", "!=", "<", "<=", ">", ">="}, false},
}

// column is one string of every row of a table, in row order.
func column[T any](rows []T, of func(T) string) []string {
	out := make([]string, len(rows))
	for i, row := range rows {
		out[i] = of(row)
	}
	return out
}

// field is one schema row: a YAML key, where its value lands in the Go
// struct, and which values it admits.
type field struct {
	name     string
	kind     reflect.Kind // String, Bool, Int, Int64, Uint64 or Float64; Struct or Slice for a nested block
	off      uintptr      // offset in the enclosing struct
	want     string       // the value's type as messages put it: "a number", "a mapping"
	required bool
	def      string  // initial value as the tag spells it; "" leaves the zero value
	zero     string  // non-empty: 0 means unset, and this says what unset resolves to
	bound    string  // non-empty: the admitted range, "positive" or ">= x"
	min      float64 // the bound itself, exclusive when bound is "positive"
	noun     string  // enums key, and the noun of the bad-value message
	enum     *enum
	sub      *block       // Struct: the nested mapping; Slice: each item's mapping
	slice    reflect.Type // Slice only
}

// block is the compiled schema of one mapping of the format.
type block struct {
	label   string // what messages about the block open with: "" at top level, "fleet: ", "gpus[%d]: "
	fields  []field
	lineOff int           // where the mapping's source line goes; -1 when nowhere
	proto   reflect.Value // a struct value holding every default
}

// schema is the whole format, compiled once from Spec's struct tags.
var schema = compile(reflect.TypeOf(Spec{}), "")

// compile reads t's struct tags into a block. It runs at start-up only;
// TestSchema holds it to what decode assumes of a row.
func compile(t reflect.Type, label string) *block {
	b := &block{label: label, lineOff: -1, proto: reflect.New(t).Elem()}
	for i := 0; i < t.NumField(); i++ {
		sf := t.Field(i)
		name, opt, _ := strings.Cut(sf.Tag.Get("yaml"), ",")
		if name == "@line" {
			b.lineOff = int(sf.Offset)
			continue
		}
		f := field{name: name, kind: sf.Type.Kind(), off: sf.Offset, want: "an integer", required: opt == "required",
			def: sf.Tag.Get("def"), zero: sf.Tag.Get("zero"), bound: sf.Tag.Get("bound"), noun: sf.Tag.Get("enum")}
		f.min, _ = strconv.ParseFloat(strings.TrimPrefix(f.bound, ">= "), 64) // "positive": above 0
		f.enum = enums[f.noun]
		sub := sf.Tag.Get("label")
		if sub == "" {
			sub = name
		}
		switch f.kind {
		case reflect.Struct:
			f.want, f.sub = "a mapping", compile(sf.Type, sub+": ")
			b.proto.Field(i).Set(f.sub.proto)
		case reflect.Slice:
			f.want, f.slice, f.sub = "a sequence", sf.Type, compile(sf.Type.Elem(), sub+"[%d]: ")
		case reflect.String:
			f.want = "a string"
		case reflect.Bool:
			f.want = "true or false"
		case reflect.Float64:
			f.want = "a number"
		}
		if f.enum != nil {
			f.want = "a string"
		}
		if f.def != "" {
			if msg := f.set(b.proto.Field(i).Addr().UnsafePointer(), f.def); msg != "" {
				panic(fmt.Sprintf("scenario schema: %s.%s: default: %s", t.Name(), sf.Name, msg))
			}
		}
		b.fields = append(b.fields, f)
	}
	return b
}

// mistyped is the message for a value of the wrong type or shape: got
// is a quoted scalar or a node's shape.
func (f *field) mistyped(got string) string { return f.about("expected " + f.want + ", got " + got) }

// about pins what is wrong with a value on its field.
func (f *field) about(what string) string { return "field " + strconv.Quote(f.name) + ": " + what }

// set parses scalar s into the field at p. A value it rejects comes
// back as the message saying why, built only then; no number past this
// point is NaN or infinite.
func (f *field) set(p unsafe.Pointer, s string) string {
	switch {
	case f.enum != nil:
		i := slices.Index(f.enum.names, s)
		if i < 0 && !f.enum.late {
			return fmt.Sprintf("unknown %s %q (%s)", f.noun, s, f.enum.hint())
		}
		if f.kind == reflect.String {
			*(*string)(p) = s
		} else {
			*(*int)(p) = i
		}
	case f.kind == reflect.String:
		*(*string)(p) = s
	case f.kind == reflect.Bool:
		if s != "true" && s != "false" {
			return f.mistyped(strconv.Quote(s))
		}
		*(*bool)(p) = s == "true"
	case f.kind == reflect.Float64:
		v, err := strconv.ParseFloat(s, 64)
		if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
			return f.mistyped(strconv.Quote(s))
		}
		*(*float64)(p) = v
		return f.outside(v)
	default:
		// An int field holds 32 bits on every host, so a file means the
		// same on a 32-bit build as on a 64-bit one; the int64 fields
		// (fleet size, byte counts) keep their 64.
		bits := 64
		if f.kind == reflect.Int {
			bits = 32
		}
		v, err := strconv.ParseInt(s, 10, bits)
		if errors.Is(err, strconv.ErrRange) {
			return f.about(fmt.Sprintf("%s does not fit in %d bits", s, bits))
		}
		if err != nil {
			return f.mistyped(strconv.Quote(s))
		}
		if f.kind == reflect.Int {
			*(*int)(p) = int(v)
		} else { // Int64, and Uint64, whose rows all carry a bound that keeps v >= 0
			*(*int64)(p) = v
		}
		return f.outside(float64(v))
	}
	return ""
}

// outside is the message for a number the field's bound does not admit.
// A zero: row's 0 is no value yet, so no bound applies to it.
func (f *field) outside(v float64) string {
	if f.bound == "" || v > f.min || v == f.min && f.bound != "positive" || v == 0 && f.zero != "" {
		return ""
	}
	return f.about("must be " + f.bound)
}

// errorf is how every decode error is put together: the block (and
// item) it is in, what is wrong, and the source line.
func (b *block) errorf(idx, line int, what string) error {
	return fmt.Errorf("%s%s (line %d)", strings.Replace(b.label, "%d", strconv.Itoa(idx), 1), what, line)
}

// decode fills the struct at dst, which already holds the block's
// defaults, from mapping n — item idx of its sequence. Every way a
// field of the format can be wrong is reported from here and from set.
func (b *block) decode(n *node, dst unsafe.Pointer, idx int) error {
	if b.lineOff >= 0 {
		*(*int)(unsafe.Add(dst, b.lineOff)) = n.line
	}
	var seen uint64
	for i, key := range n.keys {
		v := n.vals[i]
		var f *field
		for fi := range b.fields {
			if b.fields[fi].name == key {
				f, seen = &b.fields[fi], seen|1<<fi
				break
			}
		}
		if f == nil {
			what := "unknown field "
			if b.label == "" {
				what = "unknown top-level field "
			}
			return b.errorf(idx, v.line, what+strconv.Quote(key))
		}
		p := unsafe.Add(dst, f.off)
		switch {
		case f.kind == reflect.Struct && !v.isScalar && !v.isSeq:
			if err := f.sub.decode(v, p, 0); err != nil {
				return err
			}
		case f.kind == reflect.Slice && v.isSeq:
			items := reflect.MakeSlice(f.slice, len(v.items), len(v.items))
			for j, item := range v.items {
				if item.isScalar || item.isSeq {
					return f.sub.errorf(j, item.line, "expected a mapping, got "+item.shape())
				}
				el := items.Index(j)
				el.Set(f.sub.proto)
				if err := f.sub.decode(item, el.Addr().UnsafePointer(), j); err != nil {
					return err
				}
			}
			reflect.NewAt(f.slice, p).Elem().Set(items)
		case f.sub != nil || !v.isScalar:
			return b.errorf(idx, v.line, f.mistyped(v.shape()))
		default:
			if msg := f.set(p, v.scalar); msg != "" {
				return b.errorf(idx, v.line, msg)
			}
		}
	}
	for fi := range b.fields {
		if f := &b.fields[fi]; f.required && seen&(1<<fi) == 0 {
			return b.errorf(idx, n.line, "missing "+strconv.Quote(f.name))
		}
	}
	return nil
}

// Parse decodes and validates a scenario document. Errors carry the
// 1-based source line of the offending field.
func Parse(src string) (*Spec, error) {
	root, err := parseYAML(src)
	if err != nil {
		return nil, err
	}
	sp := new(Spec)
	reflect.ValueOf(sp).Elem().Set(schema.proto)
	if err := schema.decode(root, unsafe.Pointer(sp), 0); err != nil {
		return nil, err
	}
	sp.applyDefaults()
	if err := sp.validate(); err != nil {
		return nil, err
	}
	return sp, nil
}

// applyDefaults resolves the fields whose unset value derives from
// another field or, for tenants, stands for a fixed default an explicit
// 0 also selects (their zero: rows).
func (sp *Spec) applyDefaults() {
	if sp.BucketMS == 0 {
		sp.BucketMS = sp.HorizonMS / 40
	}
	if sp.DrainMS == 0 {
		sp.DrainMS = math.Max(6, sp.HorizonMS/2)
	}
	if sp.Workload.SampleStepMS == 0 {
		sp.Workload.SampleStepMS = sp.HorizonMS / 200
	}
	for i := range sp.Workload.Tenants {
		t := &sp.Workload.Tenants[i]
		if t.Curve == "" {
			t.Curve = "constant"
		}
		if t.Zipf == 0 {
			t.Zipf = 0.9
		}
		if t.PeriodMS == 0 {
			t.PeriodMS = sp.HorizonMS
		}
	}
}

// maxTimelinePoints bounds the points a step cuts the run into: every
// tenant on every shard holds a rate-curve point a sample_step_ms, every
// shard a goodput bucket a bucket_ms, and the SLO monitor closes (under
// qsctl top, keeps) a window a window_ms. A step's floor allows 10^6 a ms.
const maxTimelinePoints = 100_000

// The run budget bounds what a file may ask Run to simulate, each limit
// 100 times or more what the largest committed scenario, benchmark
// workload or ext-* experiment uses (245,000 offered requests, 1,000
// machines, 8 servers a shard). Past them a run does not fail, it takes
// the process down: a request the servers never reach is held in its
// shard's queue at about 100 bytes, a machine costs about 13 KB before the
// first event, and every server is a process polling every 20 µs.
const (
	maxOfferedRequests = 25_000_000 // Σ tenants: peak rate × its spikes' mults × horizon
	maxFleetMachines   = 100_000    // fleet.shards × fleet.machines
	maxServers         = 1_000      // workload.servers, per shard
)

// overBudget reports the first run-budget limit the spec exceeds, naming
// the fields to shrink. The offered load is an upper bound: a tenant's
// spikes multiply whether or not they overlap.
func (sp *Spec) overBudget() error {
	w := sp.Workload
	if w.Servers > maxServers {
		return fmt.Errorf("scenario %q: workload.servers %d is more than a shard can poll (limit %d) — shrink it",
			sp.Name, w.Servers, maxServers)
	}
	offered := 0.0
	for _, t := range w.Tenants {
		peak := t.Rate
		switch t.Curve {
		case "diurnal":
			peak *= 1 + t.Amp
		case "ramp":
			peak = math.Max(peak, t.To)
		}
		for _, ev := range sp.Events {
			if ev.Kind == KindSpike && ev.Tenant == t.Name {
				peak *= ev.Mult
			}
		}
		offered += peak * sp.HorizonMS / 1000
	}
	if offered > maxOfferedRequests {
		return fmt.Errorf("scenario %q: the tenants offer up to %.3g requests over horizon_ms %g (peak rate × spike mults × horizon; limit %d) — shrink a tenant's rate, a spike's mult or horizon_ms",
			sp.Name, offered, sp.HorizonMS, maxOfferedRequests)
	}
	return nil
}

// validate enforces what no single schema row can: values whose absence
// is the error, range reports that name several fields or their owner,
// and cross-field invariants — the fleet's size against the run budget,
// replication against fleet shape, event targets in range and on one
// shard, non-decreasing timestamps — and, of a spec sound in every part,
// that the rest fits the run budget.
func (sp *Spec) validate() error {
	if sp.Name == "" {
		return fmt.Errorf(`scenario is missing "name"`)
	}
	if sp.HorizonMS <= 0 {
		return fmt.Errorf("scenario %q: horizon_ms must be positive (got %g)", sp.Name, sp.HorizonMS)
	}
	if n := (sp.HorizonMS + sp.DrainMS) / sp.BucketMS; n > maxTimelinePoints {
		return fmt.Errorf("scenario %q: bucket_ms %g cuts horizon_ms %g + drain_ms %g into %.0f goodput buckets (limit %d) — raise bucket_ms or shrink horizon_ms or drain_ms",
			sp.Name, sp.BucketMS, sp.HorizonMS, sp.DrainMS, n, maxTimelinePoints)
	}
	if sp.RecoveryFrac <= 0 || sp.RecoveryFrac > 1 {
		return fmt.Errorf("scenario %q: recovery_frac must be in (0, 1] (got %g)", sp.Name, sp.RecoveryFrac)
	}
	f, w := sp.Fleet, sp.Workload
	// The fleet's size goes first, so that no product of its two
	// dimensions below can overflow an int, even a 32-bit one.
	if n := float64(f.Shards) * float64(f.Machines); n > maxFleetMachines {
		return fmt.Errorf("scenario %q: fleet.shards %d × fleet.machines %d is %.0f machines (limit %d) — shrink either",
			sp.Name, f.Shards, f.Machines, n, maxFleetMachines)
	}
	shards, machines := int(f.Shards), int(f.Machines)
	if w.RF < 1 || w.RF > machines-1 {
		return fmt.Errorf("scenario %q: rf must be in [1, machines-1] (got rf=%d with %d machines/shard)",
			sp.Name, w.RF, machines)
	}
	if w.RF > 1 && w.Rebuild {
		return fmt.Errorf("scenario %q: rebuild is an rf=1 fallback; at rf=%d durability must come from replication alone",
			sp.Name, w.RF)
	}
	// Store i is placed on machine 1 + i%(machines-1), so the fullest
	// machine holds ceil(stores/(machines-1)) primaries, each preloaded
	// with objects × (object_bytes + overhead) bytes. If those alone
	// exceed its memory a preload fails, whatever else (backups, trainer
	// checkpoints) is charged there; what fits here can still fail in Run,
	// which reports it. Nested floor divisions are the exact quotient and
	// cannot overflow once mem_mb is known to fit in bytes.
	if f.MemMB > math.MaxInt64>>20 {
		return fmt.Errorf("scenario %q: fleet.mem_mb %d is more bytes than fit in 63 bits", sp.Name, f.MemMB)
	}
	fullest := (w.Stores + machines - 2) / (machines - 1)
	if room := f.MemMB << 20 / int64(fullest) / int64(w.Objects); w.ObjectBytes > room-core.ObjectOverheadBytes {
		return fmt.Errorf("scenario %q: the preload does not fit: fleet.mem_mb %d leaves %d bytes an object on the machine holding %d × %d of them (stores × objects), and object_bytes %d + %d of overhead is more — raise fleet.mem_mb or shrink workload.objects × object_bytes",
			sp.Name, f.MemMB, room, fullest, w.Objects, w.ObjectBytes, core.ObjectOverheadBytes)
	}
	if w.WriteFrac < 0 || w.WriteFrac > 1 {
		return fmt.Errorf("scenario %q: write_frac must be in [0, 1] (got %g)", sp.Name, w.WriteFrac)
	}
	if len(w.Tenants) == 0 {
		return fmt.Errorf("scenario %q: workload needs at least one tenant", sp.Name)
	}
	if pts := sp.HorizonMS / w.SampleStepMS; pts > maxTimelinePoints {
		return fmt.Errorf("scenario %q: workload: sample_step_ms %g cuts horizon_ms %g into %.0f rate-curve points (limit %d)",
			sp.Name, w.SampleStepMS, sp.HorizonMS, pts, maxTimelinePoints)
	}
	for gi, c := range f.GPUs {
		if c.Count < 1 || c.MemMB < 1 || c.LinkGBps <= 0 || c.Speed <= 0 {
			return fmt.Errorf("scenario %q: gpus[%d] needs count >= 1, mem_mb >= 1, link_gbps > 0, speed > 0 (got %d/%d/%g/%g)",
				sp.Name, gi, c.Count, c.MemMB, c.LinkGBps, c.Speed)
		}
	}
	if tr := w.Trainers; tr.Count > 0 {
		if len(f.GPUs) == 0 {
			return fmt.Errorf("scenario %q: trainers need fleet.gpus device classes", sp.Name)
		}
		if tr.ModelMB < 1 || tr.StepUS <= 0 {
			return fmt.Errorf("scenario %q: trainers need model_mb >= 1 and step_us > 0 (got %d/%g)",
				sp.Name, tr.ModelMB, tr.StepUS)
		}
	}
	tenants := map[string]bool{}
	for ti, t := range w.Tenants {
		if t.Name == "" {
			return fmt.Errorf("scenario %q: tenants[%d] is missing a name", sp.Name, ti)
		}
		if tenants[t.Name] {
			return fmt.Errorf("scenario %q: duplicate tenant %q", sp.Name, t.Name)
		}
		tenants[t.Name] = true
		if t.Rate <= 0 {
			return fmt.Errorf("scenario %q: tenant %q needs a positive rate (got %g)", sp.Name, t.Name, t.Rate)
		}
		if t.Zipf <= 0 || t.Zipf >= 1 {
			return fmt.Errorf("scenario %q: tenant %q: zipf must be in (0, 1) (got %g)", sp.Name, t.Name, t.Zipf)
		}
		switch t.Curve {
		case "constant":
		case "diurnal":
			if t.Amp < 0 || t.Amp > 1 {
				return fmt.Errorf("scenario %q: tenant %q: diurnal amp must be in [0, 1] (got %g)", sp.Name, t.Name, t.Amp)
			}
			if t.PeriodMS <= 0 {
				return fmt.Errorf("scenario %q: tenant %q: diurnal period_ms must be positive", sp.Name, t.Name)
			}
		case "ramp":
			if t.To < 0 || t.OverMS <= 0 {
				return fmt.Errorf("scenario %q: tenant %q: ramp needs to >= 0 and over_ms > 0", sp.Name, t.Name)
			}
		default:
			return fmt.Errorf("scenario %q: tenant %q: unknown curve %q (want constant, diurnal, ramp)",
				sp.Name, t.Name, t.Curve)
		}
	}
	if sp.SLO.Enabled() || len(sp.SLO.Rules) > 0 {
		if sp.SLO.WindowMS <= 0 {
			return fmt.Errorf("scenario %q: slo needs window_ms > 0 (got %g)", sp.Name, sp.SLO.WindowMS)
		}
		if n := sp.HorizonMS / sp.SLO.WindowMS; n > maxTimelinePoints {
			return fmt.Errorf("scenario %q: slo: window_ms %g cuts horizon_ms %g into %.0f windows (limit %d) — raise slo.window_ms or shrink horizon_ms",
				sp.Name, sp.SLO.WindowMS, sp.HorizonMS, n, maxTimelinePoints)
		}
		if len(sp.SLO.Rules) == 0 {
			return fmt.Errorf("scenario %q: slo needs at least one rule", sp.Name)
		}
		for ri, r := range sp.SLO.Rules {
			if r.For < 1 || r.For > sp.SLO.Windows {
				return fmt.Errorf("scenario %q: slo rules[%d]: for=%d out of [1, %d] (line %d)",
					sp.Name, ri, r.For, sp.SLO.Windows, r.Line)
			}
			switch r.Kind {
			case "p999_above":
				if r.BoundMS <= 0 {
					return fmt.Errorf("scenario %q: slo rules[%d]: p999_above needs bound_ms > 0 (line %d)", sp.Name, ri, r.Line)
				}
			case "goodput_below":
				if r.FloorRPS <= 0 {
					return fmt.Errorf("scenario %q: slo rules[%d]: goodput_below needs floor_rps > 0 (line %d)", sp.Name, ri, r.Line)
				}
			case "error_rate_above":
				if r.Ceiling < 0 || r.Ceiling >= 1 {
					return fmt.Errorf("scenario %q: slo rules[%d]: error_rate_above needs ceiling in [0, 1) (line %d)", sp.Name, ri, r.Line)
				}
			}
			if sev := enums["severity"]; !slices.Contains(sev.names, r.Severity) {
				return fmt.Errorf("scenario %q: slo rules[%d]: unknown severity %q (%s) (line %d)",
					sp.Name, ri, r.Severity, sev.hint(), r.Line)
			}
		}
	}
	totalMachines := shards * machines
	totalStores := shards * w.Stores
	for i, ev := range sp.Events {
		if i > 0 && ev.AtMS < sp.Events[i-1].AtMS {
			return fmt.Errorf("events must be in non-decreasing time order: events[%d] at_ms=%g is earlier than events[%d] at_ms=%g (line %d)",
				i, ev.AtMS, i-1, sp.Events[i-1].AtMS, ev.Line)
		}
		if ev.AtMS < 0 || ev.AtMS > sp.HorizonMS {
			return fmt.Errorf("events[%d]: at_ms=%g outside the run horizon [0, %g] (line %d)", i, ev.AtMS, sp.HorizonMS, ev.Line)
		}
		on := eventKinds[ev.Kind].on
		switch on {
		case onMachine, onGPU:
			if on == onGPU && len(f.GPUs) == 0 {
				return fmt.Errorf("events[%d]: %s requires fleet.gpus device classes (line %d)", i, ev.Kind, ev.Line)
			}
			if ev.Machine < 0 || ev.Machine >= totalMachines {
				return fmt.Errorf("events[%d]: machine %d out of range [0, %d) (line %d)", i, ev.Machine, totalMachines, ev.Line)
			}
			if ev.Machine%machines == 0 && on == onGPU {
				return fmt.Errorf("events[%d]: machine %d is a shard front end and hosts no GPUs (line %d)", i, ev.Machine, ev.Line)
			}
			if ev.Machine%machines == 0 {
				return fmt.Errorf("events[%d]: machine %d is a shard front end (servers + failure monitor) and cannot be %sed (line %d)",
					i, ev.Machine, ev.Kind, ev.Line)
			}
			if per := f.gpusPerMachine(); on == onGPU && (ev.GPU < 0 || ev.GPU >= per) {
				return fmt.Errorf("events[%d]: gpu %d out of range [0, %d) (line %d)", i, ev.GPU, per, ev.Line)
			}
			if ev.Kind == KindGPUThrottle {
				if ev.Factor == 0 && ev.StallEveryN == 0 {
					return fmt.Errorf("events[%d]: gpu_throttle needs factor > 1 and/or stall_every > 0 (line %d)", i, ev.Line)
				}
				if ev.Factor != 0 && ev.Factor <= 1 {
					return fmt.Errorf("events[%d]: gpu_throttle factor must be > 1 (got %g) (line %d)", i, ev.Factor, ev.Line)
				}
				if ev.StallEveryN > 0 && ev.StallUS <= 0 {
					return fmt.Errorf("events[%d]: gpu_throttle stall_every needs stall_us > 0 (line %d)", i, ev.Line)
				}
			}
		case onLink:
			if ev.A < 0 || ev.A >= totalMachines || ev.B < 0 || ev.B >= totalMachines {
				return fmt.Errorf("events[%d]: link %d-%d out of range [0, %d) (line %d)", i, ev.A, ev.B, totalMachines, ev.Line)
			}
			if ev.A == ev.B {
				return fmt.Errorf("events[%d]: link endpoints must differ (line %d)", i, ev.Line)
			}
			if ev.A/machines != ev.B/machines {
				return fmt.Errorf("events[%d]: link %d-%d crosses shards (%d and %d); link faults are shard-local (line %d)",
					i, ev.A, ev.B, ev.A/machines, ev.B/machines, ev.Line)
			}
			if ev.Kind == KindDegrade && (ev.Drop < 0 || ev.Drop > 1) {
				return fmt.Errorf("events[%d]: drop must be in [0, 1] (got %g) (line %d)", i, ev.Drop, ev.Line)
			}
		case onTenant:
			if !tenants[ev.Tenant] {
				return fmt.Errorf("events[%d]: spike targets unknown tenant %q (line %d)", i, ev.Tenant, ev.Line)
			}
			if ev.Mult < 1 {
				return fmt.Errorf("events[%d]: spike mult must be >= 1 (line %d)", i, ev.Line)
			}
			if ev.RampMS <= 0 || ev.HoldMS < 0 || ev.DecayMS <= 0 {
				return fmt.Errorf("events[%d]: spike needs ramp_ms > 0, hold_ms >= 0, decay_ms > 0 (line %d)", i, ev.Line)
			}
		case onStore:
			if ev.Store < 0 || ev.Store >= totalStores {
				return fmt.Errorf("events[%d]: store %d out of range [0, %d) (line %d)", i, ev.Store, totalStores, ev.Line)
			}
			if ev.To < 0 || ev.To >= totalMachines {
				return fmt.Errorf("events[%d]: destination machine %d out of range [0, %d) (line %d)", i, ev.To, totalMachines, ev.Line)
			}
			if ev.Store/w.Stores != ev.To/machines {
				return fmt.Errorf("events[%d]: store %d (shard %d) cannot migrate to machine %d (shard %d); migration is shard-local (line %d)",
					i, ev.Store, ev.Store/w.Stores, ev.To, ev.To/machines, ev.Line)
			}
			if ev.To%machines == 0 {
				return fmt.Errorf("events[%d]: machine %d is a shard front end; stores live on machines 1.. (line %d)", i, ev.To, ev.Line)
			}
		}
	}
	return sp.overBudget()
}
