package scenario

import (
	"fmt"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// walk visits every block of the schema with its dotted path ("" at
// top level, "fleet.gpus[]").
func walk(b *block, path string, visit func(path string, b *block)) {
	visit(path, b)
	for i := range b.fields {
		f := &b.fields[i]
		switch sub := strings.TrimPrefix(path+"."+f.name, "."); f.kind {
		case reflect.Struct:
			walk(f.sub, sub, visit)
		case reflect.Slice:
			walk(f.sub, sub+"[]", visit)
		}
	}
}

// TestSchema holds the compiled schema to what decode assumes of it:
// every field of every Spec type is a row (or the @line slot), every
// row's kind is one set can store, its enum resolves, its bound parses,
// and its default is in the prototype as the tag spells it.
func TestSchema(t *testing.T) {
	rows := 0
	walk(schema, "", func(path string, b *block) {
		typ := b.proto.Type()
		want := typ.NumField()
		if b.lineOff >= 0 {
			want--
			if sf, _ := typ.FieldByName("Line"); int(sf.Offset) != b.lineOff || sf.Type.Kind() != reflect.Int {
				t.Errorf("%s: @line must mark an int field named Line", typ)
			}
		}
		if len(b.fields) != want {
			t.Errorf("%s: %d rows for %d fields", typ, len(b.fields), want)
		}
		if len(b.fields) > 64 {
			t.Errorf("%s: %d rows outgrow decode's 64-bit seen set", typ, len(b.fields))
		}
		names := map[string]bool{}
		for i := range b.fields {
			f := &b.fields[i]
			rows++
			at := fmt.Sprintf("%s row %q", typ, f.name)
			var sf reflect.StructField
			for j := 0; j < typ.NumField(); j++ {
				if typ.Field(j).Offset == f.off && typ.Field(j).Tag.Get("yaml") != "" {
					sf = typ.Field(j)
				}
			}
			if name, _, _ := strings.Cut(sf.Tag.Get("yaml"), ","); name != f.name || sf.Type.Kind() != f.kind {
				t.Errorf("%s: resolves to field %q of kind %s, declared %s", at, sf.Name, sf.Type.Kind(), f.kind)
			}
			if f.name == "" || !validKey(f.name) || names[f.name] {
				t.Errorf("%s: name is empty, not a YAML key, or taken", at)
			}
			names[f.name] = true
			switch f.kind {
			case reflect.String, reflect.Bool, reflect.Int, reflect.Int64, reflect.Float64:
			case reflect.Uint64:
				if f.bound == "" || f.min < 0 {
					t.Errorf("%s: an unsigned field needs a bound that keeps it >= 0", at)
				}
			case reflect.Struct, reflect.Slice:
				if f.sub == nil || f.def != "" || f.bound != "" || f.noun != "" || f.required {
					t.Errorf("%s: a nested block takes no def, bound, enum or required", at)
				}
				continue
			default:
				t.Errorf("%s: no decoder for kind %s", at, f.kind)
			}
			if (f.noun != "") != (f.enum != nil) {
				t.Errorf("%s: enum %q is not in enums", at, f.noun)
			}
			if f.enum != nil && f.kind != reflect.String && f.kind != reflect.Int {
				t.Errorf("%s: an enum is stored as its name or its index, not as %s", at, f.kind)
			}
			if f.bound != "" {
				if f.kind == reflect.String || f.kind == reflect.Bool || f.enum != nil {
					t.Errorf("%s: bound on a field that is not a number", at)
				}
				if min, err := strconv.ParseFloat(strings.TrimPrefix(f.bound, ">= "), 64); f.bound != "positive" && (err != nil || min != f.min) {
					t.Errorf("%s: bound %q is neither \"positive\" nor \">= x\"", at, f.bound)
				}
			}
			if f.def != "" && f.zero != "" {
				t.Errorf("%s: def and zero both claim the unset value", at)
			}
			if got := fmt.Sprint(b.proto.FieldByIndex(sf.Index).Interface()); f.def != "" && got != f.def {
				t.Errorf("%s: prototype holds %s, tag says def %q", at, got, f.def)
			}
		}
	})
	if rows < 80 {
		t.Errorf("walked %d rows; the format has more than that", rows)
	}
	for noun, e := range enums {
		if len(e.names) == 0 || e.word == "" {
			t.Errorf("enum %q is empty", noun)
		}
	}
	if kinds := enums["event kind"].names; len(kinds) != len(eventKinds) || kinds[KindGPUHeal] != "gpu_heal" {
		t.Errorf("event kind names %v do not index eventKinds", kinds)
	}
}

// TestParseAllocs pins what a lazily built error context buys: the
// per-block decoders formatted one per field and parsed az-outage.yaml
// in 332 allocations; the schema walk takes about 225.
func TestParseAllocs(t *testing.T) {
	src, err := os.ReadFile("../../scenarios/az-outage.yaml")
	if err != nil {
		t.Fatal(err)
	}
	const ceiling = 332
	got := testing.AllocsPerRun(100, func() {
		if _, err := Parse(string(src)); err != nil {
			t.Fatal(err)
		}
	})
	if got > ceiling {
		t.Errorf("Parse(az-outage.yaml) = %v allocs, ceiling %d", got, ceiling)
	}
}

// TestDegenerateValues feeds Parse the numbers that used to reach Run
// and panic it (makeslice, divide by zero, non-positive sample step,
// counter decrement, zero-width SLO window, Zipf skew outside (0, 1), a
// preload larger than a machine) or exhaust memory (a sample step that
// cuts the horizon into millions),
// their neighbours, and the odd values that have always run. Parse must
// reject with a located message or accept; whatever it accepts, Run
// must survive.
func TestDegenerateValues(t *testing.T) {
	top := func(line string) string { return minimal + line + "\n" }
	workload := func(line string) string {
		return strings.Replace(minimal, "  stores: 2\n", "  stores: 2\n  "+line+"\n", 1)
	}
	slo := func(line string) string { return minimal + "slo:\n  " + line + "\n" }
	// One store a machine and 1 MiB of memory: 32 objects of 32768 bytes.
	tight := func(objectBytes string) string {
		return strings.Replace(workload("object_bytes: "+objectBytes), "  machines: 3\n", "  machines: 3\n  mem_mb: 1\n", 1)
	}
	cases := []struct{ name, src, want string }{
		{"preload one byte too many", tight("32705"), `scenario "mini": the preload does not fit: fleet.mem_mb 1 leaves 32768 bytes an object on the machine holding 1 × 32 of them (stores × objects), and object_bytes 32705 + 64 of overhead is more — raise fleet.mem_mb or shrink workload.objects × object_bytes`},
		{"preload fills memory exactly", tight("32704"), ""},
		{"object_bytes at the top of int64", workload("object_bytes: 9223372036854775807"), `scenario "mini": the preload does not fit: fleet.mem_mb 64 leaves 2097152 bytes an object on the machine holding 1 × 32 of them (stores × objects), and object_bytes 9223372036854775807 + 64 of overhead is more — raise fleet.mem_mb or shrink workload.objects × object_bytes`},
		{"mem_mb past 63 bits of bytes", strings.Replace(minimal, "  machines: 3\n", "  machines: 3\n  mem_mb: 8796093022208\n", 1), `scenario "mini": fleet.mem_mb 8796093022208 is more bytes than fit in 63 bits`},
		{"bucket_ms negative", top("bucket_ms: -1"), `field "bucket_ms": must be >= 1e-6 (line 11)`},
		{"bucket_ms rounds to 0ns", top("bucket_ms: 0.0000001"), `field "bucket_ms": must be >= 1e-6 (line 11)`},
		{"bucket_ms unset", top("bucket_ms: 0"), ""},
		{"drain_ms negative", top("drain_ms: -50"), `field "drain_ms": must be >= 0 (line 11)`},
		{"drain_ms unset", top("drain_ms: 0"), ""},
		{"horizon_ms negative", strings.Replace(minimal, "horizon_ms: 4", "horizon_ms: -4", 1), `field "horizon_ms": must be >= 0.001 (line 2)`},
		{"horizon_ms rounds to 0ns", strings.Replace(minimal, "horizon_ms: 4", "horizon_ms: 0.0000001", 1), `field "horizon_ms": must be >= 0.001 (line 2)`},
		{"horizon_ms not a finite number", strings.Replace(minimal, "horizon_ms: 4", "horizon_ms: inf", 1), `field "horizon_ms": expected a number, got "inf" (line 2)`},
		{"sample_step_ms negative", workload("sample_step_ms: -1"), `workload: field "sample_step_ms": must be >= 1e-6 (line 7)`},
		{"sample_step_ms rounds to 0ns", workload("sample_step_ms: 0.0000001"), `workload: field "sample_step_ms": must be >= 1e-6 (line 7)`},
		{"sample_step_ms at its floor", workload("sample_step_ms: 0.000001"), `scenario "mini": workload: sample_step_ms 1e-06 cuts horizon_ms 4 into 4000000 rate-curve points (limit 100000)`},
		{"sample_step_ms one point too fine", workload("sample_step_ms: 0.0000399996"), `scenario "mini": workload: sample_step_ms 3.99996e-05 cuts horizon_ms 4 into 100001 rate-curve points (limit 100000)`},
		{"sample_step_ms at the point limit", workload("sample_step_ms: 0.00004"), ""},
		{"object_bytes negative", workload("object_bytes: -5"), `workload: field "object_bytes": must be >= 0 (line 7)`},
		{"object_bytes zero", workload("object_bytes: 0"), ""},
		{"deadline_us zero", workload("deadline_us: 0"), `workload: field "deadline_us": must be positive (line 7)`},
		{"deadline_us negative", workload("deadline_us: -5"), `workload: field "deadline_us": must be positive (line 7)`},
		{"deadline_us one nanosecond", workload("deadline_us: 0.001"), ""},
		{"batch_max zero", workload("batch_max: 0"), `workload: field "batch_max": must be >= 1 (line 7)`},
		{"machines too few", strings.Replace(minimal, "machines: 3", "machines: 1", 1), `fleet: field "machines": must be >= 2 (line 4)`},
		{"slo window rounds to 0ns", slo("window_ms: 0.0000001"), `slo: field "window_ms": must be >= 1e-6 (line 12)`},
		{"slo window negative", slo("window_ms: -1"), `slo: field "window_ms": must be >= 1e-6 (line 12)`},
		{"slo window zero, no rules", slo("window_ms: 0"), ""},
		{"slo ring empty", slo("windows: 0"), `slo: field "windows": must be >= 1 (line 12)`},
		{"trainer batch negative", workload("trainers:\n    batch_kb: -1"), `trainers: field "batch_kb": must be >= 0 (line 8)`},
		{"tenant keys zero", minimal + "      keys: 0\n", `tenants[0]: field "keys": must be positive (line 11)`},
		{"tenant zipf one", minimal + "      zipf: 1\n", `scenario "mini": tenant "web": zipf must be in (0, 1) (got 1)`},
		{"tenant zipf unset", minimal + "      zipf: 0\n", ""},
		{"tenant zipf just inside", minimal + "      zipf: 0.999\n      keys: 3\n", ""},
		{"offered load over the run budget", strings.Replace(minimal, "rate: 50000", "rate: 1e11", 1), `scenario "mini": the tenants offer up to 4e+08 requests over horizon_ms 4 (peak rate × spike mults × horizon; limit 25000000) — shrink a tenant's rate, a spike's mult or horizon_ms`},
		{"spike mult over the run budget", minimal + "events:\n  - at_ms: 1\n    kind: spike\n    tenant: web\n    mult: 1e9\n    ramp_ms: 0.5\n    decay_ms: 0.5\n", `scenario "mini": the tenants offer up to 2e+11 requests over horizon_ms 4 (peak rate × spike mults × horizon; limit 25000000) — shrink a tenant's rate, a spike's mult or horizon_ms`},
		{"offered load one request over", strings.Replace(minimal, "rate: 50000", "rate: 6250000250", 1), `scenario "mini": the tenants offer up to 2.5e+07 requests over horizon_ms 4 (peak rate × spike mults × horizon; limit 25000000) — shrink a tenant's rate, a spike's mult or horizon_ms`},
		{"machines over the run budget", strings.Replace(minimal, "  machines: 3\n", "  machines: 3\n  shards: 100000\n", 1), `scenario "mini": fleet.shards 100000 × fleet.machines 3 is 300000 machines (limit 100000) — shrink either`},
		{"machines one over", strings.Replace(minimal, "  machines: 3\n", "  machines: 100001\n", 1), `scenario "mini": fleet.shards 1 × fleet.machines 100001 is 100001 machines (limit 100000) — shrink either`},
		{"machines product past int64", strings.Replace(minimal, "  machines: 3\n", "  machines: 4294967296\n  shards: 4294967296\n", 1), `scenario "mini": fleet.shards 4294967296 × fleet.machines 4294967296 is 18446744073709551616 machines (limit 100000) — shrink either`},
		{"servers over the run budget", workload("servers: 10000000"), `scenario "mini": workload.servers 10000000 is more than a shard can poll (limit 1000) — shrink it`},
		{"servers at the limit", workload("servers: 1000"), ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sp, err := Parse(tc.src)
			if tc.want != "" {
				if err == nil || err.Error() != tc.want {
					t.Fatalf("Parse error = %v\nwant %s", err, tc.want)
				}
				return
			}
			if err != nil {
				t.Fatalf("Parse rejected a value that has always run: %v", err)
			}
			if _, err := Run(sp, Options{}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// fieldReference renders the schema as DESIGN.md's field-reference
// table: one row per field, blocks in declaration order. An empty
// default is the type's zero value.
func fieldReference() string {
	types := map[reflect.Kind]string{reflect.String: "string", reflect.Bool: "bool", reflect.Float64: "float",
		reflect.Int: "int", reflect.Int64: "int", reflect.Uint64: "int",
		reflect.Struct: "mapping", reflect.Slice: "sequence of mappings"}
	var sb strings.Builder
	sb.WriteString("| field | type | default | bounds | values |\n|---|---|---|---|---|\n")
	walk(schema, "", func(path string, b *block) {
		for i := range b.fields {
			f := &b.fields[i]
			typ, def, values := types[f.kind], f.def, ""
			if f.required {
				def = "required"
			} else if f.zero != "" {
				def = "unset = " + f.zero
			}
			if f.noun == "metric" {
				typ, values = "enum", "every metric of the report (`MetricNames`)"
			} else if f.enum != nil {
				typ, values = "enum", "`"+strings.Join(f.enum.names, "` `")+"`"
			}
			fmt.Fprintf(&sb, "| `%s` | %s | %s | %s | %s |\n",
				strings.TrimPrefix(path+"."+f.name, "."), typ, def, f.bound, values)
		}
	})
	return sb.String()
}

// TestDesignFieldReference fails when DESIGN.md's field-reference table
// and the schema drift apart; the failure prints the table to paste.
func TestDesignFieldReference(t *testing.T) {
	doc, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	if want := fieldReference(); !strings.Contains(string(doc), want) {
		t.Errorf("DESIGN.md's scenario field reference is not what the schema renders; replace it with:\n%s", want)
	}
}
