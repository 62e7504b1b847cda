package main

// A minimal reader for the gzipped protobuf CPU profile runtime/pprof
// writes, and the aggregation of its samples into the cpu_share.*
// buckets. Only the fields the aggregation needs are decoded (samples,
// locations, functions, strings); see the profile.proto in
// github.com/google/pprof for the full schema.

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

var errTruncated = errors.New("pprof: truncated protobuf")

// fields calls fn for every field of one protobuf message: v holds a
// varint or fixed-width value, data a length-delimited one.
func fields(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n == 0 {
			return errTruncated
		}
		b = b[n:]
		var v uint64
		var data []byte
		switch key & 7 {
		case 0:
			if v, n = uvarint(b); n == 0 {
				return errTruncated
			}
			b = b[n:]
		case 1, 5:
			width := 8
			if key&7 == 5 {
				width = 4
			}
			if len(b) < width {
				return errTruncated
			}
			for i := width - 1; i >= 0; i-- {
				v = v<<8 | uint64(b[i])
			}
			b = b[width:]
		case 2:
			l, n := uvarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		default:
			return fmt.Errorf("pprof: unsupported wire type %d", key&7)
		}
		if err := fn(int(key>>3), v, data); err != nil {
			return err
		}
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// repeated appends a repeated varint field, packed or not.
func repeated(dst []uint64, v uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return append(dst, v), nil
	}
	for len(data) > 0 {
		x, n := uvarint(data)
		if n == 0 {
			return nil, errTruncated
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst, nil
}

// profileSample is one stack, leaf first, as function names, with the
// last of its values (CPU nanoseconds in a CPU profile).
type profileSample struct {
	stack  []string
	weight int64
}

// readProfile decodes the samples of a gzipped pprof profile.
func readProfile(gz []byte) ([]profileSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}

	type rawSample struct {
		locs   []uint64
		weight int64
	}
	var samples []rawSample
	locFuncs := map[uint64][]uint64{} // location id -> function ids, innermost inlined frame first
	funcName := map[uint64]uint64{}   // function id -> string index
	var strs []string

	err = fields(raw, func(num int, _ uint64, data []byte) error {
		switch num {
		case 2: // Sample
			var s rawSample
			var vals []uint64
			err := fields(data, func(num int, v uint64, data []byte) (err error) {
				switch num {
				case 1:
					s.locs, err = repeated(s.locs, v, data)
				case 2:
					vals, err = repeated(vals, v, data)
				}
				return err
			})
			if err != nil {
				return err
			}
			if len(vals) > 0 {
				s.weight = int64(vals[len(vals)-1])
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			err := fields(data, func(num int, v uint64, data []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return fields(data, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFuncs[id] = fns
		case 5: // Function
			var id, name uint64
			err := fields(data, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	out := make([]profileSample, 0, len(samples))
	for _, s := range samples {
		ps := profileSample{weight: s.weight}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if idx := funcName[fn]; idx < uint64(len(strs)) {
					ps.stack = append(ps.stack, strs[idx])
				}
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

// packageOf returns the import path of a symbol such as
// "repro/internal/sharded.(*Map[go.shape.int]).Put".
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// Runtime frames that say what the runtime was doing for the program.
// runtimeSched is the coroutine handoff: every blocking simulated
// process parks and is readied through these.
var (
	runtimeGC = map[string]bool{
		"runtime.gcBgMarkWorker": true, "runtime.gcAssistAlloc": true, "runtime.gcDrain": true,
		"runtime.bgsweep": true, "runtime.bgscavenge": true, "runtime.gcStart": true,
		"runtime.gcMarkDone": true, "runtime.gcMarkTermination": true,
	}
	runtimeMalloc = map[string]bool{
		"runtime.mallocgc": true, "runtime.newobject": true, "runtime.newarray": true,
		"runtime.makeslice": true, "runtime.growslice": true, "runtime.makemap": true,
		"runtime.makechan": true,
	}
	runtimeSched = map[string]bool{
		"runtime.gopark": true, "runtime.goready": true, "runtime.ready": true,
		"runtime.schedule": true, "runtime.park_m": true, "runtime.mcall": true,
		"runtime.findRunnable": true, "runtime.execute": true, "runtime.wakep": true,
		"runtime.stopm": true, "runtime.startm": true, "runtime.notesleep": true,
		"runtime.notewakeup": true, "runtime.futex": true, "runtime.goexit0": true,
		"runtime.newproc": true, "runtime.chansend": true, "runtime.chanrecv": true,
		"runtime.chansend1": true, "runtime.chanrecv1": true, "runtime.selectgo": true,
		"runtime.gosched_m": true, "runtime.goschedImpl": true,
	}
)

const internalPrefix = "repro/internal/"

// bucketOf attributes one stack (leaf first) to a cpu_share bucket. The
// runtime frames at the leaf decide between gc, malloc and sched when
// they name one of those; otherwise the sample belongs to the nearest
// frame of an internal package, so a map access or a math/rand draw is
// charged to the layer that asked for it.
func bucketOf(stack []string) string {
	inRuntime := true
	for _, fn := range stack {
		pkg := packageOf(fn)
		if inRuntime && (pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/")) {
			switch {
			case runtimeGC[fn]:
				return "runtime_gc"
			case runtimeMalloc[fn]:
				return "runtime_malloc"
			case runtimeSched[fn]:
				return "runtime_sched"
			}
			continue
		}
		inRuntime = false
		if rest, ok := strings.CutPrefix(pkg, internalPrefix); ok {
			name, _, _ := strings.Cut(rest, "/")
			for _, s := range cpuShares {
				if s == name {
					return name
				}
			}
			return "other"
		}
	}
	return "other"
}

// cpuShareOf returns each bucket's share of the profile's CPU time.
func cpuShareOf(samples []profileSample) map[string]float64 {
	shares := make(map[string]float64, len(cpuShares))
	var total float64
	for _, s := range samples {
		shares[bucketOf(s.stack)] += float64(s.weight)
		total += float64(s.weight)
	}
	if total > 0 {
		for k := range shares {
			shares[k] /= total
		}
	}
	return shares
}
