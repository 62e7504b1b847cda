package main

// Host-speed calibration. The benchmark runs on a few cores of a shared
// host whose speed drifts by tens of percent over minutes (neighbours
// contending for caches, memory bandwidth and sibling threads; the guest
// sees no steal time, so CPU time drifts with wall time). A median over
// the reps of a run does not help: the whole run is slow or fast. So
// every timed segment is bracketed by two runs of a fixed kernel that
// depends on nothing but the Go runtime and the host, and its time is
// scaled by how long the kernel took beside it: wall_s and setup_s are
// seconds on a reference host, one on which the kernel takes calibRefS.

import (
	"container/heap"
	"runtime"
	"syscall"
	"time"
)

// calibOps is the kernel's operation count at full scale (100k made the
// scaled times twice as noisy, 600k no steadier and cost reps); calibRefS
// is how long that takes on the reference host, the 2-core VM this was
// written on, on a quiet stretch, so reported seconds read like seconds.
const (
	calibOps  = 300000
	calibRefS = 0.125
)

type calibObj struct {
	key  uint64
	next *calibObj
	pad  [4]uint64
}

type calibEvent struct {
	at  uint64
	obj *calibObj
}

type calibQueue []calibEvent

func (q calibQueue) Len() int           { return len(q) }
func (q calibQueue) Less(i, j int) bool { return q[i].at < q[j].at }
func (q calibQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *calibQueue) Push(x any)        { *q = append(*q, x.(calibEvent)) }
func (q *calibQueue) Pop() any {
	old := *q
	x := old[len(old)-1]
	*q = old[:len(old)-1]
	return x
}

var calibSink uint64

// calibrate times the kernel: what a simulator does to a host, in the
// small and with none of the simulator's code. Per operation it
// allocates a 64-byte object, links it into a 4096-bucket map (older
// objects become garbage), and pushes it as a timed event onto a binary
// heap of 1024 from which the earliest is popped; every eighth operation
// hands control to another goroutine and back over unbuffered channels.
// It returns the seconds a full-scale kernel would have taken.
func calibrate(ops int) float64 {
	start := time.Now()
	q := make(calibQueue, 0, 1100)
	live := make(map[uint64]*calibObj, 4096)
	ping, pong := make(chan uint64), make(chan uint64)
	go func() {
		for v := range ping {
			pong <- v + 1
		}
		close(pong)
	}()
	x := uint64(0x9e3779b97f4a7c15)
	var now, sum uint64
	for i := 0; i < ops; i++ {
		x += 0x9e3779b97f4a7c15 // splitmix64
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		o := &calibObj{key: z & 4095}
		o.next = live[o.key]
		if o.next != nil {
			o.next.next = nil
		}
		live[o.key] = o
		heap.Push(&q, calibEvent{at: now + z%1000, obj: o})
		if len(q) > 1024 {
			ev := heap.Pop(&q).(calibEvent)
			now = ev.at
			sum += ev.obj.key
		}
		if i%8 == 0 {
			ping <- sum
			sum = <-pong
		}
	}
	close(ping)
	<-pong
	calibSink = sum
	return time.Since(start).Seconds() * calibOps / float64(ops)
}

// measured is what a meter reports of the segments between begin and
// end: host seconds as they were, the same seconds scaled to the
// reference host, and heap objects and bytes allocated. The calibration
// kernel's own time and allocations are in none of them.
type measured struct {
	raw, norm      float64
	mallocs, bytes float64
	calib          float64 // mean calibration time, seconds
	segments       int
	peakRSS        float64 // MiB, of the process, read before the closing calibration
}

// meter times work in segments, each bracketed by two calibrations. A
// workload calls lap at its natural boundaries (between experiments), so
// that no stretch much longer than a second goes by without a reading of
// how fast the host is. A nil meter does nothing: the traced pass, whose
// times are per-layer readings, runs without one.
type meter struct {
	ops    int     // calibration kernel operations (calibOps, fewer at smoke scale)
	cal    float64 // the calibration that ended as the open segment began
	start  time.Time
	before runtime.MemStats
	sum    measured
}

// begin opens the first segment. It reuses the calibration a preceding
// end left behind, if any.
func (m *meter) begin() {
	m.sum = measured{}
	if m.cal == 0 {
		m.cal = calibrate(m.ops)
	}
	m.sum.calib = m.cal
	m.open()
}

// open collects garbage, so that the kernel's is never the workload's
// and every segment starts from a collected heap, then starts the clock.
func (m *meter) open() {
	runtime.GC()
	runtime.ReadMemStats(&m.before)
	m.start = time.Now()
}

// minSegmentS is the shortest segment lap will close: a workload with
// many short pieces is not calibrated after each of them.
const minSegmentS = 0.25

// lap closes the open segment and opens the next, unless the open
// segment is shorter than minSegmentS.
func (m *meter) lap() {
	if m == nil || time.Since(m.start).Seconds() < minSegmentS {
		return
	}
	m.close()
	m.open()
}

// close stops the clock on the open segment, calibrates, and adds the
// segment to the totals.
func (m *meter) close() {
	seg := time.Since(m.start).Seconds()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		m.sum.peakRSS = float64(ru.Maxrss) / 1024
	}
	cal := calibrate(m.ops)
	m.sum.raw += seg
	m.sum.norm += seg * calibRefS / ((m.cal + cal) / 2)
	m.sum.mallocs += float64(after.Mallocs - m.before.Mallocs)
	m.sum.bytes += float64(after.TotalAlloc - m.before.TotalAlloc)
	m.sum.calib += cal
	m.sum.segments++
	m.cal = cal
}

// end closes the last segment and returns the totals.
func (m *meter) end() measured {
	m.close()
	s := m.sum
	s.calib /= float64(s.segments + 1)
	return s
}
