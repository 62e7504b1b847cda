package metrics

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/sim"
)

func TestTimeSeriesAtStepFunction(t *testing.T) {
	s := NewTimeSeries("util")
	s.Add(10, 1.0)
	s.Add(20, 2.0)
	s.Add(30, 3.0)

	if _, ok := s.At(5); ok {
		t.Error("At before first sample should report !ok")
	}
	cases := []struct {
		at   sim.Time
		want float64
	}{{10, 1}, {15, 1}, {20, 2}, {29, 2}, {30, 3}, {100, 3}}
	for _, c := range cases {
		if v, ok := s.At(c.at); !ok || v != c.want {
			t.Errorf("At(%d) = %v,%v, want %v,true", c.at, v, ok, c.want)
		}
	}
}

func TestTimeSeriesOutOfOrderPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s := NewTimeSeries("x")
	s.Add(10, 1)
	s.Add(5, 2)
}

func TestBucketSeries(t *testing.T) {
	b := NewBucketSeries(time.Millisecond)
	b.Add(0, 1)
	b.Add(sim.Time(500*time.Microsecond), 2)
	b.Add(sim.Time(time.Millisecond), 4)
	b.Add(sim.Time(5*time.Millisecond), 8)
	if len(b.buckets) != 6 {
		t.Errorf("buckets = %d, want 6", len(b.buckets))
	}
	if b.Bucket(0) != 3 || b.Bucket(1) != 4 || b.Bucket(5) != 8 {
		t.Errorf("buckets = %v", b.buckets)
	}
	for _, i := range []int{2, 99, -1, -100} {
		if b.Bucket(i) != 0 {
			t.Errorf("Bucket(%d) = %v, want 0 (empty or out of range)", i, b.Bucket(i))
		}
	}
	if empty := NewBucketSeries(time.Millisecond); empty.Bucket(0) != 0 {
		t.Errorf("empty series Bucket(0) = %v, want 0", empty.Bucket(0))
	}
}

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Addn(4)
	if c.Value() != 5 {
		t.Errorf("Value = %d, want 5", c.Value())
	}
}

func TestCounterNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	var c Counter
	c.Addn(-1)
}

// Property: the buckets sum to the inserted values, and bucket
// assignment matches integer division.
func TestBucketSeriesTotalProperty(t *testing.T) {
	f := func(offsets []uint16) bool {
		b := NewBucketSeries(100 * time.Nanosecond)
		var want float64
		wantBuckets := map[int]float64{}
		for _, o := range offsets {
			t := sim.Time(o)
			b.Add(t, 1)
			want++
			wantBuckets[int(o/100)]++
		}
		var total float64
		for _, v := range b.buckets {
			total += v
		}
		if total != want {
			return false
		}
		for i, v := range wantBuckets {
			if b.Bucket(i) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
