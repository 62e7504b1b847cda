package metrics

import (
	"testing"

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
