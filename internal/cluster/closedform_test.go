package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/sim"
)

// The processor-sharing CPU against queueing theory. Each runnable task
// gets an equal share of the available cores, capped at one, so under
// Poisson arrivals and exponential work the number of tasks on a c-core
// machine is the M/M/c birth–death chain — departures at min(N, c)·μ —
// and by Little's law its mean sojourn is M/M/c's:
//
//	E[T] = S + C(c, a)·S/(c − a),  a = λS, ρ = a/c,
//
// with C the Erlang C probability of waiting. On one core processor
// sharing is insensitive to the work distribution: E[T] = S/(1 − ρ) for
// any work of mean S.
//
// Tolerances are batch means: the jobs after a warm-up, in arrival order,
// are cut into 10 batches — 28,500 jobs each at ρ = 0.95, at least 2,400
// elsewhere. A batch is then over 15 relaxation times of the queue (one
// core's is 1/(μ(1−√ρ)²): 1,560 S at ρ = 0.95, 89 S at 0.8), so the batch
// means are close to independent and normal. The measured mean must be
// within 5 standard errors of the closed form, 5 being above the 0.9995
// quantile of Student's t with 9 degrees of freedom (4.78).

// machineRun is a run of Poisson arrivals at rate lambda (a second) onto
// one machine, each job's work drawn by work; at is, if positive, when
// the reservation steps to reserve.
type machineRun struct {
	cores, reserve float64
	at             sim.Time
	lambda         float64
	jobs, warm     int
	work           func(*rand.Rand) time.Duration
}

// sojourns runs r and returns, for each job after the warm-up in arrival
// order, the time from its arrival to its completion in units of the
// mean work S.
func (r machineRun) sojourns(seed int64, s time.Duration) []float64 {
	k := sim.NewKernel(seed)
	defer k.Close()
	rng := rand.New(rand.NewSource(seed))
	m := NewMachine(k, 0, "m", MachineConfig{Cores: r.cores})
	if r.at > 0 {
		k.Schedule(r.at, func() { m.SetReserved(r.reserve) })
	}
	out := make([]float64, r.jobs)
	at := sim.Time(0)
	for i := 0; i < r.jobs; i++ {
		i, w := i, r.work(rng)
		at += sim.Time(rng.ExpFloat64() / r.lambda * 1e9)
		k.Schedule(at, func() {
			k.Spawn("job", func(p *sim.Proc) {
				start := p.Now()
				m.Exec(p, w)
				out[i] = float64(p.Now()-start) / float64(s)
			})
		})
	}
	k.Run()
	return out[r.warm:]
}

// batchMeans returns the mean of xs and its standard error from 10 batch
// means.
func batchMeans(xs []float64) (mean, se float64) {
	const batches = 10
	n := len(xs) / batches
	var ms [batches]float64
	for b := range ms {
		for _, x := range xs[b*n : (b+1)*n] {
			ms[b] += x
		}
		ms[b] /= float64(n)
		mean += ms[b] / batches
	}
	var ss float64
	for _, m := range ms {
		ss += (m - mean) * (m - mean)
	}
	return mean, math.Sqrt(ss / (batches - 1) / batches)
}

// erlangC is the probability that an arrival to M/M/c at offered load a
// waits.
func erlangC(c int, a float64) float64 {
	sum, term := 0.0, 1.0 // term: a^k/k!
	for k := 0; k < c; k++ {
		if k > 0 {
			term *= a / float64(k)
		}
		sum += term
	}
	term *= a / float64(c)
	wait := term / (1 - a/float64(c))
	return wait / (sum + wait)
}

// checkSojourn holds a run's mean sojourn to want (in units of S).
func checkSojourn(t *testing.T, name string, xs []float64, want float64) {
	t.Helper()
	mean, se := batchMeans(xs)
	t.Logf("%s: mean sojourn %.3f S, closed form %.3f S, SE %.3f S", name, mean, want, se)
	if math.Abs(mean-want) > 5*se {
		t.Errorf("%s: mean sojourn %.3f S, closed form %.3f S: off by %.1f standard errors (SE %.3f S, %d jobs)",
			name, mean, want, math.Abs(mean-want)/se, se, len(xs))
	}
}

func expWork(s time.Duration) func(*rand.Rand) time.Duration {
	return func(rng *rand.Rand) time.Duration { return time.Duration(rng.ExpFloat64()*float64(s)) + 1 }
}

// TestMachineSojournIsErlangC: with Poisson arrivals and exponential work,
// mean sojourn matches Erlang C for c ∈ {1, 4, 16} at ρ ∈ {0.5, 0.8, 0.95}
// (c ∈ {1, 4} at ρ ∈ {0.5, 0.8} with -short).
//
// Hand mutations this fails on (each tried): a task's share not capped at
// one core; service accrued at 90% of the share.
func TestMachineSojournIsErlangC(t *testing.T) {
	const s = 100 * time.Microsecond
	cs, rhos := []int{1, 4, 16}, []float64{0.5, 0.8, 0.95}
	if testing.Short() {
		cs, rhos = cs[:2], rhos[:2]
	}
	for _, c := range cs {
		for _, rho := range rhos {
			jobs := 100_000
			if rho > 0.9 {
				jobs = 300_000
			}
			a := rho * float64(c)
			r := machineRun{cores: float64(c), lambda: a / s.Seconds(), jobs: jobs, warm: jobs / 20, work: expWork(s)}
			want := 1 + erlangC(c, a)/(float64(c)-a)
			checkSojourn(t, fmt.Sprintf("c=%d ρ=%.2f", c, rho), r.sojourns(int64(c)*100+int64(rho*100), s), want)
		}
	}
}

// TestMachineProcessorSharingIsInsensitive: on one core, mean sojourn is
// S/(1 − ρ) at ρ = 0.8 for deterministic, exponential and bimodal work of
// the same mean S; and, for deterministic work on four cores of which a
// reservation steps to take three, after the step it is S/(1 − ρ) at the
// load on the one core left (ρ = 0.7).
//
// Hand mutations this fails on (each tried): the capacity shared among
// one task more than there are; the reservation left out of the capacity
// the tasks share.
func TestMachineProcessorSharingIsInsensitive(t *testing.T) {
	const s = 100 * time.Microsecond
	jobs := 100_000
	if testing.Short() {
		jobs = 30_000
	}
	fixed := func(*rand.Rand) time.Duration { return s }
	for _, d := range []struct {
		name string
		work func(*rand.Rand) time.Duration
	}{
		{"deterministic", fixed},
		{"exponential", expWork(s)},
		{"bimodal 90% S/2, 10% 5.5 S", func(rng *rand.Rand) time.Duration {
			if rng.Float64() < 0.9 {
				return s / 2
			}
			return 11 * s / 2
		}},
	} {
		r := machineRun{cores: 1, lambda: 0.8 / s.Seconds(), jobs: jobs, warm: jobs / 20, work: d.work}
		checkSojourn(t, d.name, r.sojourns(7, s), 1/(1-0.8))
	}

	// The step comes after the first tenth of the jobs arrived; the next
	// tenth settle the one-core queue and are not measured.
	lambda := 0.7 / s.Seconds()
	step := sim.Time(float64(jobs) / 10 / lambda * 1e9)
	r := machineRun{cores: 4, reserve: 3, at: step, lambda: lambda, jobs: jobs, warm: jobs / 5, work: fixed}
	checkSojourn(t, "deterministic after SetReserved(3) of 4 cores", r.sojourns(8, s), 1/(1-0.7))
}
