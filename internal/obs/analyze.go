package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/metrics"
)

// Run-timeline analysis over a trace file's records (qsctl analyze):
// slowest migrations with their causes, RPC latency percentiles by
// method, and per-machine utilization timelines.

// MigrationStat is one migration span, slowest-first in Report.
type MigrationStat struct {
	Name      string
	From, To  int
	Bytes     int64
	LatencyMS float64
	Cause     string // kind:name of the root pressure/sched span, "" if none
}

// MethodStat aggregates call latency for one (kind, method) pair.
// Quantiles come from a fixed-bucket metrics.LogHistogram, so analyzing
// a million-call run retains no per-call samples and p999 is available
// at the same cost as p50.
type MethodStat struct {
	Kind   string
	Method string
	Count  int
	P50MS  float64
	P99MS  float64
	P999MS float64
	MaxMS  float64
	Errs   int
}

// MachineUtil is one machine's sampled utilization summary.
type MachineUtil struct {
	Machine  int
	CPUMean  float64 // mean of sampled utilization fraction
	CPUMax   float64
	MemMean  float64
	MemMax   float64
	TxBytes  float64 // final cumulative counter values
	RxBytes  float64
	Timeline []float64 // CPU utilization averaged into 10 buckets
}

// IncidentStat is one SLO incident span (internal/obs/slo), in open
// order in Report.
type IncidentStat struct {
	Rule       string
	Subject    string
	Severity   string
	OpenNS     int64
	CloseNS    int64
	StillOpen  bool
	Cause      string // causal control-plane event, "-" rendering when none
	ParentSpan string // kind:name of the causal parent span, "" when none
}

// Report is the digest of one exported run.
type Report struct {
	Spans      int
	Samples    int
	HorizonNS  int64
	Migrations []MigrationStat
	Methods    []MethodStat
	Machines   []MachineUtil
	Incidents  []IncidentStat
}

// Analyze digests a trace file's records into a Report.
func Analyze(recs []Record) *Report {
	rp := &Report{}
	byID := map[uint64]*Record{}
	for i := range recs {
		if recs[i].Type == "span" {
			byID[recs[i].ID] = &recs[i]
		}
	}

	// rootCause walks parents to the outermost pressure/sched ancestor.
	// A chain visits each recorded span at most once, so a walk longer
	// than that is a parent cycle in a damaged stream, and it stops.
	rootCause := func(r *Record) string {
		cause := ""
		for p, hops := r.Parent, 0; p != 0 && hops < len(byID); hops++ {
			pr, ok := byID[p]
			if !ok {
				break
			}
			if pr.Kind == KindPressure || pr.Kind == KindSched || pr.Kind == KindRepl {
				cause = pr.Kind + ":" + pr.Name
				if pr.Machine >= 0 {
					cause += fmt.Sprintf(" m%d", pr.Machine)
				}
			}
			p = pr.Parent
		}
		return cause
	}

	type methodKey struct{ kind, method string }
	hists := map[methodKey]*metrics.LogHistogram{}
	errs := map[methodKey]int{}
	type mutil struct {
		cpu, mem []Record
		tx, rx   float64
	}
	machines := map[int]*mutil{}

	for i := range recs {
		r := &recs[i]
		switch r.Type {
		case "span":
			rp.Spans++
			if r.EndNS > rp.HorizonNS {
				rp.HorizonNS = r.EndNS
			}
			durMS := float64(r.EndNS-r.StartNS) / 1e6
			switch r.Kind {
			case KindMigrate:
				rp.Migrations = append(rp.Migrations, MigrationStat{
					Name: r.Name, From: r.From, To: r.To, Bytes: r.Bytes,
					LatencyMS: durMS, Cause: rootCause(r),
				})
			case KindRPC, KindInvoke:
				k := methodKey{r.Kind, r.Name}
				h := hists[k]
				if h == nil {
					h = metrics.NewLogHistogram(r.Name)
					hists[k] = h
				}
				h.Record(r.EndNS - r.StartNS)
				if r.Err != "" {
					errs[k]++
				}
			case KindIncident:
				st := IncidentStat{
					Rule:     r.Name,
					Subject:  r.Attrs["subject"],
					Severity: r.Attrs["severity"],
					Cause:    r.Attrs["cause"],
					OpenNS:   r.StartNS,
					CloseNS:  r.EndNS,
				}
				if r.Nums["still_open"] == 1 {
					st.StillOpen = true
				}
				if pr, ok := byID[r.Parent]; ok {
					st.ParentSpan = pr.Kind + ":" + pr.Name
				}
				rp.Incidents = append(rp.Incidents, st)
			}
		case "sample":
			rp.Samples++
			if r.AtNS > rp.HorizonNS {
				rp.HorizonNS = r.AtNS
			}
			if r.Machine < 0 {
				continue
			}
			mu := machines[r.Machine]
			if mu == nil {
				mu = &mutil{}
				machines[r.Machine] = mu
			}
			switch {
			case strings.HasSuffix(r.Series, ".cpu_util"):
				mu.cpu = append(mu.cpu, *r)
			case strings.HasSuffix(r.Series, ".mem_frac"):
				mu.mem = append(mu.mem, *r)
			case strings.HasSuffix(r.Series, ".net_tx_bytes"):
				if r.Value > mu.tx {
					mu.tx = r.Value
				}
			case strings.HasSuffix(r.Series, ".net_rx_bytes"):
				if r.Value > mu.rx {
					mu.rx = r.Value
				}
			}
		}
	}

	sort.SliceStable(rp.Migrations, func(i, j int) bool {
		return rp.Migrations[i].LatencyMS > rp.Migrations[j].LatencyMS
	})

	// Incident spans are recorded at close time; the timeline reads in
	// open order.
	sort.SliceStable(rp.Incidents, func(i, j int) bool {
		return rp.Incidents[i].OpenNS < rp.Incidents[j].OpenNS
	})

	keys := make([]methodKey, 0, len(hists))
	for k := range hists {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].kind != keys[j].kind {
			return keys[i].kind < keys[j].kind
		}
		return keys[i].method < keys[j].method
	})
	for _, k := range keys {
		h := hists[k]
		rp.Methods = append(rp.Methods, MethodStat{
			Kind: k.kind, Method: k.method, Count: int(h.Count()),
			P50MS: h.QuantileMS(0.50), P99MS: h.QuantileMS(0.99),
			P999MS: h.QuantileMS(0.999), MaxMS: float64(h.Max()) / 1e6,
			Errs: errs[k],
		})
	}

	mids := make([]int, 0, len(machines))
	for id := range machines {
		mids = append(mids, id)
	}
	sort.Ints(mids)
	for _, id := range mids {
		mu := machines[id]
		u := MachineUtil{Machine: id, TxBytes: mu.tx, RxBytes: mu.rx}
		u.CPUMean, u.CPUMax = meanMax(mu.cpu)
		u.MemMean, u.MemMax = meanMax(mu.mem)
		u.Timeline = bucketize(mu.cpu, rp.HorizonNS, 10)
		rp.Machines = append(rp.Machines, u)
	}

	return rp
}

func meanMax(samples []Record) (mean, max float64) {
	if len(samples) == 0 {
		return 0, 0
	}
	var sum float64
	for _, s := range samples {
		sum += s.Value
		if s.Value > max {
			max = s.Value
		}
	}
	return sum / float64(len(samples)), max
}

// bucketize averages samples into n equal time buckets over [0, horizon].
func bucketize(samples []Record, horizon int64, n int) []float64 {
	if len(samples) == 0 || horizon <= 0 {
		return nil
	}
	sums := make([]float64, n)
	counts := make([]int, n)
	for _, s := range samples {
		b := int(s.AtNS * int64(n) / (horizon + 1))
		if b < 0 {
			b = 0
		}
		if b >= n {
			b = n - 1
		}
		sums[b] += s.Value
		counts[b]++
	}
	out := make([]float64, n)
	for i := range sums {
		if counts[i] > 0 {
			out[i] = sums[i] / float64(counts[i])
		}
	}
	return out
}

// Print writes the report, listing at most topN migrations.
func (rp *Report) Print(w io.Writer, topN int) {
	fmt.Fprintf(w, "run: %d spans, %d samples, horizon %.3f ms\n",
		rp.Spans, rp.Samples, float64(rp.HorizonNS)/1e6)

	fmt.Fprintf(w, "\n-- slowest migrations (top %d of %d) --\n", topN, len(rp.Migrations))
	if len(rp.Migrations) == 0 {
		fmt.Fprintln(w, "(none)")
	} else {
		fmt.Fprintf(w, "%-24s %8s %12s %12s  %s\n", "proclet", "route", "bytes", "latency", "cause")
		for i, m := range rp.Migrations {
			if i >= topN {
				break
			}
			cause := m.Cause
			if cause == "" {
				cause = "-"
			}
			fmt.Fprintf(w, "%-24s %3d->%-3d %12d %9.3f ms  %s\n",
				m.Name, m.From, m.To, m.Bytes, m.LatencyMS, cause)
		}
	}

	if len(rp.Incidents) > 0 {
		fmt.Fprintf(w, "\n-- incident timeline (%d) --\n", len(rp.Incidents))
		fmt.Fprintf(w, "%-20s %-12s %-8s %12s %12s %10s  %s\n",
			"rule", "subject", "severity", "open", "close", "duration", "cause")
		for _, inc := range rp.Incidents {
			cause := inc.Cause
			if cause == "" {
				cause = "-"
			}
			if inc.ParentSpan != "" {
				cause += " [" + inc.ParentSpan + "]"
			}
			closeCol := fmt.Sprintf("%.1f ms", float64(inc.CloseNS)/1e6)
			if inc.StillOpen {
				closeCol = "open"
			}
			fmt.Fprintf(w, "%-20s %-12s %-8s %9.1f ms %12s %7.1f ms  %s\n",
				inc.Rule, inc.Subject, inc.Severity,
				float64(inc.OpenNS)/1e6, closeCol,
				float64(inc.CloseNS-inc.OpenNS)/1e6, cause)
		}
	}

	fmt.Fprintf(w, "\n-- call latency by method (ms) --\n")
	if len(rp.Methods) == 0 {
		fmt.Fprintln(w, "(none)")
	} else {
		fmt.Fprintf(w, "%-8s %-24s %8s %9s %9s %9s %9s %6s\n",
			"kind", "method", "count", "p50", "p99", "p999", "max", "errs")
		for _, ms := range rp.Methods {
			fmt.Fprintf(w, "%-8s %-24s %8d %9.4f %9.4f %9.4f %9.4f %6d\n",
				ms.Kind, ms.Method, ms.Count, ms.P50MS, ms.P99MS, ms.P999MS, ms.MaxMS, ms.Errs)
		}
	}

	fmt.Fprintf(w, "\n-- per-machine utilization --\n")
	if len(rp.Machines) == 0 {
		fmt.Fprintln(w, "(no telemetry samples)")
	}
	for _, m := range rp.Machines {
		fmt.Fprintf(w, "m%d: cpu mean %5.1f%% max %5.1f%% | mem mean %5.1f%% max %5.1f%% | tx %.1f KiB rx %.1f KiB\n",
			m.Machine, 100*m.CPUMean, 100*m.CPUMax, 100*m.MemMean, 100*m.MemMax,
			m.TxBytes/1024, m.RxBytes/1024)
		if len(m.Timeline) > 0 {
			fmt.Fprintf(w, "    cpu timeline:")
			for _, v := range m.Timeline {
				fmt.Fprintf(w, " %3.0f%%", 100*v)
			}
			fmt.Fprintln(w)
		}
	}
}
