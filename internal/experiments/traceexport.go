package experiments

import (
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// traceDir, when set, makes the traced experiments (fig1's quicksand
// mode, ext-failover's RF=2 crash run, ext-memharvest, ext-serve) record
// causal spans plus resource telemetry and export the run twice:
// <dir>/<name>.trace.json is Chrome trace-event JSON, <dir>/<name>.jsonl
// the compact record stream `qsctl analyze` digests. The default of
// empty leaves every run untraced, so kernel event counts and the
// BENCH_*.json baselines are unaffected.
var traceDir string

// SetTraceDir sets the trace export directory ("" disables). Not safe
// to call concurrently with Run.
func SetTraceDir(dir string) { traceDir = dir }

// TraceDir returns the current trace export directory.
func TraceDir() string { return traceDir }

// maybeTrace enables span tracing and telemetry on sys when a trace
// directory is configured. Telemetry sampling schedules kernel events,
// so a traced run's event count differs from an untraced one — which
// is why tracing hangs off an explicit opt-in directory instead of
// being always on.
func maybeTrace(sys *core.System) {
	if traceDir == "" {
		return
	}
	sys.EnableTracing()
	sys.EnableTelemetry(250 * time.Microsecond)
}

// maybeExportTrace writes sys's recorded timeline to
// <traceDir>/<name>.trace.json and <traceDir>/<name>.jsonl; a no-op
// when tracing is off.
func maybeExportTrace(name string, sys *core.System) error {
	if traceDir == "" || sys.Obs == nil {
		return nil
	}
	for _, out := range []struct {
		ext   string
		write func(io.Writer, *obs.Tracer, *obs.Telemetry) error
	}{{".trace.json", obs.WriteChromeTrace}, {".jsonl", obs.WriteJSONL}} {
		f, err := os.Create(filepath.Join(traceDir, name+out.ext))
		if err != nil {
			return err
		}
		err = out.write(f, sys.Obs, sys.Tel)
		f.Close()
		if err != nil {
			return err
		}
	}
	return nil
}
