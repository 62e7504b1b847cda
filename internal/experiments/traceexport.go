package experiments

import (
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/obs"
)

// traceDir, when set, makes the traced experiments (fig1's quicksand
// mode, ext-failover's RF=2 crash run, ext-memharvest, ext-serve) record
// causal spans plus resource telemetry and export the run as Chrome
// trace-event JSON to <dir>/<name>.trace.json, the file Perfetto opens
// and `qsctl analyze` digests. The default of empty leaves every run
// untraced, so kernel event counts and the BENCH_*.json baselines are
// unaffected.
var traceDir string

// SetTraceDir sets the trace export directory ("" disables). Not safe
// to call concurrently with Run.
func SetTraceDir(dir string) { traceDir = dir }

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
	sys.EnableTelemetry()
}

// maybeExportTrace writes sys's recorded timeline to
// <traceDir>/<name>.trace.json; a no-op when tracing is off.
func maybeExportTrace(name string, sys *core.System) error {
	if traceDir == "" || sys.Obs == nil {
		return nil
	}
	f, err := os.Create(filepath.Join(traceDir, name+".trace.json"))
	if err != nil {
		return err
	}
	err = obs.WriteChromeTrace(f, sys.Obs, sys.Tel)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
