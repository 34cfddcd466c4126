// Package fleet names the in-process executor's two types under their
// old import path, and nothing else: the executor is package sweep. It
// exists only because the benchmark harness (benchmark/) still imports
// fleet.Ctx and fleet.Runner; the change that next edits benchmark/
// moves it onto sweep and deletes this package.
package fleet

import "repro/netfpga/sweep"

// Ctx is sweep.Ctx, the per-cell context a sweep.Measure runs in.
type Ctx = sweep.Ctx

// Runner is sweep.Runner, the in-process pool a sweep.Plan executes on.
type Runner = sweep.Runner
