//go:build race

package sweep

// raceEnabled reports whether the race detector is compiled in. The
// per-cell allocation budget skips under it: race instrumentation pads
// heap objects, so byte counts stop measuring the code.
const raceEnabled = true
