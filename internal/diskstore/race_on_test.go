//go:build race

package diskstore

// raceEnabled gates tests whose invariants the race detector breaks by
// design (sync.Pool deliberately drops items under -race, so pooled paths
// allocate nondeterministically).
const raceEnabled = true
