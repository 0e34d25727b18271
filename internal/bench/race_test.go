//go:build race

package bench

// raceEnabled reports a -race build. Under the race detector sync.Pool
// drops a random quarter of the items put back into it, so code that
// takes scratch objects from a pool allocates a fresh one on some calls
// that would otherwise hit the pool.
const raceEnabled = true
