//go:build race

package aquoman

// The race runtime randomizes sync.Pool behavior (deliberate fake
// misses), so tests that count allocations skip their bound under it.
const raceEnabled = true
