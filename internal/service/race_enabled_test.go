//go:build race

package service

// raceEnabled reports that this test binary runs under the race
// detector, whose sync.Pool drops pooled items at random and so voids
// allocation-count assertions.
const raceEnabled = true
