//go:build race

package core

// raceEnabled reports a -race build, where sync.Pool drops a share of what
// it is given on purpose and allocation counts stop repeating.
const raceEnabled = true
