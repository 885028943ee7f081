//go:build race

package relstore

// raceEnabled reports a -race build, where the race runtime allocates
// differently and allocation counts stop repeating.
const raceEnabled = true
