//go:build race

package trace

// raceEnabled reports a -race build, where the runtime allocates
// differently and allocation counts stop matching a normal build's.
const raceEnabled = true
