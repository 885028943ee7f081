//go:build !race

package relstore

const raceEnabled = false
