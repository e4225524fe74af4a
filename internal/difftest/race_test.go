//go:build race

package difftest

// raceEnabled reports that the race detector is on. It slows simulation
// about twentyfold, so tests whose work is sized in host time scale it down.
const raceEnabled = true
