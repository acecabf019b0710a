//go:build race

package dimplane

const raceEnabled = true
