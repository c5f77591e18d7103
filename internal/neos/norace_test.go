//go:build !race

package neos

// raceEnabled reports whether this test binary was built with the race
// detector; timing budgets in the chaos suite scale up accordingly.
const raceEnabled = false
