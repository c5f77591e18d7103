package backoff

import (
	"math"
	"testing"
	"time"
)

func TestDelay(t *testing.T) {
	const ms = time.Millisecond
	cases := []struct {
		name      string
		base, max time.Duration
		attempt   int
		want      time.Duration
	}{
		{"attempt 0 is base", 100 * ms, 2 * time.Second, 0, 100 * ms},
		{"negative attempt is attempt 0", 100 * ms, 2 * time.Second, -3, 100 * ms},
		{"doubles per attempt", 100 * ms, 2 * time.Second, 1, 200 * ms},
		{"growth", 100 * ms, 2 * time.Second, 4, 1600 * ms},
		{"exactly at the cap", 250 * ms, time.Second, 2, time.Second},
		{"capped", 100 * ms, 2 * time.Second, 5, 2 * time.Second},
		{"base above max", 5 * time.Second, time.Second, 0, time.Second},
		{"base equals max", time.Second, time.Second, 3, time.Second},
		{"zero base", 0, time.Second, 10, 0},
		{"one nanosecond to the top", 1, math.MaxInt64, 62, 1 << 62},
	}
	for _, c := range cases {
		if got := Delay(c.base, c.max, c.attempt); got != c.want {
			t.Errorf("%s: Delay(%v, %v, %d) = %v, want %v", c.name, c.base, c.max, c.attempt, got, c.want)
		}
	}
}

// A shifted duration wraps negative from attempt 36 at a 250ms base; Delay
// must saturate at the cap for every attempt past it instead.
func TestDelaySaturatesWithoutOverflow(t *testing.T) {
	for _, max := range []time.Duration{time.Minute, math.MaxInt64} {
		for attempt := 36; attempt <= 200; attempt++ {
			if got := Delay(250*time.Millisecond, max, attempt); got != max {
				t.Fatalf("Delay(250ms, %v, %d) = %v, want the cap", max, attempt, got)
			}
		}
	}
}
