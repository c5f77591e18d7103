// Package backoff is the one retry schedule shared by every retry loop in
// the module: a capped exponential delay, slept on the caller's clock.
//
// Callers that receive a server's Retry-After hint apply it as a floor on
// a single sleep — max(Delay(…), hint) — and never feed it back into the
// attempt counter, so a hint cannot inflate any later delay.
package backoff

import "time"

// Delay returns base·2^attempt capped at max. It saturates at max instead
// of overflowing, whatever the attempt; a negative attempt counts as 0.
func Delay(base, max time.Duration, attempt int) time.Duration {
	if attempt < 0 {
		attempt = 0
	}
	if base > max>>uint(attempt) {
		return max
	}
	return base << uint(attempt)
}
