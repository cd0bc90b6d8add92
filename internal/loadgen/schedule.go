// Package loadgen holds the seeded arrival schedule fleet-serve's open loop replays.
package loadgen

import (
	"math/rand"
	"time"
)

// PoissonSchedule returns the open-loop arrival offsets of a seeded
// Poisson process: exponential interarrival gaps at the given
// requests/second rate, accumulated until the horizon. The same seed,
// rate and horizon always produce the same schedule — open-loop runs
// are replayable, so two builds measured against the same schedule
// differ only in how they served it, not in what they were asked.
func PoissonSchedule(seed int64, rate float64, horizon time.Duration) []time.Duration {
	if rate <= 0 || horizon <= 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	limit := horizon.Seconds()
	// Pre-size to the expected count; the Poisson tail rarely overshoots
	// by more than a few sigma.
	out := make([]time.Duration, 0, int(rate*limit)+1)
	for t := 0.0; ; {
		t += rng.ExpFloat64() / rate
		if t >= limit {
			return out
		}
		out = append(out, time.Duration(t*float64(time.Second)))
	}
}
