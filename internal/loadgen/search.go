package loadgen

import (
	"context"
	"fmt"
	"time"
)

// Step-rate capacity search: run the scenario's mix open-loop at an
// increasing rate until the fleet stops keeping up, then bisect between
// the last sustained and first failed rate. "Sustained" means the trial
// kept its error budget, actually achieved (nearly) the configured rate
// without stalling on the in-flight cap, and met the scenario's SLO if
// one is set. The result is the maximum sustainable RPS for this fleet
// on this machine.

// SearchConfig tunes the capacity search; zero fields get defaults.
type SearchConfig struct {
	// Start is the first trial rate in RPS (default 50).
	Start float64
	// Factor multiplies the rate between steps (default 2).
	Factor float64
	// Max caps the search (default 100000 RPS).
	Max float64
	// Trial bounds each trial run (default 2s).
	Trial time.Duration
	// Refine is the number of bisection steps after the first failure
	// (default 3 — capacity resolved to ~12% of the failing step).
	Refine int
	// MaxErrorRate is the tolerated fraction of failed requests
	// (default 0 — capacity means zero errors).
	MaxErrorRate float64
	// MinAchieved is the fraction of the configured rate a trial must
	// actually reach to count as sustained (default 0.9).
	MinAchieved float64
}

func (c SearchConfig) withDefaults() SearchConfig {
	if c.Start <= 0 {
		c.Start = 50
	}
	if c.Factor <= 1 {
		c.Factor = 2
	}
	if c.Max <= 0 {
		c.Max = 100000
	}
	if c.Trial <= 0 {
		c.Trial = 2 * time.Second
	}
	if c.Refine <= 0 {
		c.Refine = 3
	}
	if c.MinAchieved <= 0 || c.MinAchieved > 1 {
		c.MinAchieved = 0.9
	}
	return c
}

// Trial summarizes one capacity-search run.
type Trial struct {
	Rate      float64 `json:"rate"`
	Sustained bool    `json:"sustained"`
	Reason    string  `json:"reason,omitempty"`
	Result    Result  `json:"result"`
}

// Capacity is the search outcome.
type Capacity struct {
	// MaxRPS is the highest sustained configured rate.
	MaxRPS float64 `json:"max_rps"`
	// AchievedRPS is what that best trial actually delivered.
	AchievedRPS float64 `json:"achieved_rps"`
	// Best is the best sustained trial's full result.
	Best Result `json:"best"`
	// Trials records every step and bisection probe, in run order.
	Trials []Trial `json:"trials"`
}

// sustained judges one trial against the search's budgets.
func (c SearchConfig) sustained(rate float64, r Result) (bool, string) {
	if r.Sent == 0 {
		return false, "no requests sent"
	}
	if errRate := float64(r.Errors) / float64(r.Sent); errRate > c.MaxErrorRate {
		return false, fmt.Sprintf("error rate %.3f > %.3f", errRate, c.MaxErrorRate)
	}
	if r.AchievedRPS < c.MinAchieved*rate {
		return false, fmt.Sprintf("achieved %.0f rps < %.0f%% of %.0f",
			r.AchievedRPS, c.MinAchieved*100, rate)
	}
	if !r.SLOPass() {
		return false, fmt.Sprintf("SLO: %v", r.SLOViolations)
	}
	return true, ""
}

// Search runs the step-rate capacity search using r's scenario as the
// traffic mix (its Mode, Rate and Duration are overridden per trial;
// its seed is offset per trial so consecutive probes do not replay the
// same arrival schedule). Log, if non-nil, receives one line per trial.
func (r *Runner) Search(ctx context.Context, cfg SearchConfig, logf func(format string, args ...any)) (Capacity, error) {
	cfg = cfg.withDefaults()
	if logf == nil {
		logf = func(string, ...any) {}
	}
	out := Capacity{}
	trial := 0
	runAt := func(rate float64) (Trial, error) {
		trial++
		tr := *r
		tr.Scenario = r.Scenario.withDefaults()
		tr.Scenario.Mode = "open"
		tr.Scenario.Rate = rate
		tr.Scenario.Duration = Duration(cfg.Trial)
		tr.Scenario.Seed += int64(trial) * 1000003
		res, err := tr.Run(ctx)
		if err != nil {
			return Trial{Rate: rate, Result: res, Reason: err.Error()}, err
		}
		ok, why := cfg.sustained(rate, res)
		logf("capacity trial %d: %.0f rps -> sustained=%v achieved=%.0f errors=%d %s",
			trial, rate, ok, res.AchievedRPS, res.Errors, why)
		return Trial{Rate: rate, Sustained: ok, Reason: why, Result: res}, nil
	}

	// Step phase: multiply until the fleet gives, or Max sustains.
	var lastGood, firstBad float64
	for rate := cfg.Start; rate <= cfg.Max; rate *= cfg.Factor {
		t, err := runAt(rate)
		out.Trials = append(out.Trials, t)
		if err != nil {
			return out, err
		}
		if !t.Sustained {
			firstBad = rate
			break
		}
		lastGood = rate
		out.MaxRPS = rate
		out.AchievedRPS = t.Result.AchievedRPS
		out.Best = t.Result
	}
	if lastGood == 0 {
		return out, fmt.Errorf("loadgen: fleet cannot sustain the starting rate %.0f rps", cfg.Start)
	}
	if firstBad == 0 {
		// Never failed below Max: capacity is at least Max.
		return out, nil
	}

	// Refine phase: bisect the (lastGood, firstBad) bracket.
	lo, hi := lastGood, firstBad
	for i := 0; i < cfg.Refine; i++ {
		mid := (lo + hi) / 2
		t, err := runAt(mid)
		out.Trials = append(out.Trials, t)
		if err != nil {
			return out, err
		}
		if t.Sustained {
			lo = mid
			out.MaxRPS = mid
			out.AchievedRPS = t.Result.AchievedRPS
			out.Best = t.Result
		} else {
			hi = mid
		}
	}
	return out, nil
}
