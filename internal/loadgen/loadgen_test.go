package loadgen

import (
	"math"
	"testing"
	"time"
)

// The open-loop arrival schedule is a pure function of (seed, rate,
// horizon): replaying a run must replay its arrivals exactly.
func TestPoissonScheduleDeterministic(t *testing.T) {
	a := PoissonSchedule(42, 500, 2*time.Second)
	b := PoissonSchedule(42, 500, 2*time.Second)
	if len(a) != len(b) {
		t.Fatalf("same seed, different lengths: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrival %d differs: %v vs %v", i, a[i], b[i])
		}
	}
	c := PoissonSchedule(43, 500, 2*time.Second)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical schedules")
	}

	// Count concentrates around rate*horizon (sigma = sqrt(1000) ~ 32);
	// 5 sigma keeps this deterministic-in-practice without being tight.
	want := 1000.0
	if got := float64(len(a)); math.Abs(got-want) > 5*math.Sqrt(want) {
		t.Errorf("arrival count %v too far from %v", got, want)
	}
	// Offsets are sorted and inside the horizon.
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatalf("arrivals not monotone at %d", i)
		}
	}
	if a[len(a)-1] >= 2*time.Second {
		t.Errorf("arrival beyond horizon: %v", a[len(a)-1])
	}
}
