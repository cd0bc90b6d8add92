package obs

import (
	"fmt"
	"net/http"
	"sort"
)

// Health surface. Liveness (/healthz) answers "is the process serving"
// and is unconditionally healthy once the listener accepts — a deadlocked
// handler simply never answers, which is the signal orchestrators act
// on. Readiness (/readyz) answers "should traffic be routed here" and is
// the conjunction of caller-supplied checks: a durable peer is not ready
// while its journal is failing writes.

// Check is one named readiness probe. Probe returns nil when the
// condition holds; the error message is surfaced verbatim on /readyz.
// Probes run on every /readyz request, so they must be cheap and safe
// for concurrent use.
type Check struct {
	Name  string
	Probe func() error
}

// HealthHandler serves liveness: 200 "ok" for GET/HEAD.
func HealthHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			w.Header().Set("Allow", "GET, HEAD")
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
}

// ReadyHandler serves readiness: 200 with one "ok <name>" line per check
// when all probes pass, 503 listing every failing probe otherwise.
// Checks with a nil Probe always pass (registration can precede wiring).
func ReadyHandler(checks ...Check) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			w.Header().Set("Allow", "GET, HEAD")
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		type result struct {
			name string
			err  error
		}
		results := make([]result, 0, len(checks))
		failed := 0
		for _, c := range checks {
			var err error
			if c.Probe != nil {
				err = c.Probe()
			}
			if err != nil {
				failed++
			}
			results = append(results, result{c.Name, err})
		}
		sort.Slice(results, func(i, j int) bool { return results[i].name < results[j].name })
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if failed > 0 {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		for _, res := range results {
			if res.err != nil {
				fmt.Fprintf(w, "fail %s: %v\n", res.name, res.err)
			} else {
				fmt.Fprintf(w, "ok %s\n", res.name)
			}
		}
		if len(results) == 0 {
			fmt.Fprintln(w, "ok")
		}
	})
}
