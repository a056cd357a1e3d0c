// Package metrics collects and summarizes the quantities the paper plots:
// queue-length time series (Figs 1, 9, 13), per-flow rates, link utilization
// (Fig 9g-h, 13), PFC pause counts (Fig 3), and flow-completion-time
// slowdown tables (Figs 14, 15).
package metrics

import (
	"fmt"
	"strings"

	"repro/internal/sim"
)

// Point is one time-series sample.
type Point struct {
	T sim.Time
	V float64
}

// Series is an append-only time series. Samples must be appended in
// non-decreasing time order (the simulator guarantees this).
type Series struct {
	Name   string
	Points []Point
}

// NewSeries returns an empty named series.
func NewSeries(name string) *Series { return &Series{Name: name} }

// Add appends a sample, panicking on time regression — out-of-order samples
// always indicate a harness bug and would silently corrupt peaks/averages.
func (s *Series) Add(t sim.Time, v float64) {
	if n := len(s.Points); n > 0 && t < s.Points[n-1].T {
		panic(fmt.Sprintf("metrics: series %q sample at %v before %v",
			s.Name, t, s.Points[n-1].T))
	}
	s.Points = append(s.Points, Point{t, v})
}

// CSV renders "time_us,value" lines, the format the cmd tools emit for
// re-plotting the paper's time-series figures.
func (s *Series) CSV() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\ntime_us,value\n", s.Name)
	for _, p := range s.Points {
		fmt.Fprintf(&b, "%.3f,%.3f\n", p.T.Micros(), p.V)
	}
	return b.String()
}
