package scenario

// The chain kinds: the paper's dumbbell experiments (micro, hop, notify,
// fairness, incast) on the Fig 10/11 M=3 chain. Each runner builds its
// chain straight from the normalized spec, samples the network on one
// global ticker, and folds what it measures into running values, so no
// time series outlives the tick that produced it.

import (
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/topo"
)

// Fixed schedule of the chain experiments (§5.1, §5.4).
const (
	// flow1Start is when the micro/hop/notify joining flow starts (micro
	// sender i >= 1 starts at i*flow1Start).
	flow1Start = 300 * sim.Microsecond
	// hopFlow1Bytes sizes the hop kind's joining flow to ~150 µs at line
	// rate, so congestion clears by ~450 µs (Fig 13d).
	hopFlow1Bytes = 1_800_000
	// slowdownFrac is the pacing-rate fraction of line rate below which a
	// sender counts as having slowed down (Fig 9b, Figs 2/12).
	slowdownFrac = 0.85
)

// hopAttach maps a hop position to the switch the joining flow attaches to.
var hopAttach = map[string]int{"first": 0, "middle": 1, "last": 2}

// buildChain constructs the spec's chain with the (possibly overridden)
// scheme installed, at the spec's link rate and executor width.
func buildChain(sp Spec, opts topo.ChainOpts) (*topo.Chain, error) {
	scheme, err := BuildScheme(sp.Scheme, sp.CC)
	if err != nil {
		return nil, err
	}
	opts.RateBps = sp.Topo.RateBps()
	opts.Workers = sp.Workers
	return topo.BuildChain(netsim.DefaultConfig(), scheme, opts)
}

// runSampled registers tick as the run's sampling ticker (every period),
// attaches the spec's telemetry probes, then runs the network: until span,
// or, with drain, until every flow completes or span passes (done reports
// which). Registering the ticker before the probes fixes the event order
// the goldens pin.
func runSampled(net *netsim.Network, sp Spec, span, period sim.Time, drain bool,
	tick func(now sim.Time)) (done bool, tel *telemetry.Output) {
	stop := net.GlobalTicker(period, func() { tick(net.Eng.Now()) })
	tp := attachNetProbe(net, sp, span)
	if drain {
		done = net.RunToCompletion(span)
	} else {
		net.RunUntil(span)
	}
	stop()
	return done, probeOutput(tp)
}

// utilMeter turns a port's transmitted-byte counter into per-window link
// utilization and averages the windows sampled inside [from, to].
type utilMeter struct {
	port     *netsim.Port
	winBits  float64
	from, to sim.Time
	lastTx   uint64
	sum      float64
	n        int
}

func newUtilMeter(port *netsim.Port, rateBps int64, window, from, to sim.Time) *utilMeter {
	return &utilMeter{port: port, winBits: float64(rateBps) * window.Seconds(), from: from, to: to}
}

func (u *utilMeter) sample(now sim.Time) {
	tx := u.port.TxBytes()
	if now >= u.from && now <= u.to {
		u.sum += float64(tx-u.lastTx) * 8 / u.winBits
		u.n++
	}
	u.lastTx = tx
}

// mean is the average utilization over the sampled windows (0 if none).
func (u *utilMeter) mean() float64 {
	if u.n == 0 {
		return 0
	}
	return u.sum / float64(u.n)
}

// slowedBelow reports whether f paces below slowdownFrac of rateBps.
func slowedBelow(f *netsim.Flow, rateBps int64) bool {
	return float64(f.CC().RateBps()) < slowdownFrac*float64(rateBps)
}

// lhcsTriggers reads the LHCS counter of an FNCC sender (0 for others).
func lhcsTriggers(f *netsim.Flow) int64 {
	if c, ok := f.CC().(interface{ LHCSCount() int64 }); ok {
		return c.LHCSCount()
	}
	return 0
}

// runMicro is the Fig 9 / Fig 1b-d / Fig 3 micro-benchmark: line-rate
// elephants on the Fig 10 dumbbell, sender i joining at i*flow1Start.
// It reports the bottleneck queue peak, mean utilization from the join to
// the end, PFC activity at the congestion point, and when flow 0 first
// slows down after the join (-1 if never).
func runMicro(sp Spec) (map[string]float64, *telemetry.Output, error) {
	c, err := buildChain(sp, topo.DefaultChainOpts(sp.Topo.Senders))
	if err != nil {
		return nil, nil, err
	}
	flows := make([]*netsim.Flow, sp.Topo.Senders)
	for i := range flows {
		flows[i] = c.AddFlow(uint64(i+1), i, 1<<40, sim.Time(i)*flow1Start)
	}
	rate, span := sp.Topo.RateBps(), sp.Duration()
	bport := c.BottleneckPort()
	util := newUtilMeter(bport, rate, sim.Microsecond, flow1Start, span)
	var peak float64
	first := sim.Time(-1)
	_, tel := runSampled(c.Net, sp, span, sim.Microsecond, false, func(now sim.Time) {
		peak = max(peak, float64(bport.QueueBytes()))
		util.sample(now)
		if first < 0 && now >= flow1Start && slowedBelow(flows[0], rate) {
			first = now
		}
	})
	m := map[string]float64{
		"queue_peak_bytes":  peak,
		"mean_util":         util.mean(),
		"pause_frames":      float64(c.Switches[0].PauseFrames),
		"resume_frames":     float64(c.Switches[0].ResumeFrames),
		"drops":             float64(c.Net.Drops.N),
		"first_slowdown_us": timeUs(first),
	}
	perfMetrics(m, c.Net)
	return m, tel, nil
}

// hopChain builds the two-flow hop-location chain (Fig 11): flow 0 crosses
// every switch from t=0, and flow 1 (flow1Bytes) joins at the spec's hop at
// flow1Start. It returns the chain, flow 0 and the contended egress port.
func hopChain(sp Spec, flow1Bytes int64) (*topo.Chain, *netsim.Flow, *netsim.Port, error) {
	at := hopAttach[sp.Hop]
	opts := topo.DefaultChainOpts(2)
	opts.SenderAttach = []int{0, at}
	c, err := buildChain(sp, opts)
	if err != nil {
		return nil, nil, nil, err
	}
	f0 := c.AddFlow(1, 0, 1<<40, 0)
	c.AddFlow(2, 1, flow1Bytes, flow1Start)
	return c, f0, c.HopPort(at), nil
}

// runHop is the Fig 13a-d experiment: congestion placed at a chosen hop by
// a finite joining flow. It reports the contended queue's peak, its mean
// utilization from the join to the end, and flow 0's LHCS firings.
func runHop(sp Spec) (map[string]float64, *telemetry.Output, error) {
	c, f0, port, err := hopChain(sp, hopFlow1Bytes)
	if err != nil {
		return nil, nil, err
	}
	span := sp.Duration()
	util := newUtilMeter(port, sp.Topo.RateBps(), sim.Microsecond, flow1Start, span)
	var peak float64
	_, tel := runSampled(c.Net, sp, span, sim.Microsecond, false, func(now sim.Time) {
		peak = max(peak, float64(port.QueueBytes()))
		util.sample(now)
	})
	m := map[string]float64{
		"queue_peak_bytes": peak,
		"mean_util":        util.mean(),
		"lhcs_triggers":    float64(lhcsTriggers(f0)),
	}
	perfMetrics(m, c.Net)
	return m, tel, nil
}

// runNotify measures the notification latency of Fig 2/12: the time from
// flow 1's join (persistent, so congestion has one clean onset edge) to the
// first 200 ns sample where flow 0 paces below 85% of line rate; -1 if it
// never does.
func runNotify(sp Spec) (map[string]float64, *telemetry.Output, error) {
	c, f0, _, err := hopChain(sp, 1<<40)
	if err != nil {
		return nil, nil, err
	}
	rate := sp.Topo.RateBps()
	lat := sim.Time(-1)
	_, tel := runSampled(c.Net, sp, sp.Duration(), 200*sim.Nanosecond, false, func(now sim.Time) {
		if lat < 0 && now >= flow1Start && slowedBelow(f0, rate) {
			lat = now - flow1Start
		}
	})
	m := map[string]float64{"notify_latency_us": timeUs(lat)}
	perfMetrics(m, c.Net)
	return m, tel, nil
}

// runFairness is the Fig 13e experiment: every stagger a new sender joins,
// then (after all have joined) they exit in joining order, one per
// stagger, each flow sized to its fair share of that schedule. It reports
// Jain's index over the per-flow goodput of every 20 µs window in which
// all senders overlap, averaged across those windows.
//
// The paper staggers by 100 ms; at packet granularity that is an expensive
// run, so the stagger is a spec knob — the shape (stair-step convergence to
// B/k at every membership change) is invariant to it as long as it spans
// many RTTs.
func runFairness(sp Spec) (map[string]float64, *telemetry.Output, error) {
	n := sp.Topo.Senders
	c, err := buildChain(sp, topo.DefaultChainOpts(n))
	if err != nil {
		return nil, nil, err
	}
	rate := sp.Topo.RateBps()
	stagger := sim.Time(sp.Workload.StaggerUs) * sim.Microsecond
	flows := make([]*netsim.Flow, n)
	for i := range flows {
		flows[i] = c.AddFlow(uint64(i+1), i, fairShareBytes(n, i, stagger, rate), sim.Time(i)*stagger)
	}
	const every = 20 * sim.Microsecond
	span := sim.Time(2*n) * stagger
	allFrom, allTo := sim.Time(n-1)*stagger, sim.Time(n)*stagger
	lastAcked := make([]int64, n)
	rates := make([]float64, 0, n)
	var jainSum float64
	var jainN int
	_, tel := runSampled(c.Net, sp, span, every, false, func(now sim.Time) {
		rates = rates[:0]
		for i, f := range flows {
			acked := f.SndUna()
			bps := float64(acked-lastAcked[i]) * 8 / every.Seconds()
			lastAcked[i] = acked
			if now >= allFrom && now < allTo {
				rates = append(rates, bps)
			}
		}
		if len(rates) == n {
			jainSum += metrics.JainIndex(rates)
			jainN++
		}
	})
	jain := 0.0
	if jainN > 0 {
		jain = jainSum / float64(jainN)
	}
	m := map[string]float64{
		"jain_all_active": jain,
		"duration_us":     timeUs(span),
	}
	perfMetrics(m, c.Net)
	return m, tel, nil
}

// fairShareBytes integrates flow i's fair share of B across the membership
// schedule (joins at i*S, exits in join order once everyone has joined).
func fairShareBytes(n, i int, s sim.Time, rateBps int64) int64 {
	bytesPerWindow := float64(rateBps) / 8 * s.Seconds()
	total := 0.0
	// Windows are [k*S, (k+1)*S); flow i is active for k in [i, n+i).
	for k := i; k < n+i; k++ {
		active := 0
		for j := 0; j < n; j++ {
			if k >= j && k < n+j {
				active++
			}
		}
		if active > 0 {
			total += bytesPerWindow / float64(active)
		}
	}
	return int64(total)
}

// runIncast is the N-to-1 burst motivating LHCS (§3.2.2, Observation 4):
// Fanout senders, all attached at the receiver-side switch, start at once,
// so every byte of congestion lands on the last hop. It reports the
// last-hop queue peak and PFC pauses, when the last sender finished (-1 if
// the deadline hit first), the minimum Jain index over the senders' pacing
// rates while all are active after the first RTT, and total LHCS firings.
func runIncast(sp Spec) (map[string]float64, *telemetry.Output, error) {
	fanout := sp.Workload.Fanout
	opts := topo.DefaultChainOpts(fanout)
	last := opts.Switches - 1
	for i := range opts.SenderAttach {
		opts.SenderAttach[i] = last
	}
	c, err := buildChain(sp, opts)
	if err != nil {
		return nil, nil, err
	}
	flows := make([]*netsim.Flow, fanout)
	for i := range flows {
		flows[i] = c.AddFlow(uint64(i+1), i, sp.Workload.FlowBytes, 0)
	}
	port := c.HopPort(last)
	baseRTT := c.Net.Cfg.BaseRTT
	var peak int64
	jain := 1.0
	rates := make([]float64, 0, fanout)
	done, tel := runSampled(c.Net, sp, sp.Duration(), 5*sim.Microsecond, true, func(now sim.Time) {
		peak = max(peak, port.QueueBytes())
		if now < baseRTT {
			return
		}
		rates = rates[:0]
		for _, f := range flows {
			if !f.Finished() {
				rates = append(rates, float64(f.CC().RateBps()))
			}
		}
		if len(rates) == fanout {
			jain = min(jain, metrics.JainIndex(rates))
		}
	})
	allDone := sim.Time(-1) // the deadline hit first
	var lhcs int64
	for _, f := range flows {
		if done {
			allDone = max(allDone, f.FinishedAt)
		}
		lhcs += lhcsTriggers(f)
	}
	m := map[string]float64{
		"queue_peak_bytes": float64(peak),
		"pause_frames":     float64(c.Switches[last].PauseFrames),
		"all_done_us":      timeUs(allDone),
		"jain_min":         jain,
		"lhcs_triggers":    float64(lhcs),
	}
	perfMetrics(m, c.Net)
	return m, tel, nil
}
