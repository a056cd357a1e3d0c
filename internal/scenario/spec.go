// Package scenario is the declarative front end of the simulator: a
// JSON-serializable Spec describes one experiment (topology, congestion-
// control scheme with parameter overrides, workload, load point, seed,
// duration and the metrics to collect), and Run executes it on the kind's
// runner, which builds the network straight from the spec. Specs normalize
// to a canonical encoding with a stable content hash, which is what the
// sweep harness (internal/harness) keys its result cache on. A registry of
// named built-in scenarios covers every figure of the paper's evaluation
// plus traffic patterns beyond it (permutation, all-to-all shuffle,
// oversubscribed fat-trees, mixed background+incast).
package scenario

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// Scenario kinds: which runner interprets the spec.
const (
	// KindMicro is the Fig 9 / Fig 1b-d dumbbell micro-benchmark.
	KindMicro = "micro"
	// KindHop is the Fig 13a-d hop-location study.
	KindHop = "hop"
	// KindFairness is the Fig 13e staggered join/leave experiment.
	KindFairness = "fairness"
	// KindFCT is the §5.5 fat-tree Poisson FCT experiment (Figs 14-15),
	// optionally with an oversubscribed core (Topo.Oversub > 1).
	KindFCT = "fct"
	// KindIncast is the N-to-1 last-hop burst of §3.2.2.
	KindIncast = "incast"
	// KindPermutation sends one fixed-size flow per host to the host a
	// constant shift away — an admissible pattern that loads every tier.
	KindPermutation = "permutation"
	// KindAllToAll is the shuffle: every host sends to every other host
	// simultaneously.
	KindAllToAll = "alltoall"
	// KindMixed layers periodic incast bursts over a Poisson background
	// workload on a fat-tree.
	KindMixed = "mixed"
	// KindNotify is the Fig 2/12 notification-latency probe: the hop
	// study with a persistent joining flow, reporting how long flow 0
	// takes to slow down after the join.
	KindNotify = "notify"
)

// Kinds lists every runnable scenario kind in canonical order.
func Kinds() []string {
	return []string{KindMicro, KindHop, KindFairness, KindFCT, KindIncast,
		KindPermutation, KindAllToAll, KindMixed, KindNotify}
}

// chainKinds run on the dumbbell chain, fatTreeKinds on the fat-tree.
var (
	chainKinds   = map[string]bool{KindMicro: true, KindHop: true, KindFairness: true, KindIncast: true, KindNotify: true}
	fatTreeKinds = map[string]bool{KindFCT: true, KindPermutation: true, KindAllToAll: true, KindMixed: true}
)

// Simulation backends: which engine executes the spec.
const (
	// BackendPacket is the full per-packet event simulation (the default).
	BackendPacket = "packet"
	// BackendFluid is the flow-level max-min fluid approximation
	// (internal/fluid): milliseconds per point instead of minutes, FCT
	// metrics only. Supported for the FCT-style kinds; kinds whose metrics
	// are inherently packet-level (queues, PFC, pacing-rate timelines)
	// reject it at validation.
	BackendFluid = "fluid"
)

// Backends lists the simulation backends in canonical order.
func Backends() []string { return []string{BackendPacket, BackendFluid} }

// fluidKindNames lists the fluid-capable kinds in canonical kind order.
func fluidKindNames() []string {
	var out []string
	for _, k := range Kinds() {
		if runners[BackendFluid][k] != nil {
			out = append(out, k)
		}
	}
	return out
}

// FluidSchemeCCKey is the one cc override the fluid backend consumes: the
// rate-convergence time constant in units of the fabric base RTT (0 = the
// idealized instant max-min baseline). All packet-level scheme parameters
// are rejected under the fluid backend — it would silently ignore them.
const FluidSchemeCCKey = "fluid_tau_rtts"

// TopoSpec declares the fabric. Kind is derived from the scenario kind when
// empty ("chain" for micro/hop/notify/fairness/incast, "fattree" for the
// rest).
type TopoSpec struct {
	// Kind is "chain" or "fattree".
	Kind string `json:"kind,omitempty"`
	// Switches is the chain length M (default 3).
	Switches int `json:"switches,omitempty"`
	// Senders is the chain sender count (micro/fairness; default per kind).
	Senders int `json:"senders,omitempty"`
	// K is the fat-tree arity (default per kind; k^3/4 hosts).
	K int `json:"k,omitempty"`
	// RateGbps is the uniform link rate in Gbit/s (default 100).
	RateGbps int64 `json:"rate_gbps,omitempty"`
	// Oversub oversubscribes the fat-tree core: agg-core links run at
	// RateGbps/Oversub. Zero or 1 keeps the paper's 1:1 fabric.
	Oversub float64 `json:"oversub,omitempty"`
	// DelayNs is the per-link propagation delay (default 1500).
	DelayNs int64 `json:"delay_ns,omitempty"`
}

// RateBps converts the declared link rate to bit/s.
func (t TopoSpec) RateBps() int64 { return t.RateGbps * 1e9 }

// CoreRateBps resolves the fat-tree aggregation-core link rate under the
// declared oversubscription; zero means 1:1 (the topo builder's default).
func (t TopoSpec) CoreRateBps() int64 {
	if t.Oversub > 1 {
		return int64(float64(t.RateBps()) / t.Oversub)
	}
	return 0
}

// Delay converts the declared propagation delay to simulation time.
func (t TopoSpec) Delay() sim.Time { return sim.Time(t.DelayNs) * sim.Nanosecond }

// WorkloadSpec declares the traffic the scenario offers.
type WorkloadSpec struct {
	// CDF names the flow-size distribution for Poisson kinds
	// ("websearch" | "hadoop").
	CDF string `json:"cdf,omitempty"`
	// FlowBytes is the per-flow transfer size for the fixed-size patterns
	// (incast, permutation, alltoall, mixed bursts).
	FlowBytes int64 `json:"flow_bytes,omitempty"`
	// Fanout is the incast width (incast, mixed bursts).
	Fanout int `json:"fanout,omitempty"`
	// Shift is the permutation destination offset; zero means hosts/2
	// (maximally cross-pod).
	Shift int `json:"shift,omitempty"`
	// StaggerUs is the fairness join/leave spacing in microseconds.
	StaggerUs int64 `json:"stagger_us,omitempty"`
	// BurstEveryUs is the mixed-kind incast period in microseconds.
	BurstEveryUs int64 `json:"burst_every_us,omitempty"`
}

// Spec is one declarative experiment. The zero values of most fields are
// filled by Normalized; Name is descriptive only and excluded from the
// content hash so renames never invalidate cached results.
type Spec struct {
	// Name labels the scenario in tables and the registry.
	Name string `json:"name,omitempty"`
	// Kind selects the runner (see Kinds).
	Kind string `json:"kind"`
	// Backend selects the simulation engine: "packet" (default, omitted
	// from the canonical encoding) or "fluid". The backend is part of the
	// content hash, so packet and fluid results never share a cache entry.
	Backend string `json:"backend,omitempty"`
	// Scheme is the congestion-control scheme under test (exp registry name).
	Scheme string `json:"scheme"`
	// CC overrides scheme parameters by name: alpha, beta, lhcs (0/1),
	// table_update_us (FNCC variants); eta, max_stage, wai_bytes,
	// min_wnd_bytes (FNCC variants and HPCC).
	CC map[string]float64 `json:"cc,omitempty"`
	// Topo declares the fabric.
	Topo TopoSpec `json:"topo"`
	// Workload declares the offered traffic.
	Workload WorkloadSpec `json:"workload"`
	// Load is the target average access-link load for Poisson kinds.
	Load float64 `json:"load,omitempty"`
	// Seed drives workload generation and fabric randomness.
	Seed int64 `json:"seed,omitempty"`
	// DurationUs bounds the run: observation window (micro/hop/notify), arrival
	// horizon (fct/mixed) or completion deadline (incast/permutation/
	// alltoall). Fairness derives its span from StaggerUs instead.
	DurationUs int64 `json:"duration_us,omitempty"`
	// Hop is the congestion position for KindHop and KindNotify:
	// first|middle|last.
	Hop string `json:"hop,omitempty"`
	// Collect filters the metrics kept in the Result; empty keeps all.
	Collect []string `json:"collect,omitempty"`
	// Telemetry opts the run into in-simulation probes and event tracing.
	// Nil (or an all-zero block) means off and normalizes away, so specs
	// without telemetry keep their pre-telemetry canonical encoding and
	// hash. A configured block is part of the content hash: sampled runs
	// never share a cache entry with unsampled ones.
	Telemetry *TelemetrySpec `json:"telemetry,omitempty"`
	// Workers selects the packet engine's execution mode: values > 1 run
	// the LP-sharded parallel executor (internal/netsim) with that many
	// worker goroutines; 0 or 1 run the classic serial engine. Parallel
	// runs are bit-identical to serial, so 0 and 1 normalize to the
	// omitted zero value and leave the canonical encoding — and therefore
	// the cache hash — unchanged. Workers > 1 does enter the hash: a
	// sharded run emits extra execution metrics (parallel_*), so it keeps
	// a distinct cache identity.
	Workers int `json:"workers,omitempty"`
}

// TelemetrySpec is the spec-level telemetry block (see internal/telemetry).
type TelemetrySpec struct {
	// IntervalUs is the sampling period in microseconds.
	IntervalUs int64 `json:"interval_us,omitempty"`
	// Probes selects the probe classes to sample; the backend's supported
	// set is enforced at validation (packet: queue, switch, host, cc;
	// fluid: rate, link).
	Probes []string `json:"probes,omitempty"`
	// TraceCap bounds the event flight-recorder (packet backend only).
	TraceCap int `json:"trace_cap,omitempty"`
}

// Config converts the block to the runtime telemetry configuration.
func (t *TelemetrySpec) Config() *telemetry.Config {
	if t == nil {
		return nil
	}
	return &telemetry.Config{
		Interval: sim.Time(t.IntervalUs) * sim.Microsecond,
		Probes:   t.Probes,
		TraceCap: t.TraceCap,
	}
}

// SupportedProbes returns the probe classes the spec's backend can sample
// (used by `fnccbench show` and telemetry validation).
func (s Spec) SupportedProbes() []string {
	if s.BackendName() == BackendFluid {
		return telemetry.FluidProbes()
	}
	return telemetry.PacketProbes()
}

// Duration converts DurationUs to simulation time.
func (s Spec) Duration() sim.Time { return sim.Time(s.DurationUs) * sim.Microsecond }

// BackendName resolves the effective backend: the zero value means packet.
func (s Spec) BackendName() string {
	if s.Backend == "" {
		return BackendPacket
	}
	return s.Backend
}

// Normalized returns a copy with every defaultable field filled, so specs
// that mean the same experiment encode (and hash) identically.
func (s Spec) Normalized() Spec {
	n := s
	if n.Backend == BackendPacket {
		n.Backend = "" // packet is the zero value: default specs keep
		// their pre-backend canonical encoding and hash, so existing
		// result caches stay valid.
	}
	if n.Workers == 1 {
		n.Workers = 0 // one worker is the serial engine: hash-neutral
	}
	if n.Topo.Kind == "" {
		if fatTreeKinds[n.Kind] {
			n.Topo.Kind = "fattree"
		} else {
			n.Topo.Kind = "chain"
		}
	}
	if n.Topo.RateGbps == 0 {
		n.Topo.RateGbps = 100
	}
	if n.Topo.DelayNs == 0 {
		n.Topo.DelayNs = 1500
	}
	if n.Topo.Oversub == 1 {
		n.Topo.Oversub = 0 // 1:1 is the zero value
	}
	if n.Topo.Kind == "chain" && n.Topo.Switches == 0 {
		n.Topo.Switches = 3
	}
	switch n.Kind {
	case KindMicro:
		defInt(&n.Topo.Senders, 2)
		defInt64(&n.DurationUs, 1200)
	case KindHop:
		defInt(&n.Topo.Senders, 2)
		defInt64(&n.DurationUs, 800)
		defStr(&n.Hop, "last")
	case KindNotify:
		defInt(&n.Topo.Senders, 2)
		defInt64(&n.DurationUs, 600)
		defStr(&n.Hop, "last")
	case KindFairness:
		defInt(&n.Topo.Senders, 4)
		defInt64(&n.Workload.StaggerUs, 1000)
	case KindFCT:
		defInt(&n.Topo.K, 8)
		defStr(&n.Workload.CDF, "websearch")
		defFloat(&n.Load, 0.5)
		defInt64(&n.DurationUs, 2000)
		defInt64(&n.Seed, 1)
	case KindIncast:
		defInt(&n.Workload.Fanout, 16)
		defInt64(&n.Workload.FlowBytes, 2<<20)
		defInt64(&n.DurationUs, 100_000)
	case KindPermutation:
		defInt(&n.Topo.K, 8)
		defInt64(&n.Workload.FlowBytes, 1<<20)
		defInt64(&n.DurationUs, 50_000)
	case KindAllToAll:
		defInt(&n.Topo.K, 4)
		defInt64(&n.Workload.FlowBytes, 100_000)
		defInt64(&n.DurationUs, 50_000)
	case KindMixed:
		defInt(&n.Topo.K, 4)
		defStr(&n.Workload.CDF, "websearch")
		defFloat(&n.Load, 0.3)
		defInt(&n.Workload.Fanout, 8)
		defInt64(&n.Workload.FlowBytes, 64_000)
		defInt64(&n.Workload.BurstEveryUs, 500)
		defInt64(&n.DurationUs, 2000)
		defInt64(&n.Seed, 1)
	}
	if len(n.Collect) > 0 {
		c := append([]string(nil), n.Collect...)
		sort.Strings(c)
		n.Collect = c
	}
	if n.Telemetry != nil {
		t := *n.Telemetry // deep copy: Normalized must not alias the input
		if len(t.Probes) > 0 {
			ps := append([]string(nil), t.Probes...)
			sort.Strings(ps)
			w := 0
			for i, p := range ps {
				if i == 0 || p != ps[i-1] {
					ps[w] = p
					w++
				}
			}
			t.Probes = ps[:w]
		}
		if t.IntervalUs == 0 && len(t.Probes) == 0 && t.TraceCap == 0 {
			n.Telemetry = nil // all-zero block == off: hash as if absent
		} else {
			n.Telemetry = &t
		}
	}
	return n
}

func defInt(p *int, v int) {
	if *p == 0 {
		*p = v
	}
}

func defInt64(p *int64, v int64) {
	if *p == 0 {
		*p = v
	}
}

func defFloat(p *float64, v float64) {
	if *p == 0 {
		*p = v
	}
}

func defStr(p *string, v string) {
	if *p == "" {
		*p = v
	}
}

// Validate checks a spec for runnability. It normalizes first, so callers
// may validate sparse specs.
func (s Spec) Validate() error {
	n := s.Normalized()
	kindOK := false
	for _, k := range Kinds() {
		if n.Kind == k {
			kindOK = true
			break
		}
	}
	if !kindOK {
		return fmt.Errorf("scenario: unknown kind %q (have %v)", n.Kind, Kinds())
	}
	switch n.Backend {
	case "": // packet (normalized zero value)
		if _, err := BuildScheme(n.Scheme, n.CC); err != nil {
			return err
		}
	case BackendFluid:
		if runners[BackendFluid][n.Kind] == nil {
			return fmt.Errorf("scenario: kind %q is inherently packet-level; backend %q supports %v",
				n.Kind, BackendFluid, fluidKindNames())
		}
		// The scheme name must exist (it selects the convergence model),
		// but packet-level cc overrides are meaningless here and silently
		// ignoring them would mint a distinct cache identity for an
		// unchanged experiment.
		if _, err := BuildScheme(n.Scheme, nil); err != nil {
			return err
		}
		for k, v := range n.CC {
			if k != FluidSchemeCCKey {
				return fmt.Errorf("scenario: backend %q accepts only the %q cc override, got %q",
					BackendFluid, FluidSchemeCCKey, k)
			}
			if !(v >= 0) { // inverted so NaN fails
				return fmt.Errorf("scenario: %s = %v must be >= 0", FluidSchemeCCKey, v)
			}
		}
	default:
		return fmt.Errorf("scenario: unknown backend %q (have %v)", n.Backend, Backends())
	}
	switch n.Topo.Kind {
	case "chain":
		if !chainKinds[n.Kind] {
			return fmt.Errorf("scenario: kind %q needs a fattree topology", n.Kind)
		}
		if n.Topo.Switches < 1 {
			return fmt.Errorf("scenario: chain needs >= 1 switch")
		}
	case "fattree":
		if !fatTreeKinds[n.Kind] {
			return fmt.Errorf("scenario: kind %q needs a chain topology", n.Kind)
		}
		if n.Topo.K < 2 || n.Topo.K%2 != 0 {
			return fmt.Errorf("scenario: fat-tree arity %d must be even and >= 2", n.Topo.K)
		}
	default:
		return fmt.Errorf("scenario: unknown topology kind %q", n.Topo.Kind)
	}
	if n.Topo.RateGbps <= 0 {
		return fmt.Errorf("scenario: non-positive link rate %d Gbps", n.Topo.RateGbps)
	}
	// Inverted comparisons so NaN fails the check instead of slipping
	// through to a json.Marshal panic in Hash.
	if n.Topo.Oversub != 0 && !(n.Topo.Oversub >= 1) {
		return fmt.Errorf("scenario: oversubscription factor %v must be >= 1", n.Topo.Oversub)
	}
	for k, v := range n.CC {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("scenario: cc override %q = %v is not finite", k, v)
		}
	}
	if n.Kind == KindFCT || n.Kind == KindMixed {
		if !(n.Load > 0 && n.Load <= 1) {
			return fmt.Errorf("scenario: load %v out of (0,1]", n.Load)
		}
		if _, ok := workload.ByName(n.Workload.CDF); !ok {
			return fmt.Errorf("scenario: unknown workload CDF %q", n.Workload.CDF)
		}
	}
	if _, ok := hopAttach[n.Hop]; in(n.Kind, KindHop, KindNotify) && !ok {
		return fmt.Errorf("scenario: hop position %q not in first|middle|last", n.Hop)
	}
	if (n.Kind == KindIncast || n.Kind == KindMixed) && n.Workload.Fanout < 2 {
		return fmt.Errorf("scenario: fanout %d must be >= 2", n.Workload.Fanout)
	}
	if in(n.Kind, KindMicro, KindFairness) && n.Topo.Senders < 2 {
		return fmt.Errorf("scenario: kind %q needs topo.senders >= 2, got %d", n.Kind, n.Topo.Senders)
	}
	if n.Kind != KindFairness && n.DurationUs <= 0 {
		return fmt.Errorf("scenario: non-positive duration %dus", n.DurationUs)
	}
	if n.Kind == KindFairness && n.Workload.StaggerUs <= 0 {
		return fmt.Errorf("scenario: non-positive stagger %dus", n.Workload.StaggerUs)
	}
	for _, c := range n.Collect {
		if !knownMetrics[c] {
			return fmt.Errorf("scenario: unknown metric %q in collect", c)
		}
	}
	if n.Telemetry != nil {
		if err := n.Telemetry.Config().Validate(n.SupportedProbes()); err != nil {
			return fmt.Errorf("scenario: backend %q: %w", n.BackendName(), err)
		}
		if n.BackendName() == BackendFluid && n.Telemetry.TraceCap != 0 {
			return fmt.Errorf("scenario: event tracing is packet-level; backend %q rejects trace_cap",
				BackendFluid)
		}
	}
	if n.Workers < 0 {
		return fmt.Errorf("scenario: negative workers %d", n.Workers)
	}
	if n.Workers > 1 {
		if n.BackendName() == BackendFluid {
			return fmt.Errorf("scenario: workers selects the packet engine's parallel executor; backend %q rejects it",
				BackendFluid)
		}
		if n.Telemetry != nil && n.Telemetry.TraceCap != 0 {
			return fmt.Errorf("scenario: event tracing (trace_cap) is unsupported under the parallel executor (workers=%d)",
				n.Workers)
		}
	}
	return n.validateKnobUse()
}

// in reports whether kind is one of kinds.
func in(kind string, kinds ...string) bool {
	for _, k := range kinds {
		if kind == k {
			return true
		}
	}
	return false
}

// validateKnobUse rejects knobs the kind's runner does not consume. A spec
// claiming a fabric the simulation will not build must fail loudly: silently
// ignoring the field would both mislead the user and mint a fresh cache
// identity for an unchanged experiment. Runs on a normalized spec.
func (n Spec) validateKnobUse() error {
	ban := func(used bool, set bool, field string) error {
		if !used && set {
			return fmt.Errorf("scenario: kind %q does not use %s", n.Kind, field)
		}
		return nil
	}
	checks := []error{
		// Fabric randomness only feeds the fat-tree kinds (workload
		// generation and WRED); the chain runners are fully deterministic.
		ban(in(n.Kind, KindFCT, KindPermutation, KindAllToAll, KindMixed), n.Seed != 0, "seed"),
		ban(in(n.Kind, KindFCT, KindMixed), n.Load != 0, "load"),
		ban(in(n.Kind, KindHop, KindNotify), n.Hop != "", "hop"),
		ban(in(n.Kind, KindMicro, KindHop, KindNotify, KindFairness), n.Topo.Senders != 0, "topo.senders"),
		ban(fatTreeKinds[n.Kind], n.Topo.K != 0, "topo.k"),
		ban(chainKinds[n.Kind], n.Topo.Switches != 0, "topo.switches"),
		ban(fatTreeKinds[n.Kind], n.Topo.Oversub != 0, "topo.oversub"),
		ban(in(n.Kind, KindFCT, KindMixed), n.Workload.CDF != "", "workload.cdf"),
		ban(in(n.Kind, KindIncast, KindPermutation, KindAllToAll, KindMixed),
			n.Workload.FlowBytes != 0, "workload.flow_bytes"),
		ban(in(n.Kind, KindIncast, KindMixed), n.Workload.Fanout != 0, "workload.fanout"),
		ban(n.Kind == KindPermutation, n.Workload.Shift != 0, "workload.shift"),
		ban(n.Kind == KindFairness, n.Workload.StaggerUs != 0, "workload.stagger_us"),
		ban(n.Kind == KindMixed, n.Workload.BurstEveryUs != 0, "workload.burst_every_us"),
		ban(n.Kind != KindFairness, n.DurationUs != 0, "duration_us"),
	}
	for _, err := range checks {
		if err != nil {
			return err
		}
	}
	// Values the runners fix internally must match what will actually be
	// simulated.
	if chainKinds[n.Kind] && n.Topo.Switches != 3 {
		return fmt.Errorf("scenario: the chain runners fix topo.switches at 3, got %d", n.Topo.Switches)
	}
	if in(n.Kind, KindHop, KindNotify) && n.Topo.Senders != 2 {
		return fmt.Errorf("scenario: the hop runner fixes topo.senders at 2, got %d", n.Topo.Senders)
	}
	if !in(n.Kind, KindPermutation, KindAllToAll, KindMixed) && n.Topo.DelayNs != 1500 {
		return fmt.Errorf("scenario: kind %q fixes topo.delay_ns at 1500, got %d", n.Kind, n.Topo.DelayNs)
	}
	// Positivity of the pattern knobs (defaults fill zeros, so anything
	// non-positive here was set explicitly).
	if in(n.Kind, KindIncast, KindPermutation, KindAllToAll, KindMixed) && n.Workload.FlowBytes <= 0 {
		return fmt.Errorf("scenario: non-positive flow_bytes %d", n.Workload.FlowBytes)
	}
	if n.Kind == KindPermutation && n.Workload.Shift < 0 {
		return fmt.Errorf("scenario: negative permutation shift %d", n.Workload.Shift)
	}
	if n.Kind == KindMixed && n.Workload.BurstEveryUs <= 0 {
		return fmt.Errorf("scenario: non-positive burst period %dus", n.Workload.BurstEveryUs)
	}
	if n.Seed < 0 {
		return fmt.Errorf("scenario: negative seed %d", n.Seed)
	}
	return nil
}

// Canonical returns the spec's canonical encoding: normalized, name
// stripped, compact JSON. Struct fields marshal in declaration order and
// map keys sort, so the bytes are deterministic across runs and platforms.
func (s Spec) Canonical() ([]byte, error) {
	n := s.Normalized()
	n.Name = ""
	return json.Marshal(n)
}

// cacheEpoch folds the simulator's behavioral version into every spec
// hash. Bump it whenever simulation semantics change (CC algorithms,
// topology wiring, workload generation, metric definitions) so stale
// harness caches invalidate instead of silently serving pre-change
// numbers.
//
// v2: the event engine adopted the canonical (at, schedAt, key, seq)
// collision order — simultaneous link deliveries fire in port-UID order
// instead of historical scheduling order (the invariant that makes the
// LP-sharded parallel executor bit-identical to serial). Collision
// instants are rare but real: one golden micro metric moved, so v1
// caches would serve stale numbers.
const cacheEpoch = "fncc-scenario-v2\n"

// Hash is the stable content hash of the canonical encoding (salted with
// cacheEpoch), the key the harness caches results under. Specs differing
// only by Name collide by design.
func (s Spec) Hash() string {
	b, err := s.Canonical()
	if err != nil {
		// Validate rejects non-finite floats, the only way a Spec can
		// fail to marshal.
		panic(fmt.Sprintf("scenario: canonical encoding failed: %v", err))
	}
	sum := sha256.Sum256(append([]byte(cacheEpoch), b...))
	return "sc-" + hex.EncodeToString(sum[:8])
}

// ParseSpec decodes a JSON spec, rejecting unknown fields so typos in spec
// files fail loudly instead of silently running defaults.
func ParseSpec(data []byte) (Spec, error) {
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("scenario: bad spec: %w", err)
	}
	return s, nil
}
