package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// cpuProfile accumulates the CPU profiles of the traced operations and
// folds their samples into per-layer CPU time. It keeps the first profiler
// error in err.
type cpuProfile struct {
	buf    bytes.Buffer
	byLyr  map[string]int64
	total  int64
	active bool
	err    error
}

func newCPUProfile() *cpuProfile { return &cpuProfile{byLyr: map[string]int64{}} }

// start begins profiling one traced operation.
func (p *cpuProfile) start() {
	p.buf.Reset()
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		p.err = errors.Join(p.err, fmt.Errorf("start cpu profile: %w", err))
		return
	}
	p.active = true
}

// stop ends the current profile and folds its samples.
func (p *cpuProfile) stop() {
	if !p.active {
		return
	}
	pprof.StopCPUProfile()
	p.active = false
	p.err = errors.Join(p.err, p.fold(p.buf.Bytes()))
}

// shares returns each layer's percentage of the profiled CPU time; the
// shares sum to 100 when any sample was taken.
func (p *cpuProfile) shares() map[string]float64 {
	out := make(map[string]float64, len(cpuLayers))
	for _, l := range cpuLayers {
		out[l] = 100 * ratio(float64(p.byLyr[l]), float64(p.total))
	}
	return out
}

// fold decodes one gzipped pprof profile and adds every sample's CPU time
// to the layer its stack belongs to.
func (p *cpuProfile) fold(gz []byte) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	prof, err := decodeProfile(raw)
	if err != nil {
		return err
	}
	for _, s := range prof.samples {
		var frames []frame
		for _, id := range s.locs {
			for _, fid := range prof.locLines[id] {
				fn := prof.funcs[fid]
				frames = append(frames, frame{prof.str(fn.name), prof.str(fn.file)})
			}
		}
		p.byLyr[classify(frames)] += s.value
		p.total += s.value
	}
	return nil
}

type frame struct{ fn, file string }

// gcFrame and schedFrame recognize runtime work that belongs to no
// repository layer: the collector (background marking, assists, sweeping)
// and the scheduler (parking, finding work, waking threads), which is where
// a goroutine waiting at a barrier spends its CPU.
func gcFrame(fn string) bool {
	for _, p := range []string{"runtime.gc", "runtime.GC", "runtime.bgsweep",
		"runtime.bgscavenge", "runtime.markroot", "runtime.scanobject",
		"runtime.greyobject", "runtime.sweepone", "runtime.deductSweepCredit",
		"runtime.wbBufFlush", "runtime.(*gcWork)", "runtime.(*mspan).sweep"} {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

func schedFrame(fn string) bool {
	switch fn {
	case "runtime.schedule", "runtime.findRunnable", "runtime.park_m",
		"runtime.mcall", "runtime.goschedImpl", "runtime.gosched_m",
		"runtime.stopm", "runtime.startm", "runtime.wakep", "runtime.notesleep",
		"runtime.notewakeup", "runtime.futexsleep", "runtime.futexwakeup",
		"runtime.usleep", "runtime.osyield", "runtime.sysmon", "runtime.ready",
		"runtime.goready", "runtime.newproc", "runtime.handoffp",
		"runtime.exitsyscall", "runtime.goexit0", "runtime.netpoll":
		return true
	}
	return false
}

// classify names the layer one sample belongs to: runtime.gc or
// runtime.sched when any frame is collector or scheduler work, else the
// repository package of the innermost repository frame (functions in
// netsim/shard.go fold into "shard"), else "other".
func classify(stack []frame) string {
	for _, f := range stack {
		if gcFrame(f.fn) {
			return "runtime.gc"
		}
	}
	for _, f := range stack {
		if schedFrame(f.fn) {
			return "runtime.sched"
		}
	}
	for _, f := range stack {
		rest, ok := strings.CutPrefix(f.fn, "repro/internal/")
		if !ok {
			if strings.HasPrefix(f.fn, "main.") || strings.HasPrefix(f.fn, "repro/perfbench") {
				return "other"
			}
			continue
		}
		pkg := rest
		if i := strings.IndexAny(pkg, "./"); i >= 0 {
			pkg = pkg[:i]
		}
		switch pkg {
		case "netsim":
			if strings.HasSuffix(f.file, "/netsim/shard.go") {
				return "shard"
			}
			return "netsim"
		case "core":
			return "cc"
		case "exp":
			return "scenario"
		case "trace":
			return "telemetry"
		case "sim", "cc", "packet", "metrics", "fluid", "workload", "topo",
			"scenario", "harness", "sweepd", "obs", "telemetry":
			return pkg
		}
		return "other"
	}
	return "other"
}

// profile is the subset of a decoded pprof profile the fold needs.
type profile struct {
	strings  []string
	funcs    map[uint64]struct{ name, file int64 }
	locLines map[uint64][]uint64 // location id -> function ids, leaf first
	samples  []struct {
		locs  []uint64
		value int64
	}
}

func (p *profile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

// decodeProfile parses the protobuf encoding of a pprof profile
// (github.com/google/pprof/proto/profile.proto), reading only samples,
// locations, functions and the string table.
func decodeProfile(b []byte) (*profile, error) {
	p := &profile{funcs: map[uint64]struct{ name, file int64 }{}, locLines: map[uint64][]uint64{}}
	err := eachField(b, func(field int, wire int, v uint64, data []byte) error {
		switch field {
		case 2: // sample
			var s struct {
				locs  []uint64
				value int64
			}
			var vals []int64
			err := eachField(data, func(f, w int, v uint64, d []byte) error {
				switch f {
				case 1:
					ids, err := repeatedVarint(w, v, d)
					s.locs = append(s.locs, ids...)
					return err
				case 2:
					xs, err := repeatedVarint(w, v, d)
					for _, x := range xs {
						vals = append(vals, int64(x))
					}
					return err
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(vals) > 0 {
				// CPU profiles carry [samples, cpu nanoseconds]; fold the
				// nanoseconds when present.
				s.value = vals[len(vals)-1]
			}
			p.samples = append(p.samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(data, func(f, w int, v uint64, d []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return eachField(d, func(f, w int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locLines[id] = fns
		case 5: // function
			var id uint64
			var fn struct{ name, file int64 }
			err := eachField(data, func(f, w int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					fn.name = int64(v)
				case 4:
					fn.file = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.funcs[id] = fn
		case 6: // string_table
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return p, nil
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks the top-level fields of a protobuf message. For varint
// and fixed-width fields v holds the value; for length-delimited ones data
// holds the bytes.
func eachField(b []byte, fn func(field, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
		if err := fn(field, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

// repeatedVarint reads a repeated integer field in either packed or
// unpacked form.
func repeatedVarint(wire int, v uint64, data []byte) ([]uint64, error) {
	if wire == 0 {
		return []uint64{v}, nil
	}
	var out []uint64
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return nil, errTruncated
		}
		out = append(out, x)
		data = data[n:]
	}
	return out, nil
}
