package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file turns a runtime/pprof CPU profile into per-layer CPU shares.
// The profile is decoded directly from its protobuf encoding (only the
// fields attribution needs), so the benchmark needs nothing beyond the
// standard library.
//
// Attribution rule: a sample is charged to the layer owning the innermost
// stack frame that belongs to this module. Runtime, syscall and net/http
// frames below it are therefore charged to the layer that called them. A
// sample with no module frame at all (an HTTP transport goroutine, say)
// falls back to the pprof "layer" label of its goroutine; one with neither
// is runtime.other. Pipeline samples are further split by the stage method
// (or core spin-up function) on the stack.

// sample is one decoded profile sample: its stack, leaf first, as function
// names; its CPU-sample count; and its goroutine's "layer" label.
type sample struct {
	stack []string
	count int64
	label string
}

// decodeProfile parses a gzipped profile.proto CPU profile.
func decodeProfile(gz []byte) ([]sample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []int64
		labels [][2]int64 // key, str string-table indices
	}
	var (
		samples   []rawSample
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames = map[uint64]int64{}    // function id -> name string index
		strs      []string
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s rawSample
			err := eachField(b, func(num int, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					return eachVarint(wire, v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return eachVarint(wire, v, b, func(x uint64) { s.values = append(s.values, int64(x)) })
				case 3:
					var key, str int64
					err := eachField(b, func(num int, wire int, v uint64, b []byte) error {
						switch num {
						case 1:
							key = int64(v)
						case 2:
							str = int64(v)
						}
						return nil
					})
					s.labels = append(s.labels, [2]int64{key, str})
					return err
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(num int, wire int, v uint64, b []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(b, func(num int, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	out := make([]sample, 0, len(samples))
	for _, rs := range samples {
		if len(rs.values) == 0 {
			continue
		}
		s := sample{count: rs.values[0]}
		for _, l := range rs.labels {
			if str(l[0]) == "layer" {
				s.label = str(l[1])
			}
		}
		for _, loc := range rs.locs {
			for _, fn := range locFuncs[loc] {
				s.stack = append(s.stack, str(funcNames[fn]))
			}
		}
		out = append(out, s)
	}
	return out, nil
}

// eachField walks the top-level fields of one protobuf message. For varint
// fields v holds the value; for length-delimited fields b holds the bytes.
func eachField(buf []byte, fn func(num int, wire int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := uvarint(buf)
		if n <= 0 {
			return errors.New("bad field key")
		}
		buf = buf[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = uvarint(buf)
			if n <= 0 {
				return errors.New("bad varint")
			}
			buf = buf[n:]
		case 1:
			if len(buf) < 8 {
				return errors.New("short fixed64")
			}
			buf = buf[8:]
		case 2:
			l, n := uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errors.New("bad length")
			}
			b = buf[n : n+int(l)]
			buf = buf[n+int(l):]
		case 5:
			if len(buf) < 4 {
				return errors.New("short fixed32")
			}
			buf = buf[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// eachVarint yields a repeated varint field in either encoding: a single
// unpacked value or a packed run.
func eachVarint(wire int, v uint64, b []byte, fn func(uint64)) error {
	if wire == 0 {
		fn(v)
		return nil
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		fn(x)
		b = b[n:]
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

const modulePrefix = "repro/internal/"

// packageLayer maps a module package to its layer. Helper packages that
// serve several layers map to "" and are skipped, so their time goes to the
// next module frame out: the layer that called them.
var packageLayer = map[string]string{
	"compile": "compile", "asm": "compile", "lang": "compile",
	"pipeline": "pipeline", "bpred": "pipeline", "cache": "pipeline",
	"mem": "pipeline", "prefetch": "pipeline", "sempe": "pipeline",
	"leak":   "leak",
	"attack": "attack", "victim": "attack",
	"stattest": "stattest",
	"scenario": "experiments", "experiments": "experiments",
	"workloads": "experiments", "jpegsim": "experiments",
	"store":   "store",
	"cluster": "cluster",
	"serve":   "serve",
	"obs":     "obs",
}

// layerOf returns the layer a function name belongs to, "" for a function
// outside this module or in a shared helper package (isa, stats, emu).
func layerOf(fn string) string {
	if strings.HasPrefix(fn, "main.") {
		return "loadgen"
	}
	rest, ok := strings.CutPrefix(fn, modulePrefix)
	if !ok {
		return ""
	}
	pkg, _, _ := strings.Cut(rest, ".")
	return packageLayer[pkg]
}

// pipelineStage maps Core methods (and core construction) to the stage
// they charge. StepCycle runs retire, writeback, issue, rename, decode and
// fetch in turn; everything they call (execute under issue, flushAfter
// under writeback or retire, superblock builds under fetch) is charged to
// the stage found innermost on the stack.
var pipelineStage = map[string]string{
	"repro/internal/pipeline.(*Core).fetch":           "fetch",
	"repro/internal/pipeline.(*Core).decode":          "decode",
	"repro/internal/pipeline.(*Core).rename":          "rename",
	"repro/internal/pipeline.(*Core).issue":           "issue",
	"repro/internal/pipeline.(*Core).writeback":       "writeback",
	"repro/internal/pipeline.(*Core).retire":          "retire",
	"repro/internal/pipeline.New":                     "spinup",
	"repro/internal/pipeline.NewOnMemory":             "spinup",
	"repro/internal/pipeline.NewPrototype":            "spinup",
	"repro/internal/pipeline.NewFromPrototype":        "spinup",
	"repro/internal/pipeline.(*Prototype).NewCoreFor": "spinup",
	"repro/internal/pipeline.(*Prototype).Recycle":    "spinup",
	"repro/internal/pipeline.(*Core).Reset":           "spinup",
}

// pipelineStages lists the stage shares every traced run reports.
var pipelineStages = []string{"fetch", "decode", "rename", "issue", "writeback", "retire", "spinup"}

// attributedLayers lists every layer share a traced run reports.
var attributedLayers = []string{
	"compile", "pipeline", "leak", "attack", "stattest", "experiments",
	"store", "cluster", "serve", "obs", "loadgen",
}

// attribution is the CPU-sample split of one traced run.
type attribution struct {
	total int64
	layer map[string]int64
	stage map[string]int64
	other int64            // no module frame and no goroutine label
	roots map[string]int64 // root function of each unattributed sample
}

func attribute(samples []sample) attribution {
	a := attribution{layer: map[string]int64{}, stage: map[string]int64{}, roots: map[string]int64{}}
	for _, s := range samples {
		a.total += s.count
		layer := ""
		for _, fn := range s.stack {
			if layer = layerOf(fn); layer != "" {
				break
			}
		}
		if layer == "" {
			layer = s.label
		}
		if layer == "" {
			a.other += s.count
			if len(s.stack) > 0 {
				a.roots[s.stack[len(s.stack)-1]] += s.count
			}
			continue
		}
		a.layer[layer] += s.count
		if layer == "pipeline" {
			for _, fn := range s.stack {
				if st, ok := pipelineStage[fn]; ok {
					a.stage[st] += s.count
					break
				}
			}
		}
	}
	return a
}

func (a attribution) share(n int64) float64 {
	if a.total == 0 {
		return 0
	}
	return float64(n) / float64(a.total)
}
