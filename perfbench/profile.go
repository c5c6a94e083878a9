package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The CPU profile written by runtime/pprof is a gzipped profile.proto
// message. This file decodes the few fields attribution needs: each
// sample's stack and CPU time, and the function names of its frames.

// cpuProfile is a decoded CPU profile.
type cpuProfile struct {
	samples []cpuSample
	frames  map[uint64][]string // location ID → function names, innermost first
}

type cpuSample struct {
	locs []uint64 // leaf first
	ns   int64
}

// stack returns the function names of s, leaf first.
func (p *cpuProfile) stack(s cpuSample) []string {
	var out []string
	for _, id := range s.locs {
		out = append(out, p.frames[id]...)
	}
	return out
}

// protoField is one decoded protobuf field: varint value or bytes.
type protoField struct {
	num  int
	wire int
	v    uint64
	b    []byte
}

// protoFields splits a protobuf message into its fields.
func protoFields(b []byte) ([]protoField, error) {
	var out []protoField
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errors.New("bad field key")
		}
		b = b[n:]
		f := protoField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			f.v, n = binary.Uvarint(b)
			if n <= 0 {
				return nil, errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return nil, errors.New("short fixed64")
			}
			f.v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return nil, errors.New("bad length")
			}
			f.b, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return nil, errors.New("short fixed32")
			}
			f.v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return nil, fmt.Errorf("unsupported wire type %d", f.wire)
		}
		out = append(out, f)
	}
	return out, nil
}

// varints returns the values of a repeated integer field, which the
// encoder writes either packed or one field per value.
func (f protoField) varints() ([]uint64, error) {
	if f.wire == 0 {
		return []uint64{f.v}, nil
	}
	var out []uint64
	for b := f.b; len(b) > 0; {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errors.New("bad packed varint")
		}
		out = append(out, v)
		b = b[n:]
	}
	return out, nil
}

// parseCPUProfile decodes a gzipped CPU profile.
func parseCPUProfile(gz []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	fields, err := protoFields(raw)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	var strs []string
	funcName := map[uint64]uint64{} // function ID → string index
	locLines := map[uint64][]uint64{}
	p := &cpuProfile{frames: map[uint64][]string{}}
	for _, f := range fields {
		switch f.num {
		case 2: // sample
			sf, err := protoFields(f.b)
			if err != nil {
				return nil, fmt.Errorf("profile sample: %w", err)
			}
			var s cpuSample
			var vals []uint64
			for _, x := range sf {
				vs, err := x.varints()
				if err != nil {
					return nil, fmt.Errorf("profile sample: %w", err)
				}
				switch x.num {
				case 1:
					s.locs = append(s.locs, vs...)
				case 2:
					vals = append(vals, vs...)
				}
			}
			if len(vals) < 2 {
				return nil, errors.New("profile sample: want count and nanoseconds")
			}
			s.ns = int64(vals[1])
			p.samples = append(p.samples, s)
		case 4: // location
			lf, err := protoFields(f.b)
			if err != nil {
				return nil, fmt.Errorf("profile location: %w", err)
			}
			var id uint64
			var fns []uint64
			for _, x := range lf {
				switch x.num {
				case 1:
					id = x.v
				case 4: // line
					linef, err := protoFields(x.b)
					if err != nil {
						return nil, fmt.Errorf("profile line: %w", err)
					}
					for _, y := range linef {
						if y.num == 1 {
							fns = append(fns, y.v)
						}
					}
				}
			}
			locLines[id] = fns
		case 5: // function
			ff, err := protoFields(f.b)
			if err != nil {
				return nil, fmt.Errorf("profile function: %w", err)
			}
			var id, name uint64
			for _, x := range ff {
				switch x.num {
				case 1:
					id = x.v
				case 2:
					name = x.v
				}
			}
			funcName[id] = name
		case 6: // string table
			strs = append(strs, string(f.b))
		}
	}
	for id, fns := range locLines {
		for _, fn := range fns {
			if i := funcName[fn]; i < uint64(len(strs)) {
				p.frames[id] = append(p.frames[id], strs[i])
			}
		}
	}
	return p, nil
}

// Buckets of the CPU attribution, one per layer plus the runtime's own
// work, the benchmark, and what the rule cannot place.
var layerBuckets = []string{
	"vtime", "simnet", "codec", "anna", "cache", "executor", "scheduler",
	"monitor", "lattice", "traffic", "cluster", "api", "core", "dag", "trace",
	"workload", "runtime.sched", "runtime.gc", "bench", "other",
}

// modulePackages maps this module's package names to their bucket.
// The root package is the public client API.
var modulePackages = map[string]string{
	"cloudburst":                    "api",
	"cloudburst/internal/anna":      "anna",
	"cloudburst/internal/cache":     "cache",
	"cloudburst/internal/cluster":   "cluster",
	"cloudburst/internal/codec":     "codec",
	"cloudburst/internal/core":      "core",
	"cloudburst/internal/dag":       "dag",
	"cloudburst/internal/executor":  "executor",
	"cloudburst/internal/lattice":   "lattice",
	"cloudburst/internal/monitor":   "monitor",
	"cloudburst/internal/scheduler": "scheduler",
	"cloudburst/internal/simnet":    "simnet",
	"cloudburst/internal/trace":     "trace",
	"cloudburst/internal/traffic":   "traffic",
	"cloudburst/internal/vtime":     "vtime",
	"cloudburst/internal/workload":  "workload",
}

// funcPackage returns the import path of a profiled function name such
// as "cloudburst/internal/vtime.(*Chan[...]).Recv".
func funcPackage(fn string) string {
	head := fn
	if i := strings.IndexAny(head, "[("); i >= 0 {
		head = head[:i]
	}
	slash := strings.LastIndexByte(head, '/')
	if dot := strings.IndexByte(head[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return head
}

// gcFrames and schedFrames name the runtime functions that mark a stack
// with no module frame as garbage collection or goroutine scheduling.
var (
	gcFrames    = []string{"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime._GC", "runtime.markroot", "runtime.scanobject"}
	schedFrames = []string{
		"runtime.schedule", "runtime.findRunnable", "runtime.park_m", "runtime.mcall",
		"runtime.mstart", "runtime.goexit0", "runtime.stopm", "runtime.startm",
		"runtime.futex", "runtime.notesleep", "runtime.sysmon", "runtime._System",
		"runtime.goschedIfBusy", "runtime.gosched_m", "runtime.exitsyscall",
	}
)

// bucketOf charges a stack (leaf first) to the package of its first
// module frame. Stacks without one go to the garbage collector or the
// goroutine scheduler by their runtime frames, else to "other".
func bucketOf(stack []string) string {
	for _, fn := range stack {
		if strings.HasPrefix(fn, "main.") {
			return "bench"
		}
		if b, ok := modulePackages[funcPackage(fn)]; ok {
			return b
		}
		if strings.HasPrefix(fn, "cloudburst") {
			return "other"
		}
	}
	for _, set := range []struct {
		frames []string
		bucket string
	}{{gcFrames, "runtime.gc"}, {schedFrames, "runtime.sched"}} {
		for _, fn := range stack {
			for _, prefix := range set.frames {
				if strings.HasPrefix(fn, prefix) {
					return set.bucket
				}
			}
		}
	}
	return "other"
}

// attribute sums CPU nanoseconds per bucket.
func attribute(p *cpuProfile) map[string]int64 {
	out := map[string]int64{}
	for _, s := range p.samples {
		out[bucketOf(p.stack(s))] += s.ns
	}
	return out
}
