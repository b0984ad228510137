package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"strings"
)

// engineEntry is the function every fleet engine sample runs under.
const engineEntry = "camsim/internal/fleet.run"

// cpuGroups maps a symbol prefix to the cpu.* metric its samples count
// toward. A sample under the engine goes to the innermost frame that
// matches a prefix; helper heaps (psHeap, busyHeap, liHeap) are not listed,
// so their time lands on the link or pool that called them. When the
// engine's types are renamed, the edit is here.
var cpuGroups = []struct{ prefix, metric string }{
	{"camsim/internal/fleet.(*eventHeap).", "cpu.eventHeap"},
	{"camsim/internal/fleet.eventHeap.", "cpu.eventHeap"},
	{"camsim/internal/fleet.(*linkIndex).", "cpu.linkIndex"},
	{"camsim/internal/fleet.(*psUplink).", "cpu.psUplink"},
	{"camsim/internal/fleet.(*fifoUplink).", "cpu.fifoUplink"},
	{"camsim/internal/fleet.(*psCompute).", "cpu.psCompute"},
	{"camsim/internal/fleet.(*fifoCompute).", "cpu.fifoCompute"},
	{"camsim/internal/fleet.(*collector).", "cpu.collector"},
	{"camsim/internal/fleet/quantile.", "cpu.quantile"},
	{"camsim/internal/fleet.(*controller).", "cpu.controllers"},
	{"camsim/internal/fleet.(*globalController).", "cpu.controllers"},
	{"camsim/internal/fleet.moveBatch", "cpu.controllers"},
	{"camsim/internal/fleet.meanRowDelta", "cpu.controllers"},
	{"camsim/internal/fleet.(*dynamics).", "cpu.dynamics"},
	{"camsim/internal/fleet.(*Result).finalize", "cpu.finalize"},
}

// gcFrames mark a sample as garbage collection or allocation, wherever
// it was taken.
var gcFrames = []string{
	"runtime.gcBgMarkWorker", "runtime.gcDrain", "runtime.gcAssistAlloc",
	"runtime.mallocgc", "runtime.bgsweep", "runtime.bgscavenge",
	"runtime.markroot", "runtime.scanobject", "runtime.gcStart",
}

// cpuMetrics lists every cpu.* metric, including the two catch-alls.
func cpuMetrics() []string {
	seen := map[string]bool{}
	var out []string
	for _, g := range cpuGroups {
		if !seen[g.metric] {
			seen[g.metric] = true
			out = append(out, g.metric)
		}
	}
	return append(out, "cpu.engine_other", "cpu.runtime_gc")
}

// cpuShares groups a CPU profile's samples: the share of all samples each
// cpu.* metric took. Samples outside the engine and the runtime's memory
// management (parsing, rendering, the benchmark's own code) count toward
// the total only, so the shares sum to at most 1.
func cpuShares(profile []byte) (map[string]float64, error) {
	samples, err := parseProfile(profile)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, m := range cpuMetrics() {
		out[m] = 0
	}
	var total float64
	for _, s := range samples {
		total += float64(s.count)
		if m := classify(s.frames); m != "" {
			out[m] += float64(s.count)
		}
	}
	if total > 0 {
		for m := range out {
			out[m] /= total
		}
	}
	return out, nil
}

// classify names the cpu.* metric of one stack, leaf first.
func classify(frames []string) string {
	inEngine := false
	for _, f := range frames {
		for _, g := range gcFrames {
			if strings.HasPrefix(f, g) {
				return "cpu.runtime_gc"
			}
		}
		if f == engineEntry || strings.HasPrefix(f, engineEntry+".") {
			inEngine = true
		}
	}
	if !inEngine {
		return ""
	}
	for _, f := range frames {
		for _, g := range cpuGroups {
			if strings.HasPrefix(f, g.prefix) {
				return g.metric
			}
		}
	}
	return "cpu.engine_other"
}

// profSample is one pprof sample: its count and its stack.
type profSample struct {
	count  int64
	frames []string // function names, leaf first, inlined frames expanded
}

// parseProfile decodes a gzipped pprof protobuf (profile.proto): samples,
// locations, functions and the string table. Only the standard library is
// available, so this is a minimal protobuf reader.
func parseProfile(data []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type rawSample struct {
		locs  []uint64
		count int64
	}
	var samples []rawSample
	locFuncs := map[uint64][]uint64{} // location ID → function IDs, leaf first
	funcName := map[uint64]int64{}    // function ID → string index
	var strs []string
	err = forFields(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2: // sample
			var s rawSample
			err := forFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, w, v, b)
				case 2:
					if vals := appendVarints(nil, w, v, b); len(vals) > 0 && s.count == 0 {
						s.count = int64(vals[0])
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := forFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return forFields(b, func(f, w int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := forFields(b, func(f, w int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		ps := profSample{count: s.count}
		for _, l := range s.locs {
			for _, fn := range locFuncs[l] {
				if i := funcName[fn]; i >= 0 && int(i) < len(strs) {
					ps.frames = append(ps.frames, strs[i])
				}
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

var errProto = errors.New("malformed profile protobuf")

// forFields calls fn for each field of a protobuf message: varint fields
// pass their value, length-delimited ones their bytes.
func forFields(b []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			body = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
		if err := fn(field, wire, v, body); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed (wire type 2) or
// not.
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
