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

// This file reads the CPU profile the traced mode records with
// runtime/pprof and charges every sample to one of the repository's
// layers. The profile is gzip-compressed protobuf (pprof's
// profile.proto); only the four message types the attribution needs are
// decoded, by hand, because the module has no dependencies.

// stackSample is one profile sample: its call stack as function names,
// leaf first, and its weight in CPU nanoseconds.
type stackSample struct {
	stack []string
	nanos int64
}

// protoField is one decoded field of a protobuf message.
type protoField struct {
	num  int
	wire int
	u    uint64 // varint value (wire type 0)
	b    []byte // length-delimited payload (wire type 2)
}

var errProto = errors.New("malformed profile")

// protoFields splits a message into its fields, skipping fixed-width
// ones (profile.proto has none the attribution reads).
func protoFields(msg []byte) ([]protoField, error) {
	var out []protoField
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return nil, errProto
		}
		msg = msg[n:]
		f := protoField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return nil, errProto
			}
			f.u, msg = v, msg[n:]
		case 1:
			if len(msg) < 8 {
				return nil, errProto
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return nil, errProto
			}
			f.b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return nil, errProto
			}
			msg = msg[4:]
		default:
			return nil, errProto
		}
		out = append(out, f)
	}
	return out, nil
}

// varints reads a repeated varint field, which the encoder may write
// packed (one length-delimited run) or one value at a time.
func (f protoField) varints(dst []uint64) ([]uint64, error) {
	if f.wire == 0 {
		return append(dst, f.u), nil
	}
	b := f.b
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errProto
		}
		dst, b = append(dst, v), b[n:]
	}
	return dst, nil
}

// parseProfile decodes a gzip-compressed pprof CPU profile into stacks.
func parseProfile(gz []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	top, err := protoFields(raw)
	if err != nil {
		return nil, err
	}

	var strs []string
	funcName := map[uint64]uint64{}   // function id -> string index
	locFuncs := map[uint64][]uint64{} // location id -> function ids, innermost first
	type rawSample struct {
		locs, vals []uint64
	}
	var samples []rawSample
	for _, f := range top {
		if f.wire != 2 {
			continue
		}
		switch f.num {
		case 2: // Sample
			fs, err := protoFields(f.b)
			if err != nil {
				return nil, err
			}
			var s rawSample
			for _, sf := range fs {
				switch sf.num {
				case 1:
					if s.locs, err = sf.varints(s.locs); err != nil {
						return nil, err
					}
				case 2:
					if s.vals, err = sf.varints(s.vals); err != nil {
						return nil, err
					}
				}
			}
			samples = append(samples, s)
		case 4: // Location
			fs, err := protoFields(f.b)
			if err != nil {
				return nil, err
			}
			var id uint64
			var fns []uint64
			for _, lf := range fs {
				switch {
				case lf.num == 1 && lf.wire == 0:
					id = lf.u
				case lf.num == 4 && lf.wire == 2: // Line
					ls, err := protoFields(lf.b)
					if err != nil {
						return nil, err
					}
					for _, l := range ls {
						if l.num == 1 && l.wire == 0 {
							fns = append(fns, l.u)
						}
					}
				}
			}
			locFuncs[id] = fns
		case 5: // Function
			fs, err := protoFields(f.b)
			if err != nil {
				return nil, err
			}
			var id, name uint64
			for _, ff := range fs {
				if ff.wire != 0 {
					continue
				}
				switch ff.num {
				case 1:
					id = ff.u
				case 2:
					name = ff.u
				}
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(f.b))
		}
	}

	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		if len(s.vals) == 0 {
			continue
		}
		ss := stackSample{nanos: int64(s.vals[len(s.vals)-1])} // [samples, cpu nanoseconds]
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if idx := funcName[fn]; idx < uint64(len(strs)) {
					ss.stack = append(ss.stack, strs[idx])
				}
			}
		}
		out = append(out, ss)
	}
	return out, nil
}

// cpuLayers are the layers a sample can be charged to, in report order:
// the repository's modules, the benchmark's own code, and go_bg for
// stacks with no repository frame at all (collector workers, the
// scheduler's idle loops, the profiler).
var cpuLayers = []string{
	"apps", "ivy", "core", "mmu", "memfs", "proc", "ec", "alloc",
	"remop", "wire", "ring", "tcpnet", "rc", "sim", "bench", "go_bg",
}

// cpuLeafViews cut across the layers: samples whose leaf is the futex
// system call, and samples with the allocator or collector, fmt, or a
// system call anywhere in the stack.
var cpuLeafViews = []string{"leaf_futex", "leaf_malloc_gc", "leaf_fmt", "leaf_syscall"}

// layerOf maps a function name to its layer. Support packages that are
// only ever called from a layer (stats, model, trace, drace, metrics,
// chaos, parallel, harness, cli) return "" so the sample is charged to
// the calling layer; the paging disk counts with memfs.
func layerOf(fn string) string {
	// The package path ends at the first dot after the last slash.
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return ""
	}
	pkg := fn[:slash+1+dot]
	switch {
	case pkg == "repro":
		return "ivy"
	case pkg == "main" || pkg == "repro/bench":
		return "bench"
	case strings.HasPrefix(pkg, "repro/internal/"):
		name := strings.TrimPrefix(pkg, "repro/internal/")
		if name == "disk" {
			return "memfs"
		}
		for _, l := range cpuLayers {
			if l == name {
				return l
			}
		}
	}
	return ""
}

// attribute charges each sample to the nearest enclosing repository
// frame, so fmt, the allocator or a channel send called from a layer
// count to that layer, and returns each layer's share of the total
// beside four cross-cutting views keyed on runtime frames.
func attribute(samples []stackSample) (shares map[string]float64, total int64) {
	nanos := map[string]int64{}
	for _, s := range samples {
		total += s.nanos
		layer := "go_bg"
		for _, fn := range s.stack {
			if l := layerOf(fn); l != "" {
				layer = l
				break
			}
		}
		nanos[layer] += s.nanos

		var mallocGC, fmtSeen, sys bool
		for _, fn := range s.stack {
			switch {
			case fn == "runtime.mallocgc" || fn == "runtime.gcBgMarkWorker" || fn == "runtime.bgsweep" ||
				fn == "runtime.gcAssistAlloc" || fn == "runtime.bgscavenge":
				mallocGC = true
			case strings.HasPrefix(fn, "fmt."):
				fmtSeen = true
			case strings.HasPrefix(fn, "syscall.") || strings.HasPrefix(fn, "internal/poll.") ||
				strings.HasSuffix(fn, "/syscall.Syscall6") || fn == "runtime.netpoll":
				sys = true
			}
		}
		if len(s.stack) > 0 && s.stack[0] == "runtime.futex" {
			nanos["leaf_futex"] += s.nanos
		}
		if mallocGC {
			nanos["leaf_malloc_gc"] += s.nanos
		}
		if fmtSeen {
			nanos["leaf_fmt"] += s.nanos
		}
		if sys {
			nanos["leaf_syscall"] += s.nanos
		}
	}
	shares = map[string]float64{}
	if total == 0 {
		return shares, 0
	}
	for k, v := range nanos {
		shares[k] = float64(v) / float64(total)
	}
	return shares, total
}
