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

// The layers a CPU sample can be charged to: the packages under
// heron/internal that the workloads exercise, plus bench (load
// generation, this program included) and goruntime (Go scheduler, GC,
// futex — where sim.Proc's goroutine hand-offs land).
var cpuLayers = []string{"sim", "rdma", "multicast", "core", "store", "tpcc", "lease", "persist",
	"lsm", "chaos", "lincheck", "obs", "bench", "goruntime"}

// layerOfFunc maps a function name to the layer that owns it, or "" for
// code that belongs to its caller: the standard library, the runtime,
// and heron's small shared helpers (wire, msgnet).
func layerOfFunc(fn string) string {
	if strings.HasPrefix(fn, "main.") {
		return "bench"
	}
	rest, ok := strings.CutPrefix(fn, "heron/internal/")
	if !ok {
		return ""
	}
	pkg, _, _ := strings.Cut(rest, ".")
	for _, l := range cpuLayers {
		if pkg == l {
			return l
		}
	}
	return ""
}

// cpuShares buckets a runtime/pprof CPU profile by layer: a sample goes
// to the innermost frame on its stack that a layer owns — self time, as
// the layer's callees in the runtime and standard library are its own
// cost — and to goruntime when no frame is owned. Shares sum to 1. The
// second result is the number of samples.
func cpuShares(gz []byte) (map[string]float64, int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, err
	}
	prof, err := decodeProfile(raw)
	if err != nil {
		return nil, 0, err
	}
	counts := make(map[string]int64)
	var total int64
	for _, s := range prof.samples {
		layer := "goruntime"
	stack:
		for _, loc := range s.locations { // leaf first
			for _, fnID := range prof.locFuncs[loc] { // innermost inlined call first
				if l := layerOfFunc(prof.funcName[fnID]); l != "" {
					layer = l
					break stack
				}
			}
		}
		counts[layer] += s.count
		total += s.count
	}
	shares := make(map[string]float64, len(cpuLayers))
	for _, l := range cpuLayers {
		shares[l] = 0
		if total > 0 {
			shares[l] = float64(counts[l]) / float64(total)
		}
	}
	return shares, total, nil
}

// profile is the part of pprof's profile.proto that bucketing needs.
type profile struct {
	samples  []profSample
	locFuncs map[uint64][]uint64 // location id -> function ids, innermost first
	funcName map[uint64]string
}

type profSample struct {
	locations []uint64
	count     int64 // value[0]: samples
}

// decodeProfile reads an uncompressed profile.proto message. Field
// numbers are those of github.com/google/pprof/proto/profile.proto:
// Profile{sample=2, location=4, function=5, string_table=6},
// Sample{location_id=1, value=2}, Location{id=1, line=4},
// Line{function_id=1}, Function{id=1, name=2}.
func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]string{}}
	var strs []string
	funcNameIdx := map[uint64]uint64{}
	err := eachField(b, func(num int, v uint64, msg []byte) error {
		switch num {
		case 2:
			var s profSample
			var values []uint64
			err := eachField(msg, func(num int, v uint64, msg []byte) error {
				switch num {
				case 1:
					s.locations = appendVarints(s.locations, v, msg)
				case 2:
					values = appendVarints(values, v, msg)
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(values) > 0 {
				s.count = int64(values[0])
			}
			p.samples = append(p.samples, s)
		case 4:
			var id uint64
			var funcs []uint64
			err := eachField(msg, func(num int, v uint64, msg []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return eachField(msg, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locFuncs[id] = funcs
		case 5:
			var id, name uint64
			err := eachField(msg, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcNameIdx[id] = name
		case 6:
			strs = append(strs, string(msg))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for id, idx := range funcNameIdx {
		if idx >= uint64(len(strs)) {
			return nil, fmt.Errorf("function %d names string %d of %d", id, idx, len(strs))
		}
		p.funcName[id] = strs[idx]
	}
	return p, nil
}

var errTruncated = errors.New("truncated protobuf message")

// eachField walks the fields of one protobuf message. A varint field
// arrives in v with msg nil; a length-delimited field arrives in msg.
func eachField(b []byte, fn func(num int, v uint64, msg []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		var v uint64
		var msg []byte
		switch key & 7 {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			msg, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", key&7)
		}
		if err := fn(int(key>>3), v, msg); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field's values, which arrive
// either one by one (v) or packed (msg).
func appendVarints(dst []uint64, v uint64, msg []byte) []uint64 {
	if msg == nil {
		return append(dst, v)
	}
	for len(msg) > 0 {
		x, n := binary.Uvarint(msg)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		msg = msg[n:]
	}
	return dst
}
