package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// profileLayers are the layers a CPU profile sample can be charged to: the
// repository's modules, plus "runtime" for samples with no repository frame
// (garbage collection, the goroutine scheduler) and "other" for the rest of
// the repository (experiments, model, stats, the benchmark's decorators).
var profileLayers = []string{"sim", "machine", "sched", "wtpg", "lock", "admit", "live", "workload", "metrics", "runtime", "other"}

// layerOfPackage maps a repository package path to its profile layer.
func layerOfPackage(pkg string) string {
	switch rel := strings.TrimPrefix(pkg, "batchsched/internal/"); rel {
	case "sim", "machine", "sched", "wtpg", "lock", "admit", "workload", "metrics":
		return rel
	case "engine/live":
		return "live"
	}
	return "other"
}

// packageOf returns the import path of a symbol name such as
// "batchsched/internal/wtpg.(*Graph).Orient".
func packageOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// attributeProfile charges each sample of a gzipped pprof CPU profile to the
// layer of its innermost repository frame, so standard-library and runtime
// helpers (map access, allocation, sorting) count toward the layer that
// called them. It returns CPU nanoseconds per layer.
func attributeProfile(data []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, err
	}
	funcLayer := make(map[uint64]string, len(p.funcName))
	for id, nameIdx := range p.funcName {
		if nameIdx >= uint64(len(p.strings)) {
			return nil, errors.New("profile: function name out of range")
		}
		// The benchmark's own frames (package main) are the tracer's cost.
		if name := p.strings[nameIdx]; strings.HasPrefix(name, "batchsched") || strings.HasPrefix(name, "main.") {
			funcLayer[id] = layerOfPackage(packageOf(name))
		}
	}
	out := make(map[string]int64)
	for _, s := range p.samples {
		layer := "runtime"
	frames:
		for _, loc := range s.locations {
			for _, fn := range p.locFuncs[loc] { // innermost first
				if l, ok := funcLayer[fn]; ok {
					layer = l
					break frames
				}
			}
		}
		out[layer] += s.value
	}
	return out, nil
}

type profSample struct {
	locations []uint64 // leaf first
	value     int64    // CPU nanoseconds
}

type profile struct {
	strings  []string
	funcName map[uint64]uint64   // function id -> string index
	locFuncs map[uint64][]uint64 // location id -> function ids, innermost first
	samples  []profSample
}

// decodeProfile reads the fields of profile.proto the attribution needs:
// samples (field 2), locations (4), functions (5) and the string table (6).
// The CPU profile's sample values are [count, nanoseconds].
func decodeProfile(b []byte) (*profile, error) {
	p := &profile{funcName: map[uint64]uint64{}, locFuncs: map[uint64][]uint64{}}
	err := eachField(b, func(num int, v uint64, sub []byte) error {
		switch num {
		case 2:
			var s profSample
			var values []uint64
			err := eachField(sub, func(num int, v uint64, sub []byte) error {
				switch num {
				case 1:
					s.locations = appendVarints(s.locations, v, sub)
				case 2:
					values = appendVarints(values, v, sub)
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(values) < 2 {
				return errors.New("profile: sample without a time value")
			}
			s.value = int64(values[1])
			p.samples = append(p.samples, s)
		case 4:
			var id uint64
			var funcs []uint64
			err := eachField(sub, func(num int, v uint64, sub []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line{function_id = 1, line = 2}
					return eachField(sub, func(num int, v uint64, _ []byte) error {
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
			err := eachField(sub, func(num int, v uint64, _ []byte) error {
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
			p.funcName[id] = name
		case 6:
			p.strings = append(p.strings, string(sub))
		}
		return nil
	})
	return p, err
}

// appendVarints appends a repeated integer field, which the encoder writes
// either one value per field (v) or packed into one length-delimited field
// (sub).
func appendVarints(dst []uint64, v uint64, sub []byte) []uint64 {
	if sub == nil {
		return append(dst, v)
	}
	for len(sub) > 0 {
		x, n := varint(sub)
		if n == 0 {
			break
		}
		dst = append(dst, x)
		sub = sub[n:]
	}
	return dst
}

// eachField walks one protobuf message, calling fn with each field's number
// and either its integer value or, for length-delimited fields, its bytes.
func eachField(b []byte, fn func(num int, v uint64, sub []byte) error) error {
	for len(b) > 0 {
		key, n := varint(b)
		if n == 0 {
			return errors.New("profile: truncated field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var sub []byte
		switch wire {
		case 0:
			v, n = varint(b)
			if n == 0 {
				return errors.New("profile: truncated varint")
			}
			b = b[n:]
		case 1, 5:
			size := 8
			if wire == 5 {
				size = 4
			}
			if len(b) < size {
				return errors.New("profile: truncated fixed field")
			}
			b = b[size:]
			continue
		case 2:
			l, n := varint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errors.New("profile: truncated bytes field")
			}
			sub = b[n : n+int(l)] // non-nil even when empty
			b = b[n+int(l):]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, v, sub); err != nil {
			return err
		}
	}
	return nil
}

// varint decodes a base-128 varint, returning 0 bytes read on truncation.
func varint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
