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

// layers are the buckets CPU samples fold into: the simulator's modules by
// package name, the Go runtime (scheduler, GC, allocation, maps), and
// everything else (the standard library, config, isa, this benchmark).
var layers = []string{
	"cpu", "mem", "sched", "lsq", "svw", "core", "filter", "fmc", "noc",
	"predict", "workload", "xrand", "trace", "oracle", "energy", "ckpt",
	"batch", "simrun", "sweep", "stats", "runtime", "other",
}

// packageOf returns the import path of a fully qualified Go function name
// as pprof records it.
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // generic shape arguments may contain package paths
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// layerOf maps an import path to its layer.
func layerOf(pkg string) string {
	switch {
	case strings.HasPrefix(pkg, "repro/internal/"):
		name := strings.TrimPrefix(pkg, "repro/internal/")
		for _, l := range layers {
			if l == name {
				return l
			}
		}
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	}
	return "other"
}

// byLayer folds per-package CPU time into layers.
func byLayer(pkgs map[string]int64) map[string]int64 {
	out := map[string]int64{}
	for pkg, ns := range pkgs {
		out[layerOf(pkg)] += ns
	}
	return out
}

// foldProfile decodes a gzipped pprof CPU profile and returns the flat CPU
// time of its samples, in nanoseconds, folded by the package of the leaf
// function. A sample whose leaf was inlined is charged to the inlined
// function, as pprof's own flat view does.
func foldProfile(data []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	var (
		strs      []string
		valueIdx  = -1
		typeNames []int64
		funcName  = map[uint64]int64{}  // function id -> string index
		locFunc   = map[uint64]uint64{} // location id -> innermost function id
		samples   [][2][]uint64         // location ids, values
	)
	err = walkProto(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			return walkProto(b, func(n int, v uint64, _ []byte) error {
				if n == 1 {
					typeNames = append(typeNames, int64(v))
				}
				return nil
			})
		case 2: // sample
			var s [2][]uint64
			err := walkProto(b, func(n int, v uint64, b []byte) error {
				if n == 1 || n == 2 {
					vals, err := repeatedVarint(v, b)
					s[n-1] = append(s[n-1], vals...)
					return err
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id, fn uint64
			first := true
			err := walkProto(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line; the first is the innermost inlined function
					if first {
						first = false
						return walkProto(b, func(n int, v uint64, _ []byte) error {
							if n == 1 {
								fn = v
							}
							return nil
						})
					}
				}
				return nil
			})
			locFunc[id] = fn
			return err
		case 5: // function
			var id uint64
			var name int64
			err := walkProto(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, t := range typeNames {
		if t >= 0 && int(t) < len(strs) && strs[t] == "cpu" {
			valueIdx = i
		}
	}
	if valueIdx < 0 {
		return nil, errors.New("pprof: profile has no cpu sample type")
	}
	name := func(loc uint64) string {
		si, ok := funcName[locFunc[loc]]
		if !ok || si < 0 || int(si) >= len(strs) {
			return ""
		}
		return strs[si]
	}
	out := map[string]int64{}
	for _, s := range samples {
		if len(s[0]) == 0 || len(s[1]) <= valueIdx {
			continue
		}
		out[packageOf(name(s[0][0]))] += int64(s[1][valueIdx])
	}
	return out, nil
}

// walkProto calls fn for every field of one protobuf message: the field
// number, the value of a varint field, and the payload of a
// length-delimited one. Fixed-width fields are skipped; pprof uses none
// that this fold reads.
func walkProto(b []byte, fn func(num int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("pprof: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("pprof: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("pprof: short fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("pprof: bad length")
			}
			payload = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("pprof: short fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("pprof: unsupported wire type %d", wire)
		}
		if err := fn(num, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// repeatedVarint returns the values of a repeated varint field occurrence:
// one value when unpacked, all of them when packed.
func repeatedVarint(v uint64, packed []byte) ([]uint64, error) {
	if packed == nil {
		return []uint64{v}, nil
	}
	var out []uint64
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			return nil, errors.New("pprof: bad packed varint")
		}
		out = append(out, x)
		packed = packed[n:]
	}
	return out, nil
}
