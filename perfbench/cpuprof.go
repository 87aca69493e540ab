package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"slices"
	"strings"
)

// profiledModules are the modules the per-layer table reports a CPU
// share for. stats holds the generators' random draws; "other" collects
// the rest (experiments, scenario, textplot, the benchmark itself, and
// samples with no repo frame), so the shares sum to 1.
var profiledModules = []string{"sim", "sched", "cluster", "profile", "core", "dvfs", "wgen", "stats", "workload", "metrics", "runtime", "other"}

// moduleSamples counts CPU-profile samples by module; the "" key is the
// total.
type moduleSamples map[string]int64

func (m moduleSamples) share(module string) float64 {
	if m[""] == 0 {
		return 0
	}
	return float64(m[module]) / float64(m[""])
}

// profileInto CPU-profiles fn alone and folds the samples into m.
func profileInto(m moduleSamples, fn func() error) error {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return fmt.Errorf("starting CPU profile: %w", err)
	}
	err := fn()
	pprof.StopCPUProfile()
	if err != nil {
		return err
	}
	return foldProfile(buf.Bytes(), m)
}

// moduleOf charges one sample's stack, innermost frame first. A sample
// whose innermost frame is in the Go runtime (allocation, GC, memmove,
// maps, scheduling) is charged to "runtime". Any other sample is charged
// to the module of the innermost frame under repro/internal/, so library
// code such as slices.SortFunc, sort or math.Exp counts for the repo code
// that called it. Samples with no repo frame at all go to "other".
func moduleOf(stack []string) string {
	if len(stack) > 0 && isRuntime(pkgOf(stack[0])) {
		return "runtime"
	}
	for _, fn := range stack {
		if mod, ok := strings.CutPrefix(pkgOf(fn), "repro/internal/"); ok {
			mod, _, _ = strings.Cut(mod, "/")
			if !slices.Contains(profiledModules, mod) {
				return "other"
			}
			return mod
		}
	}
	return "other"
}

func isRuntime(pkg string) bool {
	return pkg == "runtime" || strings.HasPrefix(pkg, "runtime/internal/") || strings.HasPrefix(pkg, "internal/runtime/")
}

// pkgOf is the import path of a symbol name such as
// "repro/internal/sched.(*System).pass.func1" or "slices.SortFunc[...]".
func pkgOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// foldProfile decodes a gzipped pprof profile, as runtime/pprof writes
// it, and adds each sample's count to its module in m. It reads only the
// fields the fold needs: samples, locations with their inline lines,
// functions and the string table.
func foldProfile(data []byte, m moduleSamples) error {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return fmt.Errorf("CPU profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("CPU profile: %w", err)
	}
	type sample struct {
		locs  []uint64
		count int64
	}
	var (
		samples []sample
		strs    []string
		funcs   = map[uint64]uint64{}   // function id → name's string index
		locs    = map[uint64][]uint64{} // location id → function ids, innermost first
	)
	err = eachField(raw, func(f int, v uint64, b []byte) error {
		switch f {
		case 2: // Profile.sample
			var s sample
			var vals []uint64
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					vals = appendVarints(vals, v, b)
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(vals) == 0 {
				return errors.New("sample without values")
			}
			s.count = int64(vals[0])
			samples = append(samples, s)
		case 4: // Profile.location
			var id uint64
			var fns []uint64
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Location.line
					return eachField(b, func(f int, v uint64, _ []byte) error {
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
			locs[id] = fns
		case 5: // Profile.function
			var id, name uint64
			err := eachField(b, func(f int, v uint64, _ []byte) error {
				switch f {
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
			funcs[id] = name
		case 6: // Profile.string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("CPU profile: %w", err)
	}
	var stack []string
	for _, s := range samples {
		stack = stack[:0]
		for _, loc := range s.locs {
			for _, fn := range locs[loc] {
				if i := funcs[fn]; i < uint64(len(strs)) {
					stack = append(stack, strs[i])
				}
			}
		}
		m[moduleOf(stack)] += s.count
		m[""] += s.count
	}
	return nil
}

// eachField calls fn for every field of a protobuf message: v holds a
// varint field's value, b a length-delimited field's bytes. Fixed-width
// fields are skipped.
func eachField(msg []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("bad field key")
		}
		msg = msg[n:]
		var v uint64
		var b []byte
		switch key & 7 {
		case 0:
			if v, n = binary.Uvarint(msg); n <= 0 {
				return errors.New("bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("truncated fixed64")
			}
			msg = msg[8:]
			continue
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("bad length")
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("truncated fixed32")
			}
			msg = msg[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", key&7)
		}
		if err := fn(int(key>>3), v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed (b) or not (v).
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
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
