package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
)

// cpuLayers are the layers a CPU profile sample can be charged to, in
// report order. All but the last two are packages of the program.
var cpuLayers = []string{
	"sim", "mac", "phy", "aodv", "node", "queue", "tcp", "core", "invariant",
	"stats", "topo", "muzha", "harness", "jobs", "canon", "gc", "other",
}

// layerOf charges one sample, given as function names from the leaf
// outwards, to a layer: the package of its innermost frame in the
// program (module muzha), so runtime and standard-library frames count
// against the program code that called them. A stack with no program
// frame is background GC work when a GC worker is on it, and "other"
// otherwise.
func layerOf(stack []string) string {
	for _, fn := range stack {
		if pkg, ok := programPackage(fn); ok {
			if knownLayer(pkg) {
				return pkg
			}
			return "other"
		}
	}
	for _, fn := range stack {
		switch {
		case strings.HasPrefix(fn, "runtime.gcBgMarkWorker"),
			strings.HasPrefix(fn, "runtime.bgsweep"),
			strings.HasPrefix(fn, "runtime.bgscavenge"),
			fn == "runtime._GC":
			return "gc"
		}
	}
	return "other"
}

// programPackage returns the layer name of a function of module muzha
// ("muzha" for the root package, the last path element for
// muzha/internal/...), and whether fn belongs to the module at all.
func programPackage(fn string) (string, bool) {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // type arguments may hold paths of their own
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return "", false
	}
	pkg := fn[:slash+1+dot]
	if pkg == "muzha" {
		return "muzha", true
	}
	rest, ok := strings.CutPrefix(pkg, "muzha/")
	if !ok {
		return "", false
	}
	return rest[strings.LastIndexByte(rest, '/')+1:], true
}

func knownLayer(pkg string) bool {
	for _, l := range cpuLayers[:len(cpuLayers)-2] {
		if l == pkg {
			return true
		}
	}
	return false
}

// cpuShares decodes gzipped pprof CPU profiles and returns each
// layer's share of their sampled CPU time; the shares sum to 1.
func cpuShares(profs [][]byte) (map[string]float64, error) {
	by := make(map[string]float64, len(cpuLayers))
	var total float64
	for _, gz := range profs {
		stacks, weights, err := decodeProfile(gz)
		if err != nil {
			return nil, err
		}
		for i, st := range stacks {
			by[layerOf(st)] += weights[i]
			total += weights[i]
		}
	}
	if total == 0 {
		return nil, errors.New("cpu profile holds no samples")
	}
	shares := make(map[string]float64, len(cpuLayers))
	var sum float64
	for _, l := range cpuLayers {
		shares[l] = by[l] / total
		sum += shares[l]
	}
	if math.Abs(sum-1) > 1e-9 {
		return nil, fmt.Errorf("cpu shares sum to %v, not 1", sum)
	}
	return shares, nil
}

// decodeProfile reads the samples of a gzipped profile.proto: each
// sample's stack as function names from the leaf outwards (inlined
// frames expanded) and its weight, the last sample value (CPU
// nanoseconds in a Go CPU profile).
func decodeProfile(gz []byte) (stacks [][]string, weights []float64, err error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, nil, fmt.Errorf("cpu profile: %w", err)
	}
	type sample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples []sample
		locFns  = map[uint64][]uint64{} // location -> function IDs, innermost first
		fnName  = map[uint64]uint64{}   // function -> string index
		strs    []string
	)
	err = walkFields(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2: // Profile.sample
			var s sample
			err := walkFields(b, func(f int, w int, v uint64, b []byte) error {
				var e error
				switch f {
				case 1:
					s.locs, e = appendVarints(s.locs, w, v, b)
				case 2:
					var vs []uint64
					vs, e = appendVarints(nil, w, v, b)
					for _, x := range vs {
						s.values = append(s.values, int64(x))
					}
				}
				return e
			})
			samples = append(samples, s)
			return err
		case 4: // Profile.location
			var id uint64
			var fns []uint64
			err := walkFields(b, func(f int, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Location.line
					return walkFields(b, func(f int, w int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // Profile.function
			var id, name uint64
			err := walkFields(b, func(f int, w int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6: // Profile.string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, nil, fmt.Errorf("cpu profile: %w", err)
	}
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		var st []string
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				if i := fnName[fn]; i < uint64(len(strs)) {
					st = append(st, strs[i])
				}
			}
		}
		stacks = append(stacks, st)
		weights = append(weights, float64(s.values[len(s.values)-1]))
	}
	return stacks, weights, nil
}

// walkFields calls fn for each field of a protobuf message: v carries a
// varint or fixed-width value, b a length-delimited payload.
func walkFields(msg []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("bad field key")
		}
		msg = msg[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("bad varint")
			}
		case 1:
			n = 8
		case 2:
			l, m := binary.Uvarint(msg)
			if m <= 0 || uint64(len(msg)-m) < l {
				return errors.New("bad length")
			}
			b = msg[m : m+int(l)]
			n = m + int(l)
		case 5:
			n = 4
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if n > len(msg) {
			return errors.New("truncated field")
		}
		if err := fn(field, wire, v, b); err != nil {
			return err
		}
		msg = msg[n:]
	}
	return nil
}

// appendVarints appends a repeated varint field, packed (wire type 2)
// or not.
func appendVarints(dst []uint64, wire int, v uint64, b []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, v), nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst, errors.New("bad packed varint")
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst, nil
}
