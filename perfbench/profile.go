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

// The traced run's CPU profile is bucketed by module: each sample's leaf
// function (its self time) is charged to the ssdtp/internal/<module> package
// it belongs to, to the Go runtime, or to "other" (the benchmark itself, the
// standard library, and internal packages that are not a named layer). The
// profile is decoded here from pprof's protobuf encoding, so the benchmark
// needs neither go tool pprof nor a module outside the standard library.

// cpuModules are the layers the profile is bucketed into, in report order.
var cpuModules = []string{
	"sim", "nand", "onfi", "ftl", "ssd", "hostif", "workload", "fleet",
	"cow", "obs", "telemetry", "stats", "runtime", "other",
}

// moduleOf maps a fully qualified function name to its cpuModules bucket.
func moduleOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "ssdtp/internal/"); ok {
		mod := rest
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			mod = rest[:i]
		}
		for _, m := range cpuModules[:len(cpuModules)-2] {
			if m == mod {
				return m
			}
		}
		return "other"
	}
	for _, p := range []string{"runtime.", "runtime/", "internal/runtime/", "gcWriteBarrier"} {
		if strings.HasPrefix(fn, p) {
			return "runtime"
		}
	}
	return "other"
}

// cpuShares decodes a gzipped pprof CPU profile and returns each module's
// share of the sampled self time, plus the number of samples.
func cpuShares(prof []byte) (map[string]float64, int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(prof))
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	var (
		strs     []string
		funcName = map[uint64]int64{}  // function id -> string index
		locFunc  = map[uint64]uint64{} // location id -> leaf function id
		samples  []struct{ loc, n uint64 }
	)
	err = walk(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var loc, n uint64
			var haveLoc, haveN bool
			err := walk(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1: // location_id: the first is the leaf
					ids, err := varints(v, b)
					if err == nil && len(ids) > 0 && !haveLoc {
						loc, haveLoc = ids[0], true
					}
					return err
				case 2: // value: [samples, cpu-ns]
					vals, err := varints(v, b)
					if err == nil && len(vals) > 0 && !haveN {
						n, haveN = vals[0], true
					}
					return err
				}
				return nil
			})
			samples = append(samples, struct{ loc, n uint64 }{loc, n})
			return err
		case 4: // Location
			var id, fn uint64
			var haveFn bool
			err := walk(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line: the first entry is the innermost inlined function
					if !haveFn {
						return walk(b, func(f int, v uint64, _ []byte) error {
							if f == 1 {
								fn, haveFn = v, true
							}
							return nil
						})
					}
				}
				return nil
			})
			locFunc[id] = fn
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := walk(b, func(f int, v uint64, _ []byte) error {
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
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	counts := map[string]uint64{}
	var total uint64
	for _, s := range samples {
		name := ""
		if i := funcName[locFunc[s.loc]]; i >= 0 && int(i) < len(strs) {
			name = strs[i]
		}
		counts[moduleOf(name)] += s.n
		total += s.n
	}
	shares := map[string]float64{}
	for _, m := range cpuModules {
		shares[m] = ratio(float64(counts[m]), float64(total))
	}
	return shares, int64(total), nil
}

var errTruncated = errors.New("truncated protobuf")

// walk calls f for each field of a protobuf message: v carries varint values
// and b length-delimited payloads. Fixed-width fields are skipped.
func walk(msg []byte, f func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errTruncated
		}
		msg = msg[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errTruncated
			}
			msg = msg[n:]
		case 1, 5:
			w := 8
			if wire == 5 {
				w = 4
			}
			if len(msg) < w {
				return errTruncated
			}
			msg = msg[w:]
			continue
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errTruncated
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
		if err := f(field, v, b); err != nil {
			return err
		}
	}
	return nil
}

// varints returns a repeated varint field's values, packed (b) or not (v).
func varints(v uint64, b []byte) ([]uint64, error) {
	if b == nil {
		return []uint64{v}, nil
	}
	var out []uint64
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errTruncated
		}
		out = append(out, x)
		b = b[n:]
	}
	return out, nil
}
