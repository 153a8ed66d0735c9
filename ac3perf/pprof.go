package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// This file decodes the part of a runtime/pprof CPU profile that layer
// attribution needs. The profile is a gzip-compressed protocol buffer
// (github.com/google/pprof/proto/profile.proto); go.mod has no
// requirements, so a small wire-format reader stands in for the pprof
// library.

// sample is one CPU profile sample: its call stack as function names,
// innermost frame first with inlined calls expanded, and the CPU time
// it stands for.
type sample struct {
	stack []string
	cpuNs int64
}

// Field numbers from profile.proto.
const (
	profSampleType  = 1
	profSample      = 2
	profLocation    = 4
	profFunction    = 5
	profStringTable = 6

	sampleLocationID = 1
	sampleValue      = 2

	locationID   = 1
	locationLine = 4
	lineFunction = 1

	functionID   = 1
	functionName = 2

	valueTypeType = 1
	valueTypeUnit = 2
)

// Protocol buffer wire types.
const (
	wireVarint = 0
	wireI64    = 1
	wireBytes  = 2
	wireI32    = 5
)

// parseProfile decodes a gzip-compressed pprof CPU profile into
// samples. It reads the value whose sample type is cpu/nanoseconds.
func parseProfile(data []byte) ([]sample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	type rawSample struct {
		locs   []uint64
		values []uint64
	}
	var (
		sampleTypes [][2]uint64 // (type, unit) string indexes
		samples     []rawSample
		locations   = map[uint64][]uint64{} // location id -> function ids, innermost first
		functions   = map[uint64]uint64{}   // function id -> name string index
		strs        []string
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch {
		case num == profSampleType && wire == wireBytes:
			var vt [2]uint64
			err := eachField(b, func(num, wire int, v uint64, _ []byte) error {
				switch {
				case num == valueTypeType && wire == wireVarint:
					vt[0] = v
				case num == valueTypeUnit && wire == wireVarint:
					vt[1] = v
				}
				return nil
			})
			sampleTypes = append(sampleTypes, vt)
			return err
		case num == profSample && wire == wireBytes:
			var s rawSample
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				var err error
				switch num {
				case sampleLocationID:
					s.locs, err = appendVarints(s.locs, wire, v, b)
				case sampleValue:
					s.values, err = appendVarints(s.values, wire, v, b)
				}
				return err
			})
			samples = append(samples, s)
			return err
		case num == profLocation && wire == wireBytes:
			var id uint64
			var fns []uint64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch {
				case num == locationID && wire == wireVarint:
					id = v
				case num == locationLine && wire == wireBytes:
					return eachField(b, func(num, wire int, v uint64, _ []byte) error {
						if num == lineFunction && wire == wireVarint {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locations[id] = fns
			return err
		case num == profFunction && wire == wireBytes:
			var id, name uint64
			err := eachField(b, func(num, wire int, v uint64, _ []byte) error {
				switch {
				case num == functionID && wire == wireVarint:
					id = v
				case num == functionName && wire == wireVarint:
					name = v
				}
				return nil
			})
			functions[id] = name
			return err
		case num == profStringTable && wire == wireBytes:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	str := func(i uint64) (string, error) {
		if i >= uint64(len(strs)) {
			return "", fmt.Errorf("profile: string index %d out of range", i)
		}
		return strs[i], nil
	}
	cpu := -1
	for i, vt := range sampleTypes {
		typ, err := str(vt[0])
		if err != nil {
			return nil, err
		}
		unit, err := str(vt[1])
		if err != nil {
			return nil, err
		}
		if typ == "cpu" && unit == "nanoseconds" {
			cpu = i
		}
	}
	if cpu < 0 {
		return nil, errors.New("profile: no cpu/nanoseconds sample type")
	}

	out := make([]sample, 0, len(samples))
	for _, rs := range samples {
		if cpu >= len(rs.values) {
			return nil, errors.New("profile: sample without a cpu value")
		}
		s := sample{cpuNs: int64(rs.values[cpu])}
		for _, loc := range rs.locs {
			fns, ok := locations[loc]
			if !ok {
				return nil, fmt.Errorf("profile: unknown location %d", loc)
			}
			for _, fn := range fns {
				nameIdx, ok := functions[fn]
				if !ok {
					return nil, fmt.Errorf("profile: unknown function %d", fn)
				}
				name, err := str(nameIdx)
				if err != nil {
					return nil, err
				}
				s.stack = append(s.stack, name)
			}
		}
		out = append(out, s)
	}
	return out, nil
}

// eachField calls fn for every field of the message in b. Varint
// fields pass their value in v, length-delimited fields their payload
// in b; fixed-width fields are skipped.
func eachField(b []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		switch wire {
		case wireVarint:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
			if err := fn(num, wire, v, nil); err != nil {
				return err
			}
		case wireBytes:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errors.New("bad length")
			}
			payload := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(num, wire, 0, payload); err != nil {
				return err
			}
		case wireI64, wireI32:
			w := 8
			if wire == wireI32 {
				w = 4
			}
			if len(b) < w {
				return errors.New("truncated fixed-width field")
			}
			b = b[w:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed or not.
func appendVarints(dst []uint64, wire int, v uint64, b []byte) ([]uint64, error) {
	if wire == wireVarint {
		return append(dst, v), nil
	}
	if wire != wireBytes {
		return dst, fmt.Errorf("unexpected wire type %d for repeated varint", wire)
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
