package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
	"time"
)

// span is one timed call from the benchmark into the program. All spans
// of a pass share Trace; Parent 0 marks the pass's root span.
type span struct {
	Trace  string  `json:"trace"`
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"` // seconds since the pass began
	End    float64 `json:"end_s"`
}

// recorder times calls. It keeps the spans only when the pass is traced;
// untraced passes use it for their end-to-end timings alone.
type recorder struct {
	keep  bool
	trace string
	t0    time.Time
	spans []span
	next  int
}

func newRecorder(keep bool, trace string) *recorder {
	return &recorder{keep: keep, trace: trace, t0: time.Now()}
}

// begin opens a span under parent and returns its ID and a function that
// closes it and returns its length in seconds.
func (r *recorder) begin(name string, parent int) (int, func() float64) {
	r.next++
	id := r.next
	start := time.Now()
	return id, func() float64 {
		end := time.Now()
		if r.keep {
			r.spans = append(r.spans, span{
				Trace: r.trace, ID: id, Parent: parent, Name: name,
				Start: start.Sub(r.t0).Seconds(), End: end.Sub(r.t0).Seconds(),
			})
		}
		return end.Sub(start).Seconds()
	}
}

// cpuShares attributes each sample of a gzipped pprof CPU profile to the
// innermost repro/internal/<module> frame on its stack, so standard
// library work (crypto under pki.VerifyImage, say) is charged to the
// module that asked for it. Stacks inside the garbage collector count as
// "gc" and stacks with no module frame as "other". Module names use dots
// for slashes: malware/shamoon is "malware.shamoon".
func cpuShares(profile []byte) (map[string]float64, int, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	prof, err := decodeProfile(raw)
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	counts := map[string]int64{}
	var total int64
	for _, s := range prof.samples {
		if len(s.values) == 0 {
			continue
		}
		n := s.values[0]
		counts[prof.module(s.locations)] += n
		total += n
	}
	shares := map[string]float64{}
	for m, n := range counts {
		shares[m] = float64(n) / float64(max(1, total))
	}
	return shares, int(total), nil
}

// The subset of profile.proto (github.com/google/pprof) a CPU profile
// needs: samples, locations with their inlined lines, and function names.
type profile struct {
	samples   []sample
	locations map[uint64][]uint64 // location ID -> function IDs, innermost first
	functions map[uint64]int64    // function ID -> name index
	strings   []string
}

type sample struct {
	locations []uint64 // leaf first
	values    []int64
}

func (p *profile) module(locs []uint64) string {
	var names []string
	for _, loc := range locs {
		for _, fn := range p.locations[loc] {
			if i := p.functions[fn]; i >= 0 && int(i) < len(p.strings) {
				names = append(names, p.strings[i])
			}
		}
	}
	for _, name := range names {
		if isGC(name) {
			return "gc"
		}
	}
	const prefix = "repro/internal/"
	for _, name := range names {
		if !strings.HasPrefix(name, prefix) {
			continue
		}
		pkg := name[len(prefix):]
		slash := strings.LastIndexByte(pkg, '/')
		if dot := strings.IndexByte(pkg[slash+1:], '.'); dot >= 0 {
			pkg = pkg[:slash+1+dot]
		}
		return strings.ReplaceAll(pkg, "/", ".")
	}
	return "other"
}

func isGC(fn string) bool {
	switch fn {
	case "runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot",
		"runtime.scanobject", "runtime.wbBufFlush", "runtime.sweepone":
		return true
	}
	return strings.HasPrefix(fn, "runtime.gc")
}

func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err := eachField(b, func(field int, wire int, v uint64, data []byte) error {
		switch field {
		case 2: // sample
			var s sample
			err := eachField(data, func(f, w int, v uint64, d []byte) error {
				switch f {
				case 1:
					s.locations = appendUints(s.locations, w, v, d)
				case 2:
					for _, u := range appendUints(nil, w, v, d) {
						s.values = append(s.values, int64(u))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(data, func(f, w int, v uint64, d []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return eachField(d, func(f, w int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case 5: // function
			var id uint64
			name := int64(-1)
			err := eachField(data, func(f, w int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case 6: // string table
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	return p, err
}

// appendUints decodes a repeated varint field, packed or not.
func appendUints(dst []uint64, wire int, v uint64, data []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(data) > 0 {
		u, n := binary.Uvarint(data)
		if n <= 0 {
			break
		}
		dst = append(dst, u)
		data = data[n:]
	}
	return dst
}

var errProto = errors.New("malformed protobuf")

// eachField walks one protobuf message, passing varints in v and
// length-delimited payloads in data.
func eachField(b []byte, fn func(field, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
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
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
		if err := fn(field, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}
