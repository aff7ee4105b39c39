package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// Span is one timed call into a layer, recorded by the benchmark around
// the call. Spans of one scenario or request share Trace.
type Span struct {
	Trace   int64  `json:"trace"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// Tracer keeps spans in memory until the run ends. A nil *Tracer records
// nothing, so untraced runs pay only a nil check.
type Tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []Span
}

func newTracer() *Tracer { return &Tracer{origin: time.Now()} }

// Record adds a span that started at start and ends now.
func (t *Tracer) Record(trace int64, name string, start time.Time) {
	if t == nil {
		return
	}
	end := time.Now()
	t.mu.Lock()
	t.spans = append(t.spans, Span{trace, name, start.Sub(t.origin).Nanoseconds(), end.Sub(t.origin).Nanoseconds()})
	t.mu.Unlock()
}

// Total sums the durations of every span with the given name, in seconds.
func (t *Tracer) Total(name string) float64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var ns int64
	for _, s := range t.spans {
		if s.Name == name {
			ns += s.EndNS - s.StartNS
		}
	}
	return float64(ns) / 1e9
}

// WriteFile writes the spans as JSON lines.
func (t *Tracer) WriteFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Profile attribution. Each CPU sample is charged to the innermost frame
// of a repository module (internal/<module>), so standard-library frames
// count toward the module that called them; the benchmark's own frames
// (package main) count as "bench", and a sample with neither is
// runtime.other (scheduler, GC workers, HTTP plumbing below any handler).

const (
	internalPrefix = "github.com/nowlater/nowlater/internal/"
	benchPackage   = "github.com/nowlater/nowlater/bench"
)

// moduleOf names the repository module a function belongs to, or "" for
// the standard library and the runtime. The benchmark's own package is
// "main" in its binary and its import path in its tests.
func moduleOf(fn string) string {
	if strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, benchPackage+".") {
		return "bench"
	}
	rest, ok := strings.CutPrefix(fn, internalPrefix)
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

// attribute charges a stack (leaf first) to a module.
func attribute(stack []string, known map[string]bool) string {
	for _, fn := range stack {
		if m := moduleOf(fn); m != "" {
			if !known[m] {
				return "other"
			}
			return m
		}
	}
	return "runtime.other"
}

// selfSeconds aggregates a gzipped pprof CPU profile into seconds per
// module.
func selfSeconds(profile []byte) (map[string]float64, error) {
	stacks, err := decodeCPUProfile(profile)
	if err != nil {
		return nil, err
	}
	known := map[string]bool{}
	for _, m := range selfModules {
		known[m] = true
	}
	out := map[string]float64{}
	for _, s := range stacks {
		out[attribute(s.frames, known)] += float64(s.cpuNS) / 1e9
	}
	return out, nil
}

type sampleStack struct {
	frames []string // leaf first, inlined frames expanded
	cpuNS  int64
}

// decodeCPUProfile reads the stacks and CPU time of a pprof profile. It
// decodes only the profile.proto fields attribution needs: sample types,
// samples, locations with their lines, functions and the string table.
func decodeCPUProfile(data []byte) ([]sampleStack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct{ locs, vals []uint64 }
	var (
		sampleTypes [][2]uint64 // (type, unit) string indexes
		samples     []sample
		locLines    = map[uint64][]uint64{} // location id → function ids, innermost first
		funcName    = map[uint64]uint64{}   // function id → name string index
		strs        []string
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			var vt [2]uint64
			err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				if n == 1 || n == 2 {
					vt[n-1] = v
				}
				return nil
			})
			sampleTypes = append(sampleTypes, vt)
			return err
		case 2: // sample
			var s sample
			err := eachField(b, func(n, w int, v uint64, bb []byte) error {
				switch n {
				case 1:
					return appendPacked(&s.locs, w, v, bb)
				case 2:
					return appendPacked(&s.vals, w, v, bb)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(n, _ int, v uint64, bb []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					return eachField(bb, func(n, _ int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = v
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
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	cpu := -1
	for i, st := range sampleTypes {
		if str(st[0]) == "cpu" {
			cpu = i
		}
	}
	if cpu < 0 {
		return nil, errors.New("profile: no cpu sample type")
	}
	out := make([]sampleStack, 0, len(samples))
	for _, s := range samples {
		if cpu >= len(s.vals) {
			return nil, errors.New("profile: sample without a cpu value")
		}
		var frames []string
		for _, l := range s.locs {
			for _, f := range locLines[l] {
				frames = append(frames, str(funcName[f]))
			}
		}
		out = append(out, sampleStack{frames, int64(s.vals[cpu])})
	}
	return out, nil
}

// eachField walks the fields of one protobuf message. Varint and fixed
// fields arrive in v, length-delimited ones in b.
func eachField(msg []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			msg = msg[n:]
		case 1, 5:
			size := 8
			if wire == 5 {
				size = 4
			}
			if len(msg) < size {
				return errors.New("profile: truncated fixed field")
			}
			for i := size - 1; i >= 0; i-- {
				v = v<<8 | uint64(msg[i])
			}
			msg = msg[size:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || l > uint64(len(msg)-n) {
				return errors.New("profile: bad length")
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field given either packed or
// one value at a time.
func appendPacked(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}
