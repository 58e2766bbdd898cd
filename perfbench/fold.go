package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// A CPU profile (runtime/pprof, gzipped profile.proto) is decoded here with
// a minimal protobuf reader, so the benchmark needs nothing outside the
// standard library.

// stackSample is one profile sample: frames leaf first, value in CPU ns.
type stackSample struct {
	frames []string
	value  int64
}

// pbReader walks protobuf wire-format fields.
type pbReader struct{ b []byte }

func (r *pbReader) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(r.b) == 0 {
			return 0, io.ErrUnexpectedEOF
		}
		c := r.b[0]
		r.b = r.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errors.New("pprof: varint overflow")
}

// next returns the next field: its number, wire type, varint value (wire
// type 0) or payload (wire type 2).
func (r *pbReader) next() (field int, wire int, v uint64, payload []byte, err error) {
	key, err := r.varint()
	if err != nil {
		return 0, 0, 0, nil, err
	}
	field, wire = int(key>>3), int(key&7)
	switch wire {
	case 0:
		v, err = r.varint()
	case 1:
		if len(r.b) < 8 {
			return 0, 0, 0, nil, io.ErrUnexpectedEOF
		}
		r.b = r.b[8:]
	case 2:
		var n uint64
		if n, err = r.varint(); err == nil {
			if uint64(len(r.b)) < n {
				return 0, 0, 0, nil, io.ErrUnexpectedEOF
			}
			payload, r.b = r.b[:n], r.b[n:]
		}
	case 5:
		if len(r.b) < 4 {
			return 0, 0, 0, nil, io.ErrUnexpectedEOF
		}
		r.b = r.b[4:]
	default:
		err = fmt.Errorf("pprof: unsupported wire type %d", wire)
	}
	return field, wire, v, payload, err
}

// uints decodes a repeated integer field, packed (wire type 2) or not.
func uints(dst []uint64, wire int, v uint64, payload []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, v), nil
	}
	pr := pbReader{payload}
	for len(pr.b) > 0 {
		x, err := pr.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, x)
	}
	return dst, nil
}

// parseProfile decodes a gzipped CPU profile into leaf-first stacks.
// Inlined calls are expanded, innermost first, as pprof does.
func parseProfile(gz []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type rawSample struct{ locs, vals []uint64 }
	var (
		samples []rawSample
		locs    = map[uint64][]uint64{} // location ID → function IDs, innermost first
		funcs   = map[uint64]uint64{}   // function ID → name string index
		strs    []string
	)
	r := pbReader{raw}
	for len(r.b) > 0 {
		field, _, _, payload, err := r.next()
		if err != nil {
			return nil, err
		}
		sub := pbReader{payload}
		switch field {
		case 2: // Sample
			var s rawSample
			for len(sub.b) > 0 {
				f, w, v, p, err := sub.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					s.locs, err = uints(s.locs, w, v, p)
				case 2:
					s.vals, err = uints(s.vals, w, v, p)
				}
				if err != nil {
					return nil, err
				}
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			for len(sub.b) > 0 {
				f, _, v, p, err := sub.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					id = v
				case 4: // Line
					line := pbReader{p}
					for len(line.b) > 0 {
						lf, _, lv, _, err := line.next()
						if err != nil {
							return nil, err
						}
						if lf == 1 {
							fns = append(fns, lv)
						}
					}
				}
			}
			locs[id] = fns
		case 5: // Function
			var id, name uint64
			for len(sub.b) > 0 {
				f, _, v, _, err := sub.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
			}
			funcs[id] = name
		case 6: // string_table
			strs = append(strs, string(payload))
		}
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		if len(s.vals) == 0 {
			continue
		}
		ss := stackSample{value: int64(s.vals[len(s.vals)-1])}
		for _, l := range s.locs {
			for _, fid := range locs[l] {
				name := "?"
				if idx := funcs[fid]; idx < uint64(len(strs)) {
					name = strs[idx]
				}
				ss.frames = append(ss.frames, name)
			}
		}
		out = append(out, ss)
	}
	return out, nil
}

const modulePrefix = "idyll/internal/"

// genericPackages hold data structures shared by several layers; their
// frames are charged to the calling layer, so an L1/L2 flush scan inside
// cache.SetAssoc lands in datapath and a TLB probe lands in tlb.
var genericPackages = map[string]bool{"cache": true}

// layerOf maps a function name to its layer: the first package element
// under idyll/internal/ ("idyll/internal/sim/pdes.X" → "sim").
func layerOf(fn string) (string, bool) {
	if !strings.HasPrefix(fn, modulePrefix) {
		return "", false
	}
	rest := fn[len(modulePrefix):]
	end := strings.IndexAny(rest, "/.")
	if end < 0 {
		return "", false
	}
	layer := rest[:end]
	if genericPackages[layer] {
		return "", false
	}
	return layer, true
}

// foldByLayer charges every sample to the innermost frame that belongs to
// a layer package and returns each layer's share of the total. Samples with
// no layer frame go to "runtime" when their leaf is in the Go runtime
// (garbage collection, scheduling) and to "other" otherwise.
func foldByLayer(samples []stackSample) map[string]float64 {
	totals := map[string]int64{}
	var all int64
	for _, s := range samples {
		layer := "other"
		found := false
		for _, f := range s.frames {
			if l, ok := layerOf(f); ok {
				layer, found = l, true
				break
			}
		}
		if !found && len(s.frames) > 0 && strings.HasPrefix(s.frames[0], "runtime.") {
			layer = "runtime"
		}
		totals[layer] += s.value
		all += s.value
	}
	shares := make(map[string]float64, len(totals))
	for l, v := range totals {
		if all > 0 {
			shares[l] = float64(v) / float64(all)
		}
	}
	return shares
}

// stackShare is the share of CPU in samples whose stack contains fn, with
// everything it calls: the inclusive cost of one function.
func stackShare(samples []stackSample, fn string) float64 {
	var in, all int64
	for _, s := range samples {
		all += s.value
		for _, f := range s.frames {
			if f == fn {
				in += s.value
				break
			}
		}
	}
	if all == 0 {
		return 0
	}
	return float64(in) / float64(all)
}

// writeFolded writes stacks in the folded format flame-graph tools read:
// root-first frames joined by ";", a space, the value in CPU ns.
func writeFolded(path string, samples []stackSample) error {
	agg := map[string]int64{}
	for _, s := range samples {
		fr := make([]string, len(s.frames))
		for i, f := range s.frames {
			fr[len(fr)-1-i] = f
		}
		agg[strings.Join(fr, ";")] += s.value
	}
	keys := make([]string, 0, len(agg))
	for k := range agg {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s %d\n", k, agg[k])
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}
