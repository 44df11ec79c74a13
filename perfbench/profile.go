package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A minimal reader for the gzipped profile.proto that runtime/pprof
// writes: just enough to attribute each CPU sample's time to the function
// at the top of its stack (self time) and to read the sample's labels.

// cpuSample is one profile sample: its leaf function, labels and CPU
// nanoseconds.
type cpuSample struct {
	leaf   string
	labels map[string]string
	ns     int64
}

type pbReader struct {
	b []byte
}

func (p *pbReader) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			return 0, io.ErrUnexpectedEOF
		}
		c := p.b[0]
		p.b = p.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errors.New("profile: varint overflow")
}

// next returns the next field's number, wire type, and either its varint
// value or its length-delimited bytes.
func (p *pbReader) next() (field int, wire int, v uint64, data []byte, err error) {
	key, err := p.varint()
	if err != nil {
		return 0, 0, 0, nil, err
	}
	field, wire = int(key>>3), int(key&7)
	switch wire {
	case 0:
		v, err = p.varint()
	case 1:
		if len(p.b) < 8 {
			return 0, 0, 0, nil, io.ErrUnexpectedEOF
		}
		p.b = p.b[8:]
	case 2:
		var n uint64
		if n, err = p.varint(); err == nil {
			if uint64(len(p.b)) < n {
				return 0, 0, 0, nil, io.ErrUnexpectedEOF
			}
			data, p.b = p.b[:n], p.b[n:]
		}
	case 5:
		if len(p.b) < 4 {
			return 0, 0, 0, nil, io.ErrUnexpectedEOF
		}
		p.b = p.b[4:]
	default:
		err = fmt.Errorf("profile: wire type %d", wire)
	}
	return field, wire, v, data, err
}

// uints appends a repeated integer field's values, packed or not.
func uints(dst []uint64, wire int, v uint64, data []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, v), nil
	}
	r := pbReader{data}
	for len(r.b) > 0 {
		x, err := r.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, x)
	}
	return dst, nil
}

// parseCPUProfile decodes a gzipped CPU profile into samples.
func parseCPUProfile(gz []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type rawSample struct {
		locs, values []uint64
		labels       [][2]uint64 // key, str string-table indices
	}
	var (
		samples  []rawSample
		strs     []string
		locLeaf  = map[uint64]uint64{} // location id -> leaf function id
		funcName = map[uint64]uint64{} // function id -> name string index
	)
	p := pbReader{raw}
	for len(p.b) > 0 {
		field, _, _, data, err := p.next()
		if err != nil {
			return nil, err
		}
		switch field {
		case 2: // sample
			var s rawSample
			q := pbReader{data}
			for len(q.b) > 0 {
				f, w, x, d, err := q.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					s.locs, err = uints(s.locs, w, x, d)
				case 2:
					s.values, err = uints(s.values, w, x, d)
				case 3:
					var kv [2]uint64
					l := pbReader{d}
					for len(l.b) > 0 {
						lf, _, lx, _, lerr := l.next()
						if lerr != nil {
							return nil, lerr
						}
						if lf == 1 || lf == 2 {
							kv[lf-1] = lx
						}
					}
					s.labels = append(s.labels, kv)
				}
				if err != nil {
					return nil, err
				}
			}
			samples = append(samples, s)
		case 4: // location
			var id, leaf uint64
			haveLeaf := false
			q := pbReader{data}
			for len(q.b) > 0 {
				f, _, x, d, err := q.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					id = x
				case 4: // line; the first is the innermost (inlined) frame
					if haveLeaf {
						continue
					}
					l := pbReader{d}
					for len(l.b) > 0 {
						lf, _, lx, _, lerr := l.next()
						if lerr != nil {
							return nil, lerr
						}
						if lf == 1 {
							leaf, haveLeaf = lx, true
						}
					}
				}
			}
			if haveLeaf {
				locLeaf[id] = leaf
			}
		case 5: // function
			var id, name uint64
			q := pbReader{data}
			for len(q.b) > 0 {
				f, _, x, _, err := q.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					id = x
				case 2:
					name = x
				}
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(data))
		}
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	out := make([]cpuSample, 0, len(samples))
	for _, s := range samples {
		if len(s.locs) == 0 || len(s.values) == 0 {
			continue
		}
		cs := cpuSample{ns: int64(s.values[len(s.values)-1])}
		if fn, ok := locLeaf[s.locs[0]]; ok {
			cs.leaf = str(funcName[fn])
		}
		if len(s.labels) > 0 {
			cs.labels = make(map[string]string, len(s.labels))
			for _, kv := range s.labels {
				cs.labels[str(kv[0])] = str(kv[1])
			}
		}
		out = append(out, cs)
	}
	return out, nil
}

// packageOf returns the import path of a symbol such as
// "frac/internal/svm.(*SVR).fit" or "encoding/json.(*decodeState).object".
func packageOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}
