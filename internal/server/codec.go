package server

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"strconv"
	"unicode/utf8"
)

// This file is the reflection-free half of the wire format. A run answer
// carries n-entry integer arrays, so encoding/json's per-element reflection
// dominates both ends of a cached hit. Each function here reproduces
// encoding/json's behaviour exactly (the fuzz targets in codec_test.go use
// encoding/json as their oracle); only the cost differs.

// UnmarshalJSON decodes a JSON array of integers, accepting exactly what
// encoding/json accepts for a plain []int32 and producing the same value:
// null decodes as nil, a null element as 0, and fractions, exponents,
// strings, nested values and anything outside the int32 range are errors.
func (s *Int32s) UnmarshalJSON(b []byte) error {
	p := intParser{b: b}
	p.space()
	var v []int32
	if !p.null() {
		var err error
		if v, err = p.ints(make([]int32, 0, arrayLen(b[p.i:]))); err != nil {
			return err
		}
	}
	if err := p.end(); err != nil {
		return err
	}
	*s = v
	return nil
}

// UnmarshalJSON decodes a JSON array of integer arrays with the semantics
// of encoding/json on a plain [][]int32 (a null inner array decodes as nil).
// The inner arrays share one exactly sized backing array, each capped at
// its own length so an append to one cannot overwrite the next.
func (s *Int32Lists) UnmarshalJSON(b []byte) error {
	p := intParser{b: b}
	p.space()
	var v [][]int32
	if !p.null() {
		if !p.eat('[') {
			return p.fail()
		}
		lists, ints := listsLen(b[p.i-1:])
		v = make([][]int32, 0, lists)
		flat := make([]int32, 0, ints)
		p.space()
		if !p.eat(']') {
			for {
				p.space()
				if p.null() {
					v = append(v, nil)
				} else {
					start := len(flat)
					var err error
					if flat, err = p.ints(flat); err != nil {
						return err
					}
					v = append(v, flat[start:len(flat):len(flat)])
				}
				p.space()
				if p.eat(']') {
					break
				}
				if !p.eat(',') {
					return p.fail()
				}
			}
		}
	}
	if err := p.end(); err != nil {
		return err
	}
	*s = v
	return nil
}

// intParser walks one JSON value made of arrays, integers and nulls.
type intParser struct {
	b []byte
	i int
}

func (p *intParser) space() {
	for p.i < len(p.b) && isSpace(p.b[p.i]) {
		p.i++
	}
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

func (p *intParser) eat(c byte) bool {
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

func (p *intParser) null() bool {
	if bytes.HasPrefix(p.b[p.i:], []byte("null")) {
		p.i += 4
		return true
	}
	return false
}

func (p *intParser) fail() error {
	if p.i >= len(p.b) {
		return fmt.Errorf("json: unexpected end of integer array input")
	}
	return fmt.Errorf("json: invalid character %q at offset %d of an integer array", p.b[p.i], p.i)
}

// end accepts trailing whitespace only.
func (p *intParser) end() error {
	p.space()
	if p.i != len(p.b) {
		return p.fail()
	}
	return nil
}

// ints parses one flat array of integers and nulls, appending to v.
func (p *intParser) ints(v []int32) ([]int32, error) {
	if !p.eat('[') {
		return v, p.fail()
	}
	p.space()
	if p.eat(']') {
		return v, nil
	}
	for {
		p.space()
		x, err := p.int32()
		if err != nil {
			return v, err
		}
		v = append(v, x)
		if p.eat(',') { // the compact form the server writes
			continue
		}
		p.space()
		if p.eat(']') {
			return v, nil
		}
		if !p.eat(',') {
			return v, p.fail()
		}
	}
}

// int32 parses one element: null (0) or a JSON integer in int32 range.
func (p *intParser) int32() (int32, error) {
	b, i := p.b, p.i
	if i < len(b) && b[i] == 'n' {
		if p.null() {
			return 0, nil
		}
		return 0, p.fail()
	}
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	if i >= len(b) || b[i] < '0' || b[i] > '9' {
		p.i = i
		return 0, p.fail()
	}
	var n int64
	if b[i] == '0' { // JSON forbids leading zeros: "0" stands alone
		i++
	} else {
		for ; i < len(b) && b[i] >= '0' && b[i] <= '9'; i++ {
			if n <= math.MaxInt32+1 { // saturate: anything larger is out of range
				n = n*10 + int64(b[i]-'0')
			}
		}
	}
	if neg {
		n = -n
	}
	frac := i < len(b) && (b[i] == '.' || b[i] == 'e' || b[i] == 'E')
	if frac || n < math.MinInt32 || n > math.MaxInt32 {
		return 0, fmt.Errorf("json: cannot unmarshal the number at offset %d into Go value of type int32", p.i)
	}
	p.i = i
	return int32(n), nil
}

// arrayLen counts the elements of the flat array at the start of b from its
// separators. It trusts the input: a malformed array fails in the parse
// that follows, and a wrong count costs only a regrow.
func arrayLen(b []byte) int {
	end := bytes.IndexByte(b, ']')
	if end < 1 {
		return 0
	}
	if n := bytes.Count(b[:end], []byte{','}); n > 0 {
		return n + 1
	}
	if len(bytes.TrimLeft(b[1:end], " \t\n\r")) > 0 {
		return 1
	}
	return 0
}

// listsLen counts the inner arrays of the array of arrays at the start of
// b and the integers inside them, with arrayLen's trust in the input.
func listsLen(b []byte) (lists, ints int) {
	depth := 0
	outerSeen, innerSeen := false, false
	for _, c := range b {
		switch c {
		case '[':
			depth++
			if depth == 2 {
				outerSeen, innerSeen = true, false
			}
		case ']':
			if depth == 2 && innerSeen {
				ints++
			}
			if depth--; depth == 0 {
				if outerSeen {
					lists++
				}
				return lists, ints
			}
		case ',':
			switch depth {
			case 1:
				lists++
			case 2:
				ints++
			}
		case ' ', '\t', '\n', '\r':
		default:
			outerSeen = outerSeen || depth == 1
			innerSeen = innerSeen || depth == 2
		}
	}
	return 0, 0
}

// appendResult appends r exactly as json.NewEncoder(w).Encode(r) writes it:
// fields in struct order with omitempty honoured, strings escaped the way
// encoding/json escapes them (HTML characters included), metrics with
// sorted keys, and a trailing newline. Like the encoder, it writes nothing
// when a metric is NaN or infinite, which JSON cannot represent.
func appendResult(b []byte, r *Result) []byte {
	if !finiteMetrics(r.Metrics) {
		return b
	}
	return append(appendResultObject(b, r), '\n')
}

// appendBatchLine appends one line of a batch stream as json.Encoder
// writes it, with appendResult's NaN rule.
func appendBatchLine(b []byte, l *BatchLine) []byte {
	if l.Result != nil && !finiteMetrics(l.Result.Metrics) {
		return b
	}
	b = append(b, `{"index":`...)
	b = strconv.AppendInt(b, int64(l.Index), 10)
	if l.Result != nil {
		b = appendResultObject(append(b, `,"result":`...), l.Result)
	}
	if l.Error != "" {
		b = appendString(append(b, `,"error":`...), l.Error)
	}
	if l.Status != 0 {
		b = strconv.AppendInt(append(b, `,"status":`...), int64(l.Status), 10)
	}
	return append(b, "}\n"...)
}

func finiteMetrics(m map[string]float64) bool {
	for _, v := range m {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// appendResultObject appends r's JSON object; its field order and omitempty
// rules mirror the struct tags of Result.
func appendResultObject(b []byte, r *Result) []byte {
	b = appendString(append(b, `{"algorithm":`...), r.Algorithm)
	b = appendString(append(b, `,"key":`...), r.Key)
	b = appendString(append(b, `,"kind":`...), r.Kind)
	if r.Snapshot != "" {
		b = appendString(append(b, `,"snapshot":`...), r.Snapshot)
	}
	if len(r.ClusterOf) > 0 {
		b = appendInts(append(b, `,"cluster_of":`...), r.ClusterOf)
	}
	if len(r.ColorOf) > 0 {
		b = appendInts(append(b, `,"color_of":`...), r.ColorOf)
	}
	if len(r.Clusters) > 0 {
		b = append(b, `,"clusters":[`...)
		for i, c := range r.Clusters {
			if i > 0 {
				b = append(b, ',')
			}
			if c == nil {
				b = append(b, "null"...)
			} else {
				b = appendInts(b, c)
			}
		}
		b = append(b, ']')
	}
	b = strconv.AppendInt(append(b, `,"num_clusters":`...), int64(r.NumClusters), 10)
	if r.NumColors != 0 {
		b = strconv.AppendInt(append(b, `,"num_colors":`...), int64(r.NumColors), 10)
	}
	if r.Unclustered != 0 {
		b = strconv.AppendInt(append(b, `,"unclustered":`...), int64(r.Unclustered), 10)
	}
	if len(r.Solution) > 0 {
		b = append(b, `,"solution":[`...)
		for i, x := range r.Solution {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendBool(b, x)
		}
		b = append(b, ']')
	}
	if r.Value != 0 {
		b = strconv.AppendInt(append(b, `,"value":`...), r.Value, 10)
	}
	if r.Exact {
		b = append(b, `,"exact":true`...)
	}
	if r.Feasible {
		b = append(b, `,"feasible":true`...)
	}
	b = strconv.AppendInt(append(b, `,"rounds":`...), int64(r.Rounds), 10)
	if len(r.Metrics) > 0 {
		keys := make([]string, 0, len(r.Metrics))
		for k := range r.Metrics {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		b = append(b, `,"metrics":{`...)
		for i, k := range keys {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendFloat(append(appendString(b, k), ':'), r.Metrics[k])
		}
		b = append(b, '}')
	}
	if r.ElapsedNS != 0 {
		b = strconv.AppendInt(append(b, `,"elapsed_ns":`...), r.ElapsedNS, 10)
	}
	return append(b, '}')
}

func appendInts(b []byte, xs []int32) []byte {
	b = append(b, '[')
	for i, x := range xs {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(x), 10)
	}
	return append(b, ']')
}

// appendFloat formats a finite float64 as encoding/json does: ES6 number
// formatting, exponent form outside [1e-6, 1e21), no zero-padded exponent.
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-09 becomes e-9
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

const hexDigits = "0123456789abcdef"

// appendString quotes s as encoding/json does with HTML escaping on:
// control characters, quote, backslash and <, >, & are escaped, invalid
// UTF-8 becomes \ufffd, and U+2028/U+2029 are escaped.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(append(b, s[start:i]...), `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(append(b, s[start:i]...), '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(b, s[start:]...), '"')
}
