package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"repro/internal/algo"
	"repro/internal/graph/gen"
	"repro/internal/xrand"
)

// encoderBytes is the oracle of the encode side: what json.Encoder writes
// for v, or nothing when it refuses v.
func encoderBytes(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		buf.Reset()
	}
	return buf.Bytes()
}

func checkAppendResult(t *testing.T, r *Result) {
	t.Helper()
	want := encoderBytes(t, r)
	if got := appendResult(nil, r); !bytes.Equal(got, want) {
		t.Fatalf("appendResult differs from json.Encoder\n got: %q\nwant: %q", got, want)
	}
	for _, l := range []BatchLine{{Index: 3, Result: r}, {Index: 0, Error: r.Key, Status: 400}} {
		want := encoderBytes(t, l)
		if got := appendBatchLine([]byte("prefix"), &l); !bytes.Equal(got[len("prefix"):], want) {
			t.Fatalf("appendBatchLine differs from json.Encoder\n got: %q\nwant: %q", got[len("prefix"):], want)
		}
	}
}

// TestAppendResultEveryFamily pins byte identity with encoding/json on the
// answer of every registry algorithm.
func TestAppendResultEveryFamily(t *testing.T) {
	g := gen.GNP(120, 4.0/120, xrand.New(5))
	for _, spec := range realSpecs(t) {
		t.Run(spec.Name, func(t *testing.T) {
			res, err := algo.Run(context.Background(), spec.Name, g, equivParams(spec))
			if err != nil {
				t.Fatal(err)
			}
			w := WireResult(res)
			w.Snapshot = "00ff<&>"
			checkAppendResult(t, w)
		})
	}
}

func TestAppendResultEdgeCases(t *testing.T) {
	cases := []*Result{
		{},
		{Algorithm: "a\"b\\c\n\r\t\b\f\x00\x1f<>&", Key: "\xff\xfe ok \u2028\u2029 \u00e9 \u65e5\u672c", Kind: "x"},
		{ClusterOf: Int32s{}, ColorOf: Int32s{}, Clusters: Int32Lists{}, Solution: []bool{}, Metrics: map[string]float64{}},
		{ClusterOf: Int32s{0, -1, math.MaxInt32, math.MinInt32}, ColorOf: Int32s{7},
			Clusters: Int32Lists{nil, {}, {1, 2}, nil}, Solution: []bool{true, false}},
		{NumClusters: -3, NumColors: 2, Unclustered: 1, Value: -9, Exact: true, Feasible: true, Rounds: 1 << 40, ElapsedNS: 12},
		{Metrics: map[string]float64{
			"z": 1, "a": -0.5, "<k>": 1e21, "e-": 1e-7, "tiny": 5e-324, "big": math.MaxFloat64,
			"zero": 0, "negzero": math.Copysign(0, -1), "edge": 1e-6, "f": 123456789.125, "": 2,
		}},
		{Metrics: map[string]float64{"nan": math.NaN()}},
		{Metrics: map[string]float64{"ok": 1, "inf": math.Inf(-1)}},
	}
	for _, r := range cases {
		checkAppendResult(t, r)
	}
}

// fillNonZero sets every field reachable from v to a non-zero value, so no
// omitempty field is dropped and a field the codec leaves out shows up as
// a byte difference against json.Encoder.
func fillNonZero(t *testing.T, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.Struct:
		for i := range v.NumField() {
			fillNonZero(t, v.Field(i))
		}
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fillNonZero(t, v.Elem())
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		fillNonZero(t, v.Index(0))
		fillNonZero(t, v.Index(1))
	case reflect.Map:
		v.Set(reflect.MakeMap(v.Type()))
		k, e := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
		fillNonZero(t, k)
		fillNonZero(t, e)
		v.SetMapIndex(k, e)
	case reflect.String:
		v.SetString("s")
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int32, reflect.Int64:
		v.SetInt(7)
	case reflect.Float64:
		v.SetFloat(1.5)
	default:
		t.Fatalf("fillNonZero: no rule for %s; extend it and the codec", v.Type())
	}
}

// TestAppendResultEveryField guards the codec's hard-coded field lists: a
// field added to Result or BatchLine without a matching line in codec.go
// fails here, whatever the registry families happen to set.
func TestAppendResultEveryField(t *testing.T) {
	var r Result
	fillNonZero(t, reflect.ValueOf(&r).Elem())
	checkAppendResult(t, &r)
	var l BatchLine
	fillNonZero(t, reflect.ValueOf(&l).Elem())
	want := encoderBytes(t, &l)
	if got := appendBatchLine(nil, &l); !bytes.Equal(got, want) {
		t.Fatalf("appendBatchLine differs from json.Encoder\n got: %q\nwant: %q", got, want)
	}
}

// TestAppendResultNoAllocs pins the encoder's cost on a warm buffer: the
// only allocation is the sorted metric key list.
func TestAppendResultNoAllocs(t *testing.T) {
	r := &Result{Algorithm: "changli", Key: "k", Kind: "decomposition",
		ClusterOf: make(Int32s, 1000), Clusters: Int32Lists{{1, 2}}, Metrics: map[string]float64{"a": 1, "b": 2}}
	buf := appendResult(nil, r)
	if n := testing.AllocsPerRun(100, func() { buf = appendResult(buf[:0], r) }); n > 1 {
		t.Fatalf("appendResult allocates %v times per call, want <= 1", n)
	}
}

// checkInt32Decoders holds both wire types to their oracle: encoding/json
// decoding into a plain []int32 and [][]int32 must accept exactly the same
// inputs and produce the same values, through json.Unmarshal and through
// a direct UnmarshalJSON call alike.
func checkInt32Decoders(t *testing.T, data []byte) {
	t.Helper()
	var want []int32
	wantErr := json.Unmarshal(data, &want)
	var got Int32s
	gotErr := json.Unmarshal(data, &got)
	var direct Int32s
	directErr := direct.UnmarshalJSON(data)
	if (gotErr == nil) != (wantErr == nil) || (directErr == nil) != (wantErr == nil) {
		t.Fatalf("Int32s on %q: err %v / direct %v, encoding/json says %v", data, gotErr, directErr, wantErr)
	}
	if wantErr == nil && (!reflect.DeepEqual([]int32(got), want) || !reflect.DeepEqual([]int32(direct), want)) {
		t.Fatalf("Int32s on %q: got %#v / direct %#v, want %#v", data, got, direct, want)
	}

	var wantL [][]int32
	wantErr = json.Unmarshal(data, &wantL)
	var gotL Int32Lists
	gotErr = json.Unmarshal(data, &gotL)
	var directL Int32Lists
	directErr = directL.UnmarshalJSON(data)
	if (gotErr == nil) != (wantErr == nil) || (directErr == nil) != (wantErr == nil) {
		t.Fatalf("Int32Lists on %q: err %v / direct %v, encoding/json says %v", data, gotErr, directErr, wantErr)
	}
	if wantErr == nil && (!reflect.DeepEqual([][]int32(gotL), wantL) || !reflect.DeepEqual([][]int32(directL), wantL)) {
		t.Fatalf("Int32Lists on %q: got %#v / direct %#v, want %#v", data, gotL, directL, wantL)
	}
}

var int32DecoderSeeds = []string{
	`[]`, `[ ]`, `null`, ` null `, `nul`, `nulll`, `[null]`, `[1,null,3]`,
	`[0]`, `[-0]`, `[01]`, `[-]`, `[+1]`, `[1,]`, `[,1]`, `[1 2]`, `[1,,2]`,
	`[2147483647,-2147483648]`, `[2147483648]`, `[-2147483649]`, `[99999999999999999999999]`,
	`[1.0]`, `[1e2]`, `[1E2]`, `[-0.0]`, `["1"]`, `[true]`, `[{}]`, `[[1]]`, `[[]]`,
	"[\t1,\n2\r, 3 ]", `[1]x`, `[1`, `[`, `]`, ``, ` `, `{}`, `"abc"`, `7`, `true`,
	`[[1,2],null,[],[3]]`, `[[null,-5]]`, `[[1],2]`, `[[1],[2]`, `[[1,[2]]]`, `[["x"]]`,
	`[[1.5]]`, `[ [ 1 , 2 ] , [ ] ]`, `[null,null]`, `[[0,-0,2147483647]]`,
}

func TestInt32Decoders(t *testing.T) {
	for _, s := range int32DecoderSeeds {
		checkInt32Decoders(t, []byte(s))
	}
}

// TestWireTypesInsideResult decodes a full run answer through the wire
// types and compares it with plain-slice decoding of the same bytes.
func TestWireTypesInsideResult(t *testing.T) {
	r := &Result{Algorithm: "x", ClusterOf: Int32s{3, -1, 0}, ColorOf: Int32s{1},
		Clusters: Int32Lists{{0, 2}, nil, {}}, NumClusters: 2, Metrics: map[string]float64{"m": 0.25}}
	body := appendResult(nil, r)
	var got Result
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&got, r) {
		t.Fatalf("round trip: got %+v, want %+v", got, *r)
	}
	var plain struct {
		ClusterOf []int32   `json:"cluster_of"`
		Clusters  [][]int32 `json:"clusters"`
	}
	if err := json.Unmarshal(body, &plain); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain.ClusterOf, []int32(got.ClusterOf)) || !reflect.DeepEqual(plain.Clusters, [][]int32(got.Clusters)) {
		t.Fatalf("wire types decode %v %v, plain slices %v %v", got.ClusterOf, got.Clusters, plain.ClusterOf, plain.Clusters)
	}
}

// FuzzInt32sDecoder checks Int32s and Int32Lists against encoding/json on
// arbitrary input.
func FuzzInt32sDecoder(f *testing.F) {
	for _, s := range int32DecoderSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkInt32Decoders(t, data)
	})
}

// int32sFrom reads little-endian int32s from raw; a leading 0xff byte
// selects a nil slice.
func int32sFrom(raw []byte) Int32s {
	if len(raw) > 0 && raw[0] == 0xff {
		return nil
	}
	out := make(Int32s, 0, len(raw)/4)
	for ; len(raw) >= 4; raw = raw[4:] {
		out = append(out, int32(binary.LittleEndian.Uint32(raw)))
	}
	return out
}

// FuzzAppendResult checks appendResult and appendBatchLine against
// json.Encoder on results built from arbitrary strings, integer arrays
// (nil and empty included), inner cluster lists and metrics.
func FuzzAppendResult(f *testing.F) {
	f.Add("changli", "changli|eps=0.3", "decomposition", "", []byte{1, 0, 0, 0, 2, 0, 0, 0}, []byte{0xff},
		[]byte("\x01\x00\x00\x00;\xff;"), "cut", 0.25, "<&>", 1e-7, int64(3), uint8(0b101))
	f.Add("a\u2028b", "\xff\xfe", "k<i>nd&", "snap", []byte{}, []byte{}, []byte{}, "", math.NaN(), "x", math.Inf(1), int64(-1), uint8(0xff))
	f.Add("", "", "", "\x00\x1f\"\\", []byte{0xff}, []byte{9, 9, 9, 9}, []byte(";;"), "\t", -0.0, "\u00e9", 1e21, int64(0), uint8(0))
	f.Fuzz(func(t *testing.T, alg, key, kind, snap string, clusterOf, colorOf, clusters []byte,
		mk1 string, mv1 float64, mk2 string, mv2 float64, num int64, flags uint8) {
		r := &Result{
			Algorithm: alg, Key: key, Kind: kind, Snapshot: snap,
			ClusterOf: int32sFrom(clusterOf), ColorOf: int32sFrom(colorOf),
			NumClusters: int(num), NumColors: int(num >> 3), Unclustered: int(num % 5),
			Value: num * 7, Exact: flags&1 != 0, Feasible: flags&2 != 0, Rounds: int(num >> 1), ElapsedNS: num,
		}
		if flags&4 != 0 {
			r.Clusters = Int32Lists{}
			for _, part := range bytes.Split(clusters, []byte{';'}) {
				r.Clusters = append(r.Clusters, int32sFrom(part))
			}
		}
		if flags&8 != 0 {
			r.Solution = []bool{}
			for _, c := range clusters {
				r.Solution = append(r.Solution, c&1 != 0)
			}
		}
		if flags&16 != 0 {
			r.Metrics = map[string]float64{mk1: mv1, mk2: mv2}
		} else if flags&32 != 0 {
			r.Metrics = map[string]float64{}
		}
		checkAppendResult(t, r)
	})
}
