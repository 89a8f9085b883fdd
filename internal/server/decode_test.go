package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// refDecode is the decoder the hand parser replaced: json.Decoder with
// DisallowUnknownFields into the instancesRequest schema. The differential
// tests hold parseInstances to exactly its accept/reject behavior and values.
func refDecode(body []byte) ([][]float64, error) {
	var req instancesRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, err
	}
	return req.Instances, nil
}

func handDecode(body []byte) ([][]float64, error) {
	sc := new(reqScratch)
	sc.body.Write(body)
	if err := parseInstances(sc); err != nil {
		return nil, err
	}
	rows := make([][]float64, len(sc.rowEnds))
	prev := 0
	for i, end := range sc.rowEnds {
		rows[i] = append([]float64(nil), sc.flat[prev:end]...)
		prev = end
	}
	return rows, nil
}

// parseInstancesCases is the differential table: bodies the hand parser must
// accept or reject exactly as encoding/json does. It also seeds
// FuzzParseInstances.
var parseInstancesCases = []string{
	// Accepted shapes.
	`{"instances": [[1,2],[3,4]]}`,
	`{"instances":[[1.5e-3,-0.25,2E+5,0,-0.0]]}`,
	"  {\n\t\"instances\" :\r [ [ 1 , 2 ] ] }  ",
	`{}`,
	`{"instances": null}`,
	`{"instances": []}`,
	`{"instances": [null]}`,
	`{"instances": [[]]}`,
	`{"instances": [[null, 1]]}`,
	`{"instances": [[1]], "instances": [[2,3]]}`, // duplicate key: last wins
	`{"\u0069nstances": [[7]]}`,                  // escaped key is still "instances"
	`{"instances": [[1.7976931348623157e308, 5e-324]]}`,
	`{"instances": [[3.141592653589793238462643383279]]}`,
	`{"instances": [[1]]}trailing garbage`, // Decode reads one value, ignores the rest
	`{"Instances": [[1]]}`,                 // keys match case-insensitively
	`{"INSTANCES": [[1]]}`,
	`{"inſtances": [[1]]}`, // ſ (U+017F) folds to s
	`{"instances": [[1]], "INSTANCES": [[2]]}`,
	`null`, // top-level null decodes as no instances
	` null `,
	// A repeated key decodes into the slices the earlier one filled, where a
	// null element keeps the stale value; null and [] start afresh.
	`{"instances": [[1,2]], "instances": [[null]]}`,
	`{"instances": [[1,2,3]], "instances": [[4]], "instances": [[null,null,null,null]]}`,
	`{"instances": [[1],[2]], "instances": [[3]], "instances": [[null],[null]]}`,
	`{"instances": [[1,2]], "instances": [], "instances": [[null]]}`,
	`{"instances": [[1,2]], "instances": null, "instances": [[null]]}`,
	`{"instances": [[1,2],[3]], "instances": [null,[]], "instances": [[null],[null]]}`,
	// Rejected shapes.
	``,
	`{`,
	`[[1,2]]`,
	`"instances"`,
	`nul`,
	`true`,
	`{"extra": 1}`,
	`{"instancesx": [[1]]}`,
	`{"instances": [[1]], "extra": 1}`,
	`{"instances": 5}`,
	`{"instances": {"a": 1}}`,
	`{"instances": [[1,]]}`,
	`{"instances": [[1],]}`,
	`{"instances": [[1]],}`,
	`{"instances": [[0123]]}`,
	`{"instances": [["x"]]}`,
	`{"instances": [[true]]}`,
	`{"instances": [[+1]]}`,
	`{"instances": [[.5]]}`,
	`{"instances": [[5.]]}`,
	`{"instances": [[1e]]}`,
	`{"instances": [[NaN]]}`,
	`{"instances": [[Infinity]]}`,
	`{"instances": [[1e999]]}`,  // overflow: ParseFloat range error
	`{"instances": [[1e-999]]}`, // underflow: same
	`{"instances": [[1 2]]}`,
	`{"instances": [[1]`,  // body ends inside a row
	`{"instances": [[1]]`, // body ends inside the object
	`{"instances" [[1]]}`,
	`{instances: [[1]]}`,
}

// diffDecode decodes body with both parsers and describes the first
// disagreement: accept vs reject, row shapes, or value bits. It returns ""
// when they agree.
func diffDecode(body []byte) string {
	want, wantErr := refDecode(body)
	got, gotErr := handDecode(body)
	if (wantErr == nil) != (gotErr == nil) {
		return fmt.Sprintf("%q: encoding/json err=%v, hand parser err=%v", body, wantErr, gotErr)
	}
	if wantErr != nil {
		return ""
	}
	if len(got) != len(want) {
		return fmt.Sprintf("%q: %d rows vs %d", body, len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			return fmt.Sprintf("%q row %d: %d values vs %d", body, i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if math.Float64bits(got[i][j]) != math.Float64bits(want[i][j]) {
				return fmt.Sprintf("%q row %d col %d: %v vs %v (bits differ)", body, i, j, got[i][j], want[i][j])
			}
		}
	}
	return ""
}

// Differential property: for every body, the hand parser and encoding/json
// agree on accept vs reject, and accepted bodies decode to bit-identical
// values (both funnel number tokens through strconv.ParseFloat).
func TestParseInstancesMatchesEncodingJSON(t *testing.T) {
	for _, body := range parseInstancesCases {
		if msg := diffDecode([]byte(body)); msg != "" {
			t.Error(msg)
		}
	}
}

// FuzzParseInstances is the same differential property over arbitrary
// bodies. Run it with `make fuzz-smoke`; inputs it once found live in
// testdata/fuzz/FuzzParseInstances and replay on every plain `go test`.
func FuzzParseInstances(f *testing.F) {
	for _, body := range parseInstancesCases {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		if msg := diffDecode(body); msg != "" {
			t.Fatal(msg)
		}
	})
}

// Random round-trip: any [][]float64 that json.Marshal can produce decodes
// bit-identically through the hand parser, across magnitudes from denormals
// to near-overflow.
func TestParseInstancesRandomRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 300; trial++ {
		rows := rng.Intn(5)
		cols := 1 + rng.Intn(6)
		inst := make([][]float64, rows)
		for i := range inst {
			inst[i] = make([]float64, cols)
			for j := range inst[i] {
				switch rng.Intn(4) {
				case 0:
					inst[i][j] = float64(rng.Intn(201) - 100)
				case 1:
					inst[i][j] = rng.NormFloat64()
				case 2:
					inst[i][j] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(600)-300))
				case 3:
					inst[i][j] = math.Copysign(5e-324, rng.NormFloat64()) // denormal edge
				}
			}
		}
		body, err := json.Marshal(instancesRequest{Instances: inst})
		if err != nil {
			t.Fatal(err)
		}
		got, err := handDecode(body)
		if err != nil {
			t.Fatalf("trial %d: %v on %s", trial, err, body)
		}
		if len(got) != rows {
			t.Fatalf("trial %d: %d rows, want %d", trial, len(got), rows)
		}
		for i := range inst {
			for j := range inst[i] {
				if math.Float64bits(got[i][j]) != math.Float64bits(inst[i][j]) {
					t.Fatalf("trial %d row %d col %d: %v vs %v", trial, i, j, got[i][j], inst[i][j])
				}
			}
		}
	}
}

// The scratch pool must serve requests of changing shapes without stale state
// bleeding through: a large request followed by a small one on the same
// scratch yields exactly the small request's rows.
func TestParseInstancesReusedScratch(t *testing.T) {
	sc := new(reqScratch)
	sc.body.WriteString(`{"instances": [[1,2,3],[4,5,6],[7,8,9]]}`)
	if err := parseInstances(sc); err != nil {
		t.Fatal(err)
	}
	sc.body.Reset()
	sc.body.WriteString(`{"instances": [[10,11]]}`)
	if err := parseInstances(sc); err != nil {
		t.Fatal(err)
	}
	if len(sc.rowEnds) != 1 || sc.rowEnds[0] != 2 {
		t.Fatalf("rowEnds = %v, want [2]", sc.rowEnds)
	}
	if sc.flat[0] != 10 || sc.flat[1] != 11 {
		t.Fatalf("flat = %v, want [10 11]", sc.flat[:2])
	}
}
