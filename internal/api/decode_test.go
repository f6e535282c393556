package api

import (
	"bytes"
	"encoding/json"
	"io"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
)

// decodeSeeds are bodies at every edge of the decoding contract. Each
// one is checked against encoding/json for all four request DTOs.
var decodeSeeds = []string{
	// Well-formed bodies.
	`{"job":"sort","env":"c3o","scale_out":4,"essential":[{"name":"dataset_size_mb","value":"10000"},{"name":"node_type","value":"m4.xlarge"}],"optional":[{"name":"jvm","value":"11"}]}`,
	`{"requests":[{"job":"grep","env":"c3o","scale_out":2,"essential":[{"name":"a","value":"b"}]},{"job":"sgd","scale_out":12}]}`,
	`{"job":"sort","env":"c3o","scale_out":4,"essential":[],"runtime_sec":99.5}`,
	`{"job":"sort","env":"c3o","essential":[{"name":"n","value":"v"}],"min_scale_out":2,"max_scale_out":16,"step":2,"candidates":[2,4,8],"deadline_sec":300,"cost_per_node_hour":0.25,"safety_margin":0.1,"min_model_samples":5,"observations":[{"scale_out":2,"runtime_sec":400},null,{"scale_out":4}]}`,
	" \t\r\n{ \"job\" : \"a\" , \"scale_out\" : 3 } ",
	`{}`,
	// Top-level values other than an object.
	``, ` `, `null`, ` null `, `nul`, `nullx`, `[]`, `[{"job":"a"}]`, `"job"`, `1`, `-1`, `true`, `false`, `x`,
	"\xef\xbb\xbf{}",
	// Trailing bytes after the first value are ignored.
	`{"job":"a"} garbage`, `{"job":"a"}{`, `{"job":"a"}]`, `null x`, `{"job":"a"}` + "\x00",
	// Syntax errors.
	`{`, `{"job"`, `{"job":`, `{"job":"a"`, `{"job":"a",}`, `{,"job":"a"}`, `{"job" "a"}`,
	`{"job":"a""env":"b"}`, `{job:"a"}`, `{'job':'a'}`, `{"job":"a"]`, `{"x":[1,]}`, `{"x":[,1]}`,
	`{"x":{"a":1,}}`, `{"x":{"a"}}`, `{"x":[1 2]}`, `{"x":tru}`, `{"x":nulll}`, `{"x":falsey}`,
	`{"x":+1}`, `{"x":01}`, `{"x":1.}`, `{"x":.5}`, `{"x":1e}`, `{"x":1e+}`, `{"x":-}`, `{"x":--1}`,
	`{"x":0x10}`, `{"x":NaN}`, `{"x":Infinity}`, `{"job":"a` + "\x01" + `"}`, `{"job":"a` + "\n" + `b"}`,
	`{"job":"\x"}`, `{"job":"\u12g4"}`, `{"job":"\u12"}`, `{"job":"\'"}`, `{"job":"\U0041"}`,
	`{"x":"unterminated}`, `{"x":[}`, `{"x":{]}`, `{"x":]}`,
	// Unknown fields are skipped, their syntax still validated.
	`{"x":[1,{"a":tru}],"job":"a"}`,
	`{"x":{"y":[1,2.5e-3,{"z":null}],"w":"\ud83d\ude00"},"job":"a","t":true,"f":false}`,
	`{"essential":[{"name":"a","extra":{"deep":[[],{}]},"value":"b"}]}`,
	`{"requests":[{"job":"a","x":[{"y":-0.0E+1}]}]}`,
	// Keys: exact name first, then case-insensitive under Unicode fold.
	`{"JOB":"a","Env":"b","SCALE_OUT":3,"Essential":[{"NAME":"n","Value":"v"}],"OPTIONAL":null}`,
	`{"ſcale_out":2}`, `{"\u017fcale_out":2}`, `{"ESSENTIAL":[{"name":"ſ"}],"runtime_ſec":1}`,
	`{"Requeſts":[{"job":"a"}]}`, `{"\u212a":1}`, "{\"\u212aob\":\"a\"}", `{"jOb":"a","job":"b"}`,
	`{"job":"a","JOB":"b"}`, `{"ſtep":4,"STEP":5}`, `{"scale-out":3}`, `{"scaleout":3}`, `{"job ":"a"}`,
	// Escaped keys.
	`{"\u006aob":"x"}`, `{"jo\u0062":"x","\u0065nv":"y"}`, `{"sc\u0061le_out":7}`, `{"\"job":"x"}`,
	`{"jo\ud800b":"x"}`, `{"job\u0000":"x"}`, "{\"jo\xffb\":\"x\"}",
	// Duplicate keys: the last wins, and a repeated slice decodes into
	// the elements already there, including ones past its length.
	`{"job":"a","job":"b"}`, `{"job":"a","job":null}`, `{"scale_out":3,"scale_out":null}`,
	`{"essential":[{"name":"a","value":"b"},{"name":"c","value":"d"}],"essential":[{"name":"x"}]}`,
	`{"essential":[{"name":"a","value":"b"},{"name":"c","value":"d"},{"name":"e","value":"f"}],"essential":[{"name":"x"}],"essential":[{"value":"y"},null,{}]}`,
	`{"essential":[{"name":"a"}],"essential":null,"essential":[null]}`,
	`{"essential":[{"name":"a"}],"essential":[],"essential":[null]}`,
	`{"requests":[{"job":"a","essential":[{"name":"n","value":"v"}]},{"job":"b"}],"requests":[{"env":"e"}],"requests":[{"essential":[null,{"name":"m"}]},null]}`,
	`{"candidates":[1,2,3,4,5],"candidates":[9],"candidates":[null,null,null]}`,
	`{"observations":[{"scale_out":1,"runtime_sec":2}],"observations":[{"runtime_sec":3}],"observations":[]}`,
	// null leaves strings, numbers and structs alone and sets slices to nil.
	`{"job":null,"env":null,"scale_out":null,"essential":null,"optional":null}`,
	`{"requests":[null,{"job":"a"},null]}`, `{"requests":null}`, `{"essential":[null]}`,
	`{"deadline_sec":null,"candidates":[null],"observations":[null]}`, `{"runtime_sec":null}`,
	// Type mismatches.
	`{"job":1}`, `{"job":true}`, `{"job":[]}`, `{"job":{}}`, `{"scale_out":"4"}`, `{"scale_out":true}`,
	`{"scale_out":[]}`, `{"essential":{}}`, `{"essential":"a"}`, `{"essential":[1]}`, `{"essential":["a"]}`,
	`{"essential":[[]]}`, `{"essential":[{"name":1}]}`, `{"requests":{}}`, `{"requests":[1]}`,
	`{"requests":[[]]}`, `{"candidates":["1"]}`, `{"candidates":[1.5]}`, `{"observations":[1]}`,
	`{"runtime_sec":"1"}`, `{"runtime_sec":false}`, `{"deadline_sec":{}}`,
	// Strings: invalid UTF-8 and unpaired surrogates become U+FFFD.
	"{\"job\":\"\xff\"}", "{\"job\":\"a\xed\xa0\x80b\"}", "{\"job\":\"\xe2\x82\"}", "{\"job\":\"\xc0\xaf\"}",
	"{\"job\":\"\xf4\x90\x80\x80\"}", "{\"job\":\"caf\xc3\xa9 \xe2\x82\xac \xf0\x9f\x98\x80\"}",
	`{"job":"\ud800"}`, `{"job":"\udc00"}`, `{"job":"\ud800\u0041"}`, `{"job":"\ud83d\ude00"}`,
	`{"job":"\ud800\ud800\udc00"}`, `{"job":"\udc00\ud800"}`, `{"job":"\ud800\\udc00"}`, `{"job":"x\ud800"}`,
	`{"job":"\uD83D\uDE00"}`, `{"job":"\u00e9\u20ac\u0000\uffff\ufffd"}`,
	`{"job":"\"\\\/\b\f\n\r\t"}`, `{"job":"a\/b"}`, "{\"job\":\"\x7f\"}",
	// Ints reject fractions, exponents and overflow.
	`{"scale_out":1.0}`, `{"scale_out":1e2}`, `{"scale_out":1E0}`, `{"scale_out":-0}`, `{"scale_out":0}`,
	`{"scale_out":9223372036854775807}`, `{"scale_out":9223372036854775808}`,
	`{"scale_out":-9223372036854775808}`, `{"scale_out":-9223372036854775809}`,
	`{"scale_out":99999999999999999999999}`, `{"min_model_samples":-12}`,
	// Floats reject values out of range.
	`{"runtime_sec":1e400}`, `{"runtime_sec":-1e400}`, `{"runtime_sec":1e-400}`, `{"runtime_sec":-0.0}`,
	`{"runtime_sec":1E+2}`, `{"runtime_sec":1.7976931348623157e308}`, `{"runtime_sec":1.8e308}`,
	`{"runtime_sec":0.1}`, `{"runtime_sec":123456789012345678901234567890}`, `{"cost_per_node_hour":5e-324}`,
	`{"safety_margin":4.9406564584124654e-324}`, `{"deadline_sec":2.5e-324}`,
}

// nestedSeeds are bodies around the 10 000-container nesting limit,
// built inside an unknown field and inside known ones.
func nestedSeeds() []string {
	nest := func(prefix string, n int, suffix string) string {
		return prefix + strings.Repeat("[", n) + strings.Repeat("]", n) + suffix
	}
	return []string{
		nest(`{"x":`, maxNestingDepth-1, `}`),
		nest(`{"x":`, maxNestingDepth, `}`),
		nest(`{"x":`, 20000, `}`),
		`{"x":` + strings.Repeat("[", 20000),
		`{"x":` + strings.Repeat(`{"a":`, maxNestingDepth-1) + "1" + strings.Repeat("}", maxNestingDepth-1) + `}`,
		`{"x":` + strings.Repeat(`{"a":`, maxNestingDepth) + "1" + strings.Repeat("}", maxNestingDepth) + `}`,
		nest(`{"requests":[{"essential":[{"x":`, maxNestingDepth-5, `}]}]}`),
		nest(`{"requests":[{"essential":[{"x":`, maxNestingDepth-4, `}]}]}`),
		nest(`{"job":`, 20000, `}`),
		nest(`{"essential":[`, 20000, `]}`),
	}
}

// unmarshal decodes data through a pooled decoder, as ReadRequest
// decodes the buffer it has read.
func unmarshal[T RequestBody](data []byte, v *T) error {
	d := getDecoder()
	defer putDecoder(d)
	return decode(d, data, v)
}

// checkAgainstOracle decodes b with unmarshal and with encoding/json
// into a zero T and fails unless both accept or both reject, with
// deeply equal values on success. The input is clobbered before the
// comparison, so a decoded string that aliases it shows up as a
// mismatch.
func checkAgainstOracle[T RequestBody](t *testing.T, b []byte) {
	t.Helper()
	var want, got T
	werr := json.NewDecoder(bytes.NewReader(b)).Decode(&want)
	in := bytes.Clone(b)
	gerr := unmarshal(in, &got)
	for i := range in {
		in[i] = '#'
	}
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("%T on %q: unmarshal err = %v, encoding/json err = %v", got, clip(b), gerr, werr)
	}
	if werr == nil && !reflect.DeepEqual(want, got) {
		t.Fatalf("%T on %q:\n unmarshal     %#v\n encoding/json %#v", got, clip(b), got, want)
	}
}

func checkAll(t *testing.T, b []byte) {
	t.Helper()
	checkAgainstOracle[PredictRequest](t, b)
	checkAgainstOracle[BatchRequest](t, b)
	checkAgainstOracle[ObserveRequest](t, b)
	checkAgainstOracle[AllocateRequest](t, b)
}

func clip(b []byte) []byte {
	if len(b) > 200 {
		return append(b[:200:200], "..."...)
	}
	return b
}

// FuzzDecodeRequest differentially tests the request decoder against
// encoding/json on every request DTO.
func FuzzDecodeRequest(f *testing.F) {
	for _, s := range decodeSeeds {
		f.Add([]byte(s))
	}
	for _, s := range nestedSeeds() {
		f.Add([]byte(s))
	}
	f.Fuzz(checkAll)
}

// TestDecodeNestingLimit pins the depth contract on its own:
// 10 000 open containers decode, 10 001 are an error.
func TestDecodeNestingLimit(t *testing.T) {
	ok := `{"x":` + strings.Repeat("[", maxNestingDepth-1) + strings.Repeat("]", maxNestingDepth-1) + `}`
	var p PredictRequest
	if err := unmarshal([]byte(ok), &p); err != nil {
		t.Fatalf("%d open containers: %v", maxNestingDepth, err)
	}
	deep := `{"x":` + strings.Repeat("[", maxNestingDepth) + strings.Repeat("]", maxNestingDepth) + `}`
	if err := unmarshal([]byte(deep), &p); err == nil {
		t.Fatalf("%d open containers decoded without error", maxNestingDepth+1)
	}
}

// TestReadRequestMatchesOracle decodes every seed through the pooled
// read path, one byte per Read and across a body larger than the pool
// keeps, so buffer reuse between bodies cannot leak one into the next.
func TestReadRequestMatchesOracle(t *testing.T) {
	big := `{"x":"` + strings.Repeat("y", 2*maxPooledBytes) + `","job":"after-big"}`
	bodies := append(append([]string{big}, decodeSeeds...), big)
	for _, s := range bodies {
		var want, got BatchRequest
		werr := json.NewDecoder(strings.NewReader(s)).Decode(&want)
		gerr := ReadRequest(iotest.HalfReader(strings.NewReader(s)), &got)
		if (werr == nil) != (gerr == nil) || werr == nil && !reflect.DeepEqual(want, got) {
			t.Fatalf("body %q: ReadRequest = %#v, %v; encoding/json = %#v, %v", clip([]byte(s)), got, gerr, want, werr)
		}
		var pwant, pgot PredictRequest
		werr = json.NewDecoder(strings.NewReader(s)).Decode(&pwant)
		gerr = ReadRequest(iotest.OneByteReader(strings.NewReader(s)), &pgot)
		if (werr == nil) != (gerr == nil) || werr == nil && !reflect.DeepEqual(pwant, pgot) {
			t.Fatalf("body %q: ReadRequest = %#v, %v; encoding/json = %#v, %v", clip([]byte(s)), pgot, gerr, pwant, werr)
		}
	}
}

// TestReadRequestReturnsReadError: a failing reader surfaces its own
// error, matchable through the wrap.
func TestReadRequestReturnsReadError(t *testing.T) {
	var p PredictRequest
	err := ReadRequest(iotest.ErrReader(io.ErrClosedPipe), &p)
	if err == nil || !strings.Contains(err.Error(), io.ErrClosedPipe.Error()) {
		t.Fatalf("ReadRequest over a failing reader = %v", err)
	}
}

// TestPooledDecoderDropsLargeBuffers: a body larger than the pool cap
// is read, but its buffer is not kept for the next request.
func TestPooledDecoderDropsLargeBuffers(t *testing.T) {
	d := getDecoder()
	body := `{"job":"` + strings.Repeat("\\u0061", maxPooledBytes) + `"}`
	if err := d.readAll(strings.NewReader(body)); err != nil {
		t.Fatal(err)
	}
	var p PredictRequest
	if err := decode(d, d.buf, &p); err != nil {
		t.Fatal(err)
	}
	if len(p.Job) != maxPooledBytes {
		t.Fatalf("decoded job of %d bytes, want %d", len(p.Job), maxPooledBytes)
	}
	putDecoder(d)
	if cap(d.buf) > maxPooledBytes || cap(d.str) > maxPooledBytes {
		t.Fatalf("pooled decoder kept %d body bytes and %d string bytes, cap %d", cap(d.buf), cap(d.str), maxPooledBytes)
	}
}

// TestInternedNamesAreStable: interning reuses one copy per name, and
// a slot taken over by another name never changes a string handed out
// earlier.
func TestInternedNamesAreStable(t *testing.T) {
	var reqs []PredictRequest
	for i := 0; i < 2*internSlots; i++ {
		var p PredictRequest
		body := `{"job":"job` + strings.Repeat("x", i%70) + `","essential":[{"name":"size","value":"1"}]}`
		if err := unmarshal([]byte(body), &p); err != nil {
			t.Fatal(err)
		}
		reqs = append(reqs, p)
	}
	for i, p := range reqs {
		if want := "job" + strings.Repeat("x", i%70); p.Job != want || p.Essential[0].Name != "size" {
			t.Fatalf("request %d decoded job %q name %q, want %q and size", i, p.Job, p.Essential[0].Name, want)
		}
	}
}

func benchBodies() (predict, batch []byte) {
	pr := PredictRequest{Job: "grep", Env: "c3o", ScaleOut: 6, Essential: []Property{
		{Name: "dataset_size_mb", Value: "9000"},
		{Name: "dataset_characteristics", Value: "zipf"},
		{Name: "job_parameters", Value: "--pattern error"},
		{Name: "node_type", Value: "r4.xlarge"},
	}}
	predict, _ = json.Marshal(pr)
	br := BatchRequest{Requests: make([]PredictRequest, 64)}
	for i := range br.Requests {
		br.Requests[i] = pr
		br.Requests[i].ScaleOut = i + 1
	}
	batch, _ = json.Marshal(br)
	return predict, batch
}

func BenchmarkDecodePredict(b *testing.B) {
	body, _ := benchBodies()
	b.ReportAllocs()
	for b.Loop() {
		var p PredictRequest
		if err := unmarshal(body, &p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeBatch64(b *testing.B) {
	_, body := benchBodies()
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for b.Loop() {
		var br BatchRequest
		if err := unmarshal(body, &br); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncodingJSONBatch64 is the reference the request decoder
// replaces.
func BenchmarkEncodingJSONBatch64(b *testing.B) {
	_, body := benchBodies()
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for b.Loop() {
		var br BatchRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&br); err != nil {
			b.Fatal(err)
		}
	}
}
