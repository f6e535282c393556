package api

import (
	"fmt"
	"io"
	"strconv"
	"sync"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// RequestBody is the set of inbound /v1 request DTOs that ReadRequest
// decodes.
type RequestBody interface {
	PredictRequest | BatchRequest | ObserveRequest | AllocateRequest
}

const (
	// maxNestingDepth bounds how many objects and arrays may be open at
	// once, counting the body's own top-level object. It is the limit
	// encoding/json's scanner enforces.
	maxNestingDepth = 10000
	// maxPooledBytes caps the scratch a pooled decoder keeps between
	// requests: one large body must not pin its buffer for the life of
	// the process.
	maxPooledBytes = 64 << 10
	// internSlots and internMaxLen size the per-decoder table that
	// reuses the strings of names (job, env, property names), which
	// come from a small vocabulary and repeat in every request.
	internSlots  = 256
	internMaxLen = 64
)

// ReadRequest reads r to EOF into a pooled buffer and decodes the
// first JSON value in it into *v. It accepts and rejects exactly what
// json.NewDecoder(r).Decode(v) does and produces the same values,
// without reflection and in one pass over the body:
//
//   - unknown fields are skipped, but their syntax is fully validated;
//   - a key matches a field by its exact name first, then
//     case-insensitively under encoding/json's fold (so U+017F ſ
//     matches s and U+212A K matches k), after unescaping;
//   - of duplicate keys the last wins, and a repeated array field
//     decodes into the elements the slice already holds;
//   - null leaves a string, number or struct untouched and sets a
//     slice to nil;
//   - invalid UTF-8 and unpaired surrogates in strings become U+FFFD;
//   - an int field rejects fractions, exponents and overflow, and a
//     float field rejects values out of float64 range;
//   - bytes after the first JSON value are ignored;
//   - more than 10 000 open objects and arrays is an error.
//
// Unlike encoding/json it always reads r to EOF first, so a read
// error wins over whatever the body holds; it is returned wrapped,
// so callers can still match it (for example *http.MaxBytesError).
// Decoded strings never alias the pooled buffer.
func ReadRequest[T RequestBody](r io.Reader, v *T) error {
	d := getDecoder()
	defer putDecoder(d)
	if err := d.readAll(r); err != nil {
		return fmt.Errorf("api: reading request body: %w", err)
	}
	return decode(d, d.buf, v)
}

// decode decodes data into *v as ReadRequest describes.
func decode[T RequestBody](d *decoder, data []byte, v *T) error {
	d.data, d.off = data, 0
	d.ws()
	switch p := any(v).(type) {
	case *PredictRequest:
		return d.predict(p, 1)
	case *BatchRequest:
		return d.batch(p, 1)
	case *ObserveRequest:
		return d.observe(p, 1)
	case *AllocateRequest:
		return d.allocate(p, 1)
	}
	panic(fmt.Sprintf("api: no decoder for %T", v))
}

// decoder holds one decode's input and the scratch reused across
// decodes through decoderPool.
type decoder struct {
	data []byte
	off  int

	buf   []byte // body read by ReadRequest
	key   []byte // unescaped object key
	str   []byte // unescaped string value
	stack []byte // open containers while skipping a value
	names [internSlots]string
}

var decoderPool = sync.Pool{New: func() any { return new(decoder) }}

func getDecoder() *decoder { return decoderPool.Get().(*decoder) }

func putDecoder(d *decoder) {
	d.data = nil
	if cap(d.buf) > maxPooledBytes {
		d.buf = nil
	}
	if cap(d.key) > maxPooledBytes {
		d.key = nil
	}
	if cap(d.str) > maxPooledBytes {
		d.str = nil
	}
	decoderPool.Put(d)
}

// readAll reads r to EOF into d.buf, reusing its capacity.
func (d *decoder) readAll(r io.Reader) error {
	b := d.buf[:0]
	if cap(b) == 0 {
		b = make([]byte, 0, 512)
	}
	for {
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err != nil {
			d.buf = b
			if err == io.EOF {
				return nil
			}
			return err
		}
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
	}
}

func (d *decoder) errorf(format string, args ...any) error {
	return fmt.Errorf("api: decoding request body at offset %d: %s", d.off, fmt.Sprintf(format, args...))
}

// unexpected reports the byte at d.off, or the end of the body.
func (d *decoder) unexpected(context string) error {
	if d.off >= len(d.data) {
		return d.errorf("unexpected end of body %s", context)
	}
	return d.errorf("invalid character %q %s", d.data[d.off], context)
}

// mistyped reports a value whose kind the target field cannot hold,
// or a byte that starts no value at all.
func (d *decoder) mistyped(want string) error {
	var kind string
	switch c := d.peek(); {
	case c == '{':
		kind = "object"
	case c == '[':
		kind = "array"
	case c == '"':
		kind = "string"
	case c == 't' || c == 'f':
		kind = "bool"
	case c == '-' || '0' <= c && c <= '9':
		kind = "number"
	default:
		return d.unexpected("looking for beginning of value")
	}
	return d.errorf("cannot decode %s into %s", kind, want)
}

// ws skips JSON whitespace.
func (d *decoder) ws() {
	for d.off < len(d.data) {
		switch d.data[d.off] {
		case ' ', '\t', '\n', '\r':
			d.off++
		default:
			return
		}
	}
}

// peek returns the byte at d.off, or 0 at the end of the body.
func (d *decoder) peek() byte {
	if d.off < len(d.data) {
		return d.data[d.off]
	}
	return 0
}

// consume skips c if it is the next byte.
func (d *decoder) consume(c byte) bool {
	if d.off < len(d.data) && d.data[d.off] == c {
		d.off++
		return true
	}
	return false
}

// member reads the next member key of the object whose '{' (first) or
// previous value was just consumed, and positions d.off at its value.
// ok is false once the closing '}' has been consumed.
func (d *decoder) member(first bool) (key []byte, ok bool, err error) {
	d.ws()
	if d.consume('}') {
		return nil, false, nil
	}
	if !first {
		if !d.consume(',') {
			return nil, false, d.unexpected("after object member")
		}
		d.ws()
	}
	raw, plain, err := d.scanString()
	if err != nil {
		return nil, false, err
	}
	key = raw
	if !plain {
		d.key = unquote(d.key[:0], raw)
		key = d.key
	}
	d.ws()
	if !d.consume(':') {
		return nil, false, d.unexpected("after object key")
	}
	d.ws()
	return key, true, nil
}

// scanString consumes the string at d.off and returns its raw bytes
// between the quotes. plain reports that they need no unescaping or
// UTF-8 repair.
func (d *decoder) scanString() (raw []byte, plain bool, err error) {
	if !d.consume('"') {
		return nil, false, d.unexpected("looking for beginning of string")
	}
	start := d.off
	plain = true
	for d.off < len(d.data) {
		c := d.data[d.off]
		switch {
		case c == '"':
			raw = d.data[start:d.off]
			d.off++
			return raw, plain, nil
		case c == '\\':
			plain = false
			d.off++
			switch d.peek() {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				d.off++
			case 'u':
				d.off++
				for i := 0; i < 4; i++ {
					if unhex(d.peek()) < 0 {
						return nil, false, d.unexpected("in \\u escape")
					}
					d.off++
				}
			default:
				return nil, false, d.unexpected("in string escape")
			}
		case c < ' ':
			return nil, false, d.unexpected("in string literal")
		default:
			if c >= utf8.RuneSelf {
				plain = false
			}
			d.off++
		}
	}
	return nil, false, d.unexpected("in string literal")
}

func unhex(c byte) rune {
	switch {
	case '0' <= c && c <= '9':
		return rune(c - '0')
	case 'a' <= c && c <= 'f':
		return rune(c - 'a' + 10)
	case 'A' <= c && c <= 'F':
		return rune(c - 'A' + 10)
	}
	return -1
}

// getu4 decodes the \uXXXX escape at the start of s, or returns -1.
func getu4(s []byte) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range s[2:6] {
		h := unhex(c)
		if h < 0 {
			return -1
		}
		r = r<<4 | h
	}
	return r
}

// unquote appends the string value of the validated raw string
// contents s to dst: escapes are decoded, a surrogate escape without
// its pair and every byte of invalid UTF-8 become U+FFFD.
func unquote(dst, s []byte) []byte {
	for r := 0; r < len(s); {
		c := s[r]
		switch {
		case c == '\\':
			e := s[r+1]
			r += 2
			switch e {
			case 'b':
				dst = append(dst, '\b')
			case 'f':
				dst = append(dst, '\f')
			case 'n':
				dst = append(dst, '\n')
			case 'r':
				dst = append(dst, '\r')
			case 't':
				dst = append(dst, '\t')
			case 'u':
				rr := getu4(s[r-2:])
				r += 4
				if utf16.IsSurrogate(rr) {
					if dec := utf16.DecodeRune(rr, getu4(s[r:])); dec != unicode.ReplacementChar {
						dst = utf8.AppendRune(dst, dec)
						r += 6
						break
					}
					rr = unicode.ReplacementChar
				}
				dst = utf8.AppendRune(dst, rr)
			default: // '"', '\\', '/'
				dst = append(dst, e)
			}
		case c < utf8.RuneSelf:
			dst = append(dst, c)
			r++
		default:
			rr, size := utf8.DecodeRune(s[r:])
			dst = utf8.AppendRune(dst, rr)
			r += size
		}
	}
	return dst
}

// string decodes a string value into *dst; null leaves it untouched.
// intern reuses an earlier copy of equal bytes.
func (d *decoder) string(dst *string, intern bool) error {
	switch d.peek() {
	case 'n':
		return d.null()
	case '"':
	default:
		return d.mistyped("string")
	}
	raw, plain, err := d.scanString()
	if err != nil {
		return err
	}
	if !plain {
		d.str = unquote(d.str[:0], raw)
		raw = d.str
	}
	if intern {
		*dst = d.intern(raw)
	} else {
		*dst = string(raw)
	}
	return nil
}

// intern returns a string equal to b, reusing the copy made for the
// last equal name that hashed to the same slot.
func (d *decoder) intern(b []byte) string {
	if len(b) > internMaxLen {
		return string(b)
	}
	h := uint32(2166136261) // FNV-1a
	for _, c := range b {
		h = (h ^ uint32(c)) * 16777619
	}
	slot := &d.names[h%internSlots]
	if *slot != string(b) {
		*slot = string(b)
	}
	return *slot
}

// literal consumes the literal word at d.off.
func (d *decoder) literal(word string) error {
	for i := 0; i < len(word); i++ {
		if !d.consume(word[i]) {
			return d.unexpected("in literal " + word)
		}
	}
	return nil
}

func (d *decoder) null() error { return d.literal("null") }

// scanNumber consumes the number at d.off and returns its bytes.
func (d *decoder) scanNumber() ([]byte, error) {
	start := d.off
	d.consume('-')
	switch c := d.peek(); {
	case c == '0':
		d.off++
	case '1' <= c && c <= '9':
		d.digits()
	default:
		return nil, d.unexpected("in numeric literal")
	}
	if d.consume('.') && !d.digits() {
		return nil, d.unexpected("after decimal point in numeric literal")
	}
	if c := d.peek(); c == 'e' || c == 'E' {
		d.off++
		if c := d.peek(); c == '+' || c == '-' {
			d.off++
		}
		if !d.digits() {
			return nil, d.unexpected("in exponent of numeric literal")
		}
	}
	return d.data[start:d.off], nil
}

// digits consumes a run of decimal digits and reports whether there
// was at least one.
func (d *decoder) digits() bool {
	start := d.off
	for d.off < len(d.data) && '0' <= d.data[d.off] && d.data[d.off] <= '9' {
		d.off++
	}
	return d.off > start
}

// int decodes an integer into *dst; null leaves it untouched.
func (d *decoder) int(dst *int) error {
	switch c := d.peek(); {
	case c == 'n':
		return d.null()
	case c != '-' && (c < '0' || c > '9'):
		return d.mistyped("int")
	}
	num, err := d.scanNumber()
	if err != nil {
		return err
	}
	// Like encoding/json, a fraction or an exponent is a type error
	// even when the value is whole.
	n, err := strconv.ParseInt(string(num), 10, strconv.IntSize)
	if err != nil {
		return d.errorf("cannot decode number into int: fraction, exponent or out of range")
	}
	*dst = int(n)
	return nil
}

// float decodes a number into *dst; null leaves it untouched.
func (d *decoder) float(dst *float64) error {
	switch c := d.peek(); {
	case c == 'n':
		return d.null()
	case c != '-' && (c < '0' || c > '9'):
		return d.mistyped("float64")
	}
	num, err := d.scanNumber()
	if err != nil {
		return err
	}
	f, err := strconv.ParseFloat(string(num), 64)
	if err != nil {
		return d.errorf("cannot decode number into float64: out of range")
	}
	*dst = f
	return nil
}

// skip consumes one value of any kind, validating its syntax without
// storing it. depth is the number of containers already open around
// it. It keeps the containers it opens on d.stack rather than
// recursing, so hostile nesting costs a bounded byte slice, not
// goroutine stack.
func (d *decoder) skip(depth int) error {
	open := d.stack[:0]
	defer func() { d.stack = open[:0] }()
	for {
		switch c := d.peek(); c {
		case '{', '[':
			if depth+len(open) >= maxNestingDepth {
				return d.errorf("exceeded max depth %d", maxNestingDepth)
			}
			d.off++
			open = append(open, c)
			d.ws()
			if d.consume(closer(c)) {
				open = open[:len(open)-1]
				break
			}
			if c == '{' {
				if err := d.skipKey(); err != nil {
					return err
				}
			}
			continue
		case '"':
			if _, _, err := d.scanString(); err != nil {
				return err
			}
		case 't':
			if err := d.literal("true"); err != nil {
				return err
			}
		case 'f':
			if err := d.literal("false"); err != nil {
				return err
			}
		case 'n':
			if err := d.null(); err != nil {
				return err
			}
		default:
			if _, err := d.scanNumber(); err != nil {
				return err
			}
		}
		// A value ended: close every container it completes, then move
		// on to the next element or member.
		for {
			if len(open) == 0 {
				return nil
			}
			d.ws()
			top := open[len(open)-1]
			if d.consume(closer(top)) {
				open = open[:len(open)-1]
				continue
			}
			if !d.consume(',') {
				return d.unexpected("after value")
			}
			d.ws()
			if top == '{' {
				if err := d.skipKey(); err != nil {
					return err
				}
			}
			break
		}
	}
}

func closer(open byte) byte {
	if open == '{' {
		return '}'
	}
	return ']'
}

// skipKey consumes a member key and its colon.
func (d *decoder) skipKey() error {
	if _, _, err := d.scanString(); err != nil {
		return err
	}
	d.ws()
	if !d.consume(':') {
		return d.unexpected("after object key")
	}
	d.ws()
	return nil
}

// fieldIndex returns the index of the field named key, matched the
// way encoding/json matches: the exact name first, then under case
// folding. It returns -1 for an unknown key.
func fieldIndex(key []byte, names []string) int {
	for i, name := range names {
		if string(key) == name {
			return i
		}
	}
	for i, name := range names {
		if foldEqual(key, name) {
			return i
		}
	}
	return -1
}

// foldEqual reports whether key equals the ASCII name under Unicode
// simple case folding, as bytes.EqualFold does.
func foldEqual(key []byte, name string) bool {
	i := 0
	for j := 0; j < len(name); j++ {
		if i == len(key) {
			return false
		}
		r, n := rune(key[i]), 1
		if r >= utf8.RuneSelf {
			r, n = utf8.DecodeRune(key[i:])
		}
		if foldRune(r) != foldRune(rune(name[j])) {
			return false
		}
		i += n
	}
	return i == len(key)
}

// foldRune returns the smallest rune of r's case-folding orbit.
func foldRune(r rune) rune {
	for {
		r2 := unicode.SimpleFold(r)
		if r2 <= r {
			return r2
		}
		r = r2
	}
}

// list decodes an array into *s, or sets *s to nil on null. Element i
// decodes into whatever s's backing array already holds at i, as
// encoding/json's reflective slice growth does, so a repeated key
// merges into the elements of the earlier one; an empty array leaves
// an empty, non-nil slice.
func list[T any](d *decoder, s *[]T, depth int, elem func(*decoder, *T, int) error) error {
	switch d.peek() {
	case 'n':
		if err := d.null(); err != nil {
			return err
		}
		*s = nil
		return nil
	case '[':
	default:
		return d.mistyped("slice")
	}
	d.off++
	d.ws()
	n := 0
	if !d.consume(']') {
		for {
			if n == cap(*s) {
				// Grow keeping the whole old backing array, as reflect's
				// Value.Grow does; the capacity policy is invisible.
				grown := make([]T, n+1, max(2*n, 4))
				copy(grown, (*s)[:n])
				*s = grown
			}
			if n >= len(*s) {
				*s = (*s)[:n+1]
			}
			if err := elem(d, &(*s)[n], depth+1); err != nil {
				return err
			}
			n++
			d.ws()
			if d.consume(']') {
				break
			}
			if !d.consume(',') {
				return d.unexpected("after array element")
			}
			d.ws()
		}
	}
	if n < len(*s) {
		*s = (*s)[:n]
	}
	if n == 0 {
		*s = []T{}
	}
	return nil
}

// object decodes the object at d.off, at nesting level depth, into a
// struct whose JSON field names are names. For each member it calls
// field with the index of the matching name and d.off at the value;
// members with unknown keys are skipped. null leaves the struct
// untouched, and any other value is a type error.
func (d *decoder) object(depth int, names []string, field func(i int) error) error {
	switch d.peek() {
	case 'n':
		return d.null()
	case '{':
	default:
		return d.mistyped("struct")
	}
	d.off++
	for first := true; ; first = false {
		key, ok, err := d.member(first)
		if err != nil || !ok {
			return err
		}
		if i := fieldIndex(key, names); i >= 0 {
			err = field(i)
		} else {
			err = d.skip(depth)
		}
		if err != nil {
			return err
		}
	}
}

var predictFields = []string{"job", "env", "scale_out", "essential", "optional"}

func (d *decoder) predict(p *PredictRequest, depth int) error {
	return d.object(depth, predictFields, func(i int) error { return d.predictField(p, i, depth) })
}

// predictField decodes the value of field i of predictFields into p.
func (d *decoder) predictField(p *PredictRequest, i, depth int) error {
	switch i {
	case 0:
		return d.string(&p.Job, true)
	case 1:
		return d.string(&p.Env, true)
	case 2:
		return d.int(&p.ScaleOut)
	case 3:
		return list(d, &p.Essential, depth+1, (*decoder).property)
	default:
		return list(d, &p.Optional, depth+1, (*decoder).property)
	}
}

var propertyFields = []string{"name", "value"}

func (d *decoder) property(p *Property, depth int) error {
	return d.object(depth, propertyFields, func(i int) error {
		if i == 0 {
			return d.string(&p.Name, true)
		}
		return d.string(&p.Value, false)
	})
}

var batchFields = []string{"requests"}

func (d *decoder) batch(b *BatchRequest, depth int) error {
	return d.object(depth, batchFields, func(int) error {
		return list(d, &b.Requests, depth+1, (*decoder).predict)
	})
}

// observeFields extends predictFields with the field ObserveRequest
// adds to its embedded PredictRequest.
var observeFields = append(predictFields[:len(predictFields):len(predictFields)], "runtime_sec")

func (d *decoder) observe(o *ObserveRequest, depth int) error {
	return d.object(depth, observeFields, func(i int) error {
		if i == len(predictFields) {
			return d.float(&o.RuntimeSec)
		}
		return d.predictField(&o.PredictRequest, i, depth)
	})
}

var allocateFields = []string{
	"job", "env", "essential", "optional",
	"min_scale_out", "max_scale_out", "step", "candidates",
	"deadline_sec", "cost_per_node_hour", "safety_margin",
	"min_model_samples", "observations",
}

func (d *decoder) allocate(a *AllocateRequest, depth int) error {
	return d.object(depth, allocateFields, func(i int) error {
		switch i {
		case 0:
			return d.string(&a.Job, true)
		case 1:
			return d.string(&a.Env, true)
		case 2:
			return list(d, &a.Essential, depth+1, (*decoder).property)
		case 3:
			return list(d, &a.Optional, depth+1, (*decoder).property)
		case 4:
			return d.int(&a.MinScaleOut)
		case 5:
			return d.int(&a.MaxScaleOut)
		case 6:
			return d.int(&a.Step)
		case 7:
			return list(d, &a.Candidates, depth+1, func(d *decoder, n *int, _ int) error { return d.int(n) })
		case 8:
			return d.float(&a.DeadlineSec)
		case 9:
			return d.float(&a.CostPerNodeHour)
		case 10:
			return d.float(&a.SafetyMargin)
		case 11:
			return d.int(&a.MinModelSamples)
		default:
			return list(d, &a.Observations, depth+1, (*decoder).observationPoint)
		}
	})
}

var pointFields = []string{"scale_out", "runtime_sec"}

func (d *decoder) observationPoint(p *ObservationPoint, depth int) error {
	return d.object(depth, pointFields, func(i int) error {
		if i == 0 {
			return d.int(&p.ScaleOut)
		}
		return d.float(&p.RuntimeSec)
	})
}
