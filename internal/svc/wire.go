package svc

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
)

// The POST /place wire codec. A PlaceRequest is a flat object of integers
// and an Outcome a fixed shape, so both directions are written by hand
// rather than through reflection: the same bytes on the wire without
// reflection's cost on every placement (DESIGN.md §13). /fail, /heal and
// /swap keep encoding/json.

// placeKeys are PlaceRequest's JSON keys, in the order decodePlace numbers
// them.
var placeKeys = [...]string{"id", "tier", "arrival", "lifetime", "cpu", "ram", "storage", "deadline_ms"}

// decodePlace decodes a POST /place body: one JSON object whose members
// are PlaceRequest's keys, each at most once and spelled byte for byte as
// its tag, with an integer value, and nothing but whitespace around it.
// Whatever it accepts, encoding/json decodes to the same request
// (FuzzPlaceRequest). It refuses what encoding/json lets through silently —
// an unknown, escaped or case-folded key, a duplicate, null, a fraction or
// exponent, bytes after the object — because a typo such as "deadline":5
// would otherwise place the VM with no deadline at all.
func decodePlace(b []byte) (req PlaceRequest, err error) {
	d := wireDecoder{b: b}
	if !d.consume('{') {
		return req, d.fail("want an object")
	}
	var v [len(placeKeys)]int64
	var seen [len(placeKeys)]bool
	for more := !d.consume('}'); more; {
		k, err := d.key()
		if err != nil {
			return req, err
		}
		if seen[k] {
			return req, d.fail("duplicate key %q", placeKeys[k])
		}
		seen[k] = true
		if !d.consume(':') {
			return req, d.fail("want : after a key")
		}
		if v[k], err = d.integer(); err != nil {
			return req, err
		}
		if !d.consume(',') {
			if !d.consume('}') {
				return req, d.fail("want , or } after a value")
			}
			more = false
		}
	}
	if d.space(); d.i != len(d.b) {
		return req, d.fail("data after the object")
	}
	req = PlaceRequest{ID: int(v[0]), Tier: int(v[1]), Arrival: v[2], Lifetime: v[3],
		CPU: v[4], RAM: v[5], Storage: v[6], DeadlineMS: v[7]}
	if int64(req.ID) != v[0] || int64(req.Tier) != v[1] {
		return PlaceRequest{}, d.fail("id or tier out of range")
	}
	return req, nil
}

// wireDecoder is decodePlace's cursor over the body.
type wireDecoder struct {
	b []byte
	i int
}

func (d *wireDecoder) fail(format string, args ...any) error {
	return fmt.Errorf("offset %d: %s", d.i, fmt.Sprintf(format, args...))
}

// space skips JSON whitespace.
func (d *wireDecoder) space() {
	for d.i < len(d.b) && (d.b[d.i] == ' ' || d.b[d.i] == '\t' || d.b[d.i] == '\n' || d.b[d.i] == '\r') {
		d.i++
	}
}

// consume skips whitespace and then c, if c is next.
func (d *wireDecoder) consume(c byte) bool {
	if d.space(); d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

// key reads one quoted key and returns its index in placeKeys.
func (d *wireDecoder) key() (int, error) {
	if !d.consume('"') {
		return -1, d.fail("want a key")
	}
	start := d.i
	for d.i < len(d.b) && d.b[d.i] != '"' && d.b[d.i] != '\\' {
		d.i++
	}
	if d.i == len(d.b) || d.b[d.i] != '"' {
		return -1, d.fail("unterminated or escaped key")
	}
	name := d.b[start:d.i]
	d.i++
	for k, want := range placeKeys {
		if string(name) == want {
			return k, nil
		}
	}
	return -1, d.fail("unknown key %q", name)
}

// integer reads one JSON number that is an integer in int64's range: a
// minus sign or none, then digits with no leading zero. A fraction or an
// exponent stops it at the '.' or 'e', where decodePlace wants , or }.
func (d *wireDecoder) integer() (int64, error) {
	d.space()
	limit := uint64(math.MaxInt64)
	if d.i < len(d.b) && d.b[d.i] == '-' {
		limit++
		d.i++
	}
	digits, u := d.i, uint64(0)
	for ; d.i < len(d.b) && '0' <= d.b[d.i] && d.b[d.i] <= '9'; d.i++ {
		digit := uint64(d.b[d.i] - '0')
		if u > (limit-digit)/10 {
			return 0, d.fail("integer out of range")
		}
		u = u*10 + digit
	}
	if d.i == digits || d.b[digits] == '0' && d.i-digits > 1 {
		return 0, d.fail("want an integer with no leading zero")
	}
	if limit > math.MaxInt64 {
		return -int64(u), nil // wraps to MinInt64 for 1<<63, as it must
	}
	return int64(u), nil
}

// appendOutcome appends o as encoding/json's Encoder writes it: the fields
// in declaration order under their Go names, and a newline
// (FuzzOutcomeWire holds the two byte for byte). A Reason, which only a
// rejection carries, is quoted by encoding/json itself.
func appendOutcome(b []byte, o *Outcome) []byte {
	b = strconv.AppendInt(append(b, `{"Seq":`...), o.Seq, 10)
	b = strconv.AppendInt(append(b, `,"VMID":`...), int64(o.VMID), 10)
	b = strconv.AppendInt(append(b, `,"Tier":`...), int64(o.Tier), 10)
	b = strconv.AppendInt(append(b, `,"T":`...), o.T, 10)
	b = strconv.AppendBool(append(b, `,"Accepted":`...), o.Accepted)
	reason := []byte(`""`)
	if o.Reason != "" {
		reason, _ = json.Marshal(o.Reason) // a string always marshals
	}
	b = append(append(b, `,"Reason":`...), reason...)
	b = strconv.AppendInt(append(b, `,"CPUBox":`...), int64(o.CPUBox), 10)
	b = strconv.AppendInt(append(b, `,"RAMBox":`...), int64(o.RAMBox), 10)
	b = strconv.AppendInt(append(b, `,"STOBox":`...), int64(o.STOBox), 10)
	b = strconv.AppendBool(append(b, `,"InterRack":`...), o.InterRack)
	return append(b, "}\n"...)
}
