package svc

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"
)

// TestDecodePlaceRefusesWhatJSONIgnores pins the bodies decodePlace
// refuses, each for the reason DESIGN.md §13 gives. All but the fraction
// and the exponent encoding/json's Decoder reads without an error, which
// is how /place read them before. And what decodePlace accepts — whitespace
// anywhere JSON allows it included — is what encoding/json reads.
func TestDecodePlaceRefusesWhatJSONIgnores(t *testing.T) {
	for _, tc := range []struct {
		why, body string
		jsonTakes bool
	}{
		{"a typo'd key: the deadline would be dropped", `{"id":1,"lifetime":10,"deadline":5}`, true},
		{"a case-folded key", `{"ID":1,"lifetime":10}`, true},
		{"an escaped key", `{"\u0069d":1,"lifetime":10}`, true},
		{"a duplicate key: which one wins is a guess", `{"id":1,"id":2,"lifetime":10}`, true},
		{"null for a field", `{"id":null,"lifetime":10}`, true},
		{"null for the body", `null`, true},
		{"a second object after the first", `{"id":1,"lifetime":10}{"id":2}`, true},
		{"trailing bytes", `{"id":1,"lifetime":10} x`, true},
		{"a fraction", `{"id":1,"lifetime":10.0}`, false},
		{"an exponent", `{"id":1,"lifetime":1e1}`, false},
	} {
		var viaJSON PlaceRequest
		if err := json.NewDecoder(strings.NewReader(tc.body)).Decode(&viaJSON); (err == nil) != tc.jsonTakes {
			t.Fatalf("%s: encoding/json's Decoder reads %s with error %v", tc.why, tc.body, err)
		}
		if req, err := decodePlace([]byte(tc.body)); err == nil {
			t.Errorf("%s: %s decoded to %+v", tc.why, tc.body, req)
		}
	}
	for _, body := range []string{
		`{"id":7,"tier":2,"arrival":30,"lifetime":500,"cpu":4,"ram":8,"storage":64,"deadline_ms":250}`,
		" \t\r\n{ \"id\" :\n-0 ,\"cpu\":\t9223372036854775807, \"ram\" : -9223372036854775808 } \n",
		`{}`,
	} {
		var want PlaceRequest
		if err := json.Unmarshal([]byte(body), &want); err != nil {
			t.Fatal(err)
		}
		if got, err := decodePlace([]byte(body)); err != nil || got != want {
			t.Errorf("%q: %+v, %v; encoding/json reads %+v", body, got, err, want)
		}
	}
}

// FuzzPlaceRequest holds the hand-written /place decoder to encoding/json
// over raw bodies. Whatever decodePlace accepts, json.Unmarshal accepts
// and decodes to the same request; whatever json.Unmarshal accepts,
// written back by json.Marshal, plain or indented, decodePlace reads as
// json.Unmarshal did. Through the handler every body is answered 200, 400
// or 413 (504 only for one that set a deadline the worker can miss), never
// 500 and never a hang; a negative deadline is never answered 200, and a
// refused body journals nothing.
func FuzzPlaceRequest(f *testing.F) {
	for _, body := range []string{
		`{"id":1,"tier":0,"arrival":10,"lifetime":500,"cpu":4,"ram":8,"storage":64}`,
		`{"id":2,"lifetime":100,"cpu":1,"ram":1,"storage":0,"deadline_ms":60000}`,
		` {"tier": 2 , "id":-0} `,
		`{"id":1,"deadline":5}`,
		`{"Id":1}`,
		`{"id":1,"id":2}`,
		`{"id":null}`,
		`null`,
		`{"cpu":1.5}`,
		`{"cpu":-1E3}`,
		`{"id":01}`,
		`{"id":9223372036854775808}`,
		`{"ram":-9223372036854775808}`,
		`{"id":1} {}`,
		`{"id":1}`,
		`{"id":"1"}`,
		`{"id":1,}`,
		`[1]`,
		``,
		`{"id":3,"lifetime":100,"cpu":1,"ram":1,"storage":0,"deadline_ms":-1}`,
	} {
		f.Add([]byte(body))
	}
	eng, h := fuzzServer(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		got, err := decodePlace(body)
		var want PlaceRequest
		jerr := json.Unmarshal(body, &want)
		if err == nil && (jerr != nil || got != want) {
			t.Fatalf("%q decodes to %+v; encoding/json reads %+v, %v", body, got, want, jerr)
		}
		if jerr == nil {
			plain, _ := json.Marshal(&want)
			indented, _ := json.MarshalIndent(&want, " ", "\t")
			for _, canon := range [][]byte{plain, indented} {
				if again, err := decodePlace(canon); err != nil || again != want {
					t.Fatalf("%q, which encoding/json wrote, decodes to %+v, %v; want %+v", canon, again, err, want)
				}
			}
		}

		before := eng.j.NextSeq() // the worker's last write to it happened before its last answer
		w := serveWithin(t, h, "/place", body)
		switch w.Code {
		case http.StatusOK:
			if err != nil {
				t.Fatalf("%q answered 200, but decodePlace refuses it: %v", body, err)
			}
			if got.DeadlineMS < 0 {
				t.Fatalf("%q answered 200 with a negative deadline", body)
			}
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
			if seq := eng.j.NextSeq(); seq != before {
				t.Fatalf("%q answered %d but journaled %d records", body, w.Code, seq-before)
			}
		case http.StatusGatewayTimeout:
			if err != nil || got.DeadlineMS <= 0 {
				t.Fatalf("%q answered 504 without a deadline", body)
			}
		default:
			t.Fatalf("%q answered %d: %s", body, w.Code, w.Body)
		}
	})
}

// fuzzServer is a started server over a fresh engine for a request
// fuzzer, with flushes stubbed out: the durability path is not what is
// fuzzed. The engine is returned for its journal's sequence.
func fuzzServer(f *testing.F) (*Engine, http.Handler) {
	real := fsync
	fsync = func(*os.File) error { return nil }
	f.Cleanup(func() { fsync = real })
	eng, err := Open(f.TempDir(), testConfig(), 0)
	if err != nil {
		f.Fatal(err)
	}
	s := NewServer(eng, 0)
	s.Start()
	f.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return eng, s.Handler()
}

// serveWithin posts body to path through h and returns the answer; no
// answer within 10 s fails the test.
func serveWithin(t *testing.T, h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	w := httptest.NewRecorder()
	answered := make(chan struct{})
	go func() {
		defer close(answered)
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	}()
	select {
	case <-answered:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s %q: no answer within 10 s", path, body)
	}
	return w
}

// FuzzMutateRequest posts raw bodies to the operator endpoints POST
// /fail, /heal and /swap (the first argument picks one). Every body is
// answered 200, 400 or 413, never 500 and never a hang; a refused body —
// an unknown key among them — journals nothing and an accepted one exactly
// one record.
func FuzzMutateRequest(f *testing.F) {
	for _, body := range []string{
		`{"scope":"box","rack":1,"box":2}`,
		`{"scope":"rack","rack":3}`,
		`{"scope":"rack","rack":4}`,
		`{"scope":"box","rack":0,"box":-1}`,
		`{"scope":"pod","rack":0}`,
		`{"algo":"NULB"}`,
		`{"algo":"RISA"}`,
		`{"algo":"risa"}`,
		`{"algo":"` + strings.Repeat("X", 100) + `"}`,
		`{"rack":1e3}`,
		`{"scope":1}`,
		`{"scope":"box","rack":1,"bxo":2}`,
		`{"scope":"rack","rak":2}`,
		`{"algo":"NULB","now":true}`,
		`{"algo":"NULB"} {"algo":"RISA"}`,
		`null`,
		`[]`,
		``,
		strings.Repeat(" ", maxBody+1),
	} {
		for op := range 3 {
			f.Add(uint8(op), []byte(body))
		}
	}
	eng, h := fuzzServer(f)
	paths := [...]string{"/fail", "/heal", "/swap"}
	f.Fuzz(func(t *testing.T, op uint8, body []byte) {
		path := paths[int(op)%len(paths)]
		before := eng.j.NextSeq() // the worker's last write to it happened before its last answer
		w := serveWithin(t, h, path, body)
		journaled := eng.j.NextSeq() - before
		switch w.Code {
		case http.StatusOK:
			if journaled != 1 {
				t.Fatalf("%s %q answered 200 but journaled %d records", path, body, journaled)
			}
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
			if journaled != 0 {
				t.Fatalf("%s %q answered %d but journaled %d records", path, body, w.Code, journaled)
			}
		default:
			t.Fatalf("%s %q answered %d: %s", path, body, w.Code, w.Body)
		}
	})
}

// FuzzOutcomeWire holds appendOutcome to encoding/json's Encoder byte for
// byte, behind whatever the buffer already held, for any Outcome — above
// all any Reason: quotes, control bytes, HTML's <, > and &, U+2028 and
// U+2029, invalid UTF-8.
func FuzzOutcomeWire(f *testing.F) {
	for _, reason := range []string{
		"",
		`no rack fits "RISA" \ here`,
		"\x00\x01\b\t\n\f\r\x1f\x7f",
		"<script>&amp;</script>",
		"line\u2028para\u2029end",
		"bad \xff\xfe utf-8, cut \xe2\x80 and é 😀",
	} {
		f.Add(int64(1), int64(7), int64(0), int64(40), false, reason, int64(-1), int64(-1), int64(-1), false)
	}
	f.Add(int64(math.MaxInt64), int64(math.MinInt64), int64(2), int64(math.MinInt64), true, "", int64(17), int64(20), int64(22), true)
	f.Fuzz(func(t *testing.T, seq, vmid, tier, at int64, accepted bool, reason string, cpu, ram, sto int64, inter bool) {
		o := Outcome{Seq: seq, VMID: int(vmid), Tier: int(tier), T: at, Accepted: accepted, Reason: reason,
			CPUBox: int(cpu), RAMBox: int(ram), STOBox: int(sto), InterRack: inter}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(o); err != nil {
			t.Fatal(err)
		}
		got := appendOutcome([]byte("prefix"), &o)
		if string(got[:6]) != "prefix" || !bytes.Equal(got[6:], want.Bytes()) {
			t.Fatalf("appendOutcome wrote\n%q\nencoding/json writes\n%q", got, want.Bytes())
		}
	})
}
