package server

import (
	"encoding/json"
	"errors"
	"net/http"
	"reflect"
	"strings"
	"testing"
)

// FuzzRequestBody: every body either decodes or is refused with a 400 by
// each of the /generate, /query and /reweight decoders apspd and the
// router share, and never panics; a request one accepts, re-encoded by
// json.Marshal, decodes to itself.
func FuzzRequestBody(f *testing.F) {
	fp := strings.Repeat("ab", 32)
	for _, seed := range []string{
		``, `{}`, `[]`, `null`, `{"graph":"` + fp,
		`{"kind":"grid","n":16,"seed":1}`,
		`{"kind":"grid","n":16,"seed":1} x`,
		`{"kind":"\ud800","n":1e3}`,
		`{"graph":"` + fp + `","pairs":[[0,1],[2,3,4]],"paths":true}`,
		`{"graph":"zz","pairs":[[0,1]]}`,
		`{"graph":"` + fp + `","edits":[[0,1,2.5],[1,2,-0]]}`,
		`{"graph":"` + fp + `","edits":[[0.5,1,2]]}`,
		`{"graph":"` + fp + `","edits":[[1e300,1,5e-324]]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		roundTrip(t, body, DecodeGenerate)
		roundTrip(t, body, func(b []byte) (QueryRequest, error) {
			req, fp, err := DecodeQuery(b)
			if err == nil && fp.String() != req.Graph {
				t.Fatalf("%q: fingerprint %s, graph %q", b, fp, req.Graph)
			}
			return req, err
		})
		roundTrip(t, body, func(b []byte) (ReweightRequest, error) {
			req, _, edits, err := DecodeReweight(b)
			if err == nil && len(edits) != len(req.Edits) {
				t.Fatalf("%q: %d edits from %d triples", b, len(edits), len(req.Edits))
			}
			return req, err
		})
	})
}

// roundTrip holds one decoder to its contract on body.
func roundTrip[T any](t *testing.T, body []byte, decode func([]byte) (T, error)) {
	t.Helper()
	req, err := decode(body)
	if err != nil {
		var e *Error
		if !errors.As(err, &e) || e.Status != http.StatusBadRequest {
			t.Fatalf("%q refused with %v, want a 400", body, err)
		}
		return
	}
	again, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("%q: marshalling %+v: %v", body, req, err)
	}
	back, err := decode(again)
	if err != nil || !reflect.DeepEqual(back, req) {
		t.Fatalf("%q decoded to %+v, which re-encodes as %s and decodes to %+v (%v)", body, req, again, back, err)
	}
}

// FuzzLoadBody: the /load parser apspd and the router share never
// panics on any body, admits the declared vertex count before building
// a graph on it, and refuses only with a 400 or the admit's 413.
func FuzzLoadBody(f *testing.F) {
	const maxN = 4096
	admit := func(n int) error {
		if n > maxN {
			return Errorf(http.StatusRequestEntityTooLarge, "n=%d over %d", n, maxN)
		}
		return nil
	}
	for _, seed := range []string{
		``, `{}`, `[]`, `null`, ` `, `# only a comment`,
		"n 3\n0 1 2\n1 2 2",
		"n 3\n0 1\n# comment\n\n2 1 0.5",
		"n 3\n0 5 1", "n 2\n0 1 NaN", "n 2\n0 1 -Inf", "0 1 2",
		"n 3\nn 3", "n -1", "n x", "n 99999999999999999999",
		"n 4097", "n 1000000000000\n0 1 1",
		`{"n":3,"edges":[[0,1,2],[1,2,2]]}`,
		`{"n":3,"edges":[[0,1,2]]} x`,
		`{"n":3,"edges":[[0.5,1,2]]}`,
		`{"n":3,"edges":[[1e300,1,2]]}`,
		`{"n":-1,"edges":[]}`,
		`{"n":4097,"edges":[]}`,
		`{"n":10000000000,"edges":[[0,1,1]]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		g, err := parseGraphBody(body, admit)
		if err != nil {
			var e *Error
			if !errors.As(err, &e) || (e.Status != http.StatusBadRequest && e.Status != http.StatusRequestEntityTooLarge) {
				t.Fatalf("%q refused with %v, want a 400 or 413", body, err)
			}
			return
		}
		if g.N() > maxN {
			t.Fatalf("%q accepted a graph on %d vertices past the admit's %d", body, g.N(), maxN)
		}
	})
}
