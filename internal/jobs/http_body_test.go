package jobs

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestHTTPBodyRules pins mwcd's request-body rules on every endpoint that
// decodes a JSON body: 413 beyond MaxBodyBytes, 400 for trailing data
// after the JSON object, each message led by the endpoint's prefix.
func TestHTTPBodyRules(t *testing.T) {
	const limit = 512
	s := New(Config{Workers: 1})
	ts := httptest.NewServer(NewHandler(s, HandlerConfig{MaxBodyBytes: limit}))
	t.Cleanup(func() {
		ts.Close()
		_ = s.Close(context.Background())
	})

	big := Spec{Algo: AlgoExact, Graph: GraphSpec{Class: "uw", N: 100}}
	for i := 0; i < 100; i++ {
		big.Graph.Edges = append(big.Graph.Edges, Edge{From: i, To: (i + 1) % 100, Weight: 3})
	}
	marshal := func(v any) string {
		raw, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(raw)
	}
	spec, bigSpec := marshal(exactRingSpec(16, 1)), marshal(big)
	send := func(method, path, body string) (int, string) {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var e struct {
			Error string `json:"error"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatalf("%s %s: decode error body: %v", method, path, err)
		}
		return resp.StatusCode, e.Error
	}
	for _, ep := range []struct {
		method, path, prefix string
		wrap                 func(string) string
	}{
		{"POST", "/v1/jobs", "invalid job spec", func(s string) string { return s }},
		{"POST", "/v1/jobs:batch", "invalid batch", func(s string) string { return `{"jobs":[` + s + `]}` }},
		{"PUT", "/v1/jobs/x-j-00000001", "invalid hand-off request", func(s string) string { return `{"spec":` + s + `}` }},
	} {
		code, msg := send(ep.method, ep.path, ep.wrap(bigSpec))
		if want := fmt.Sprintf("request body exceeds the %d-byte limit", limit); code != http.StatusRequestEntityTooLarge || msg != want {
			t.Errorf("%s %s, oversized body: %d %q, want 413 %q", ep.method, ep.path, code, msg, want)
		}
		code, msg = send(ep.method, ep.path, ep.wrap(spec)+"\n{}")
		if want := ep.prefix + ": trailing data after the JSON object"; code != http.StatusBadRequest || msg != want {
			t.Errorf("%s %s, trailing data: %d %q, want 400 %q", ep.method, ep.path, code, msg, want)
		}
	}
}
