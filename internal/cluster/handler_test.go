package cluster_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"congestmwc/internal/cluster"
	"congestmwc/internal/jobs"
)

// TestRouterBodyRules pins the router's request-body rules, the same as
// mwcd's: on every endpoint that decodes a JSON body, a body over
// MaxBodyBytes answers 413 and trailing data after the JSON object 400,
// both before any placement or forwarding.
func TestRouterBodyRules(t *testing.T) {
	const limit = 512
	r, err := cluster.New(cluster.Config{
		// Never contacted: every request here fails before placement.
		Workers:      []cluster.WorkerConfig{{Name: "s0", URL: "http://127.0.0.1:1"}},
		MaxBodyBytes: limit,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(r.Handler())
	t.Cleanup(func() {
		srv.Close()
		r.Close()
	})

	big := jobs.Spec{Algo: jobs.AlgoExact, Graph: jobs.GraphSpec{Class: "uw", N: 100}}
	for i := 0; i < 100; i++ {
		big.Graph.Edges = append(big.Graph.Edges, jobs.Edge{From: i, To: (i + 1) % 100, Weight: 3})
	}
	marshal := func(v any) string {
		raw, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(raw)
	}
	spec, bigSpec := marshal(ringSpec(16, 1)), marshal(big)
	batch := func(s string) string { return `{"jobs":[` + s + `]}` }
	same := func(s string) string { return s }

	post := func(path, body string) (int, string) {
		t.Helper()
		resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var e struct {
			Error string `json:"error"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatalf("POST %s: decode error body: %v", path, err)
		}
		return resp.StatusCode, e.Error
	}
	for _, ep := range []struct {
		path, prefix string
		wrap         func(string) string
	}{
		{"/v1/jobs", "invalid job spec", same},
		{"/v1/jobs:batch", "invalid batch", batch},
		{"/v1/graphs", "invalid session spec", same},
	} {
		code, msg := post(ep.path, ep.wrap(bigSpec))
		if want := fmt.Sprintf("request body exceeds the %d-byte limit", limit); code != http.StatusRequestEntityTooLarge || msg != want {
			t.Errorf("POST %s, oversized body: %d %q, want 413 %q", ep.path, code, msg, want)
		}
		code, msg = post(ep.path, ep.wrap(spec)+` {}`)
		if want := ep.prefix + ": trailing data after the JSON object"; code != http.StatusBadRequest || msg != want {
			t.Errorf("POST %s, trailing data: %d %q, want 400 %q", ep.path, code, msg, want)
		}
		code, msg = post(ep.path, strings.Replace(ep.wrap(spec), `"algo"`, `"algorithm"`, 1))
		if code != http.StatusBadRequest || !strings.HasPrefix(msg, ep.prefix+": ") {
			t.Errorf("POST %s, unknown field: %d %q, want 400 led by %q", ep.path, code, msg, ep.prefix)
		}
	}
}
