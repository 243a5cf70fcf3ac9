package jobs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"muzha"
	"muzha/internal/scenario"
)

func postScenario(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/scenarios", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

func TestScenarioEndpointRunsAndCaches(t *testing.T) {
	ctx := testCtx(t)
	srv, cli := newTestServer(t, ServerConfig{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const body = `{"scenario": {
		"name": "endpoint-smoke",
		"seed": 5,
		"duration_ms": 2000,
		"topology": {"kind": "chain", "hops": 2},
		"flows": [{"src": 0, "dst": 2, "variant": "muzha"}],
		"stack": {}
	}}`
	resp, out := postScenario(t, ts.URL, body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submission: %d %s", resp.StatusCode, out)
	}
	var sj ScenarioJob
	if err := json.Unmarshal(out, &sj); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	if sj.SpecHash == "" || !strings.Contains(sj.Summary, "chain-2hop") {
		t.Fatalf("scenario identity missing: hash=%q summary=%q", sj.SpecHash, sj.Summary)
	}

	j, err := cli.Wait(ctx, sj.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if j.State != StateDone {
		t.Fatalf("scenario job ended %s [%s]: %s", j.State, j.Class, j.Error)
	}

	// The identical spec — with reordered keys — must land on the result
	// cache: same deterministic Config, same hash.
	reordered := `{"scenario": {
		"stack": {},
		"flows": [{"variant": "muzha", "dst": 2, "src": 0}],
		"topology": {"hops": 2, "kind": "chain"},
		"duration_ms": 2000,
		"seed": 5,
		"name": "endpoint-smoke"
	}}`
	resp2, out2 := postScenario(t, ts.URL, reordered)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("resubmission: %d %s", resp2.StatusCode, out2)
	}
	var sj2 ScenarioJob
	if err := json.Unmarshal(out2, &sj2); err != nil {
		t.Fatal(err)
	}
	if !sj2.Cached || sj2.State != StateDone {
		t.Fatalf("reordered duplicate = state %s cached %v, want done from cache", sj2.State, sj2.Cached)
	}
	if sj2.SpecHash != sj.SpecHash {
		t.Fatalf("key order changed the spec hash: %s vs %s", sj2.SpecHash, sj.SpecHash)
	}
	if st := srv.Snapshot(); st.CacheHits != 1 {
		t.Fatalf("stats = %+v, want 1 cache hit", st)
	}
}

func TestScenarioEndpointRejectsBadSpecs(t *testing.T) {
	srv, _ := newTestServer(t, ServerConfig{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cases := map[string]string{
		"missing scenario field": `{}`,
		"unknown spec field":     `{"scenario": {"seed": 1, "topolgy": {"kind": "chain", "hops": 2}}}`,
		"invalid config":         `{"scenario": {"seed": 1, "topology": {"kind": "chain", "hops": 2}, "flows": []}}`,
	}
	for name, body := range cases {
		resp, out := postScenario(t, ts.URL, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d %s, want 400", name, resp.StatusCode, out)
		}
	}
	// The typo must be named in the error payload.
	resp, out := postScenario(t, ts.URL, `{"scenario": {"seed": 1, "topolgy": {"kind": "chain"}}}`)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(out), "topolgy") {
		t.Fatalf("unknown-field error does not name the field: %d %s", resp.StatusCode, out)
	}
}

// TestScenarioDRAIClampRunsClamped: a spec's drai_clamp knob must
// survive the daemon's canonical config, so the job's bytes equal a
// local run of spec.Config() and differ from the unclamped spec's.
func TestScenarioDRAIClampRunsClamped(t *testing.T) {
	ctx := testCtx(t)
	srv, cli := newTestServer(t, ServerConfig{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const spec = `{"name": "clamp", "seed": 3, "duration_ms": 3000,
		"topology": {"kind": "chain", "hops": 4},
		"flows": [{"src": 0, "dst": 4, "variant": "newreno"}],
		"stack": {%s}}`
	var results [2]json.RawMessage
	for i, stack := range []string{``, `"drai_clamp": true`} {
		raw := fmt.Sprintf(spec, stack)
		resp, out := postScenario(t, ts.URL, `{"scenario": `+raw+`}`)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("stack {%s}: %d %s", stack, resp.StatusCode, out)
		}
		var sj ScenarioJob
		if err := json.Unmarshal(out, &sj); err != nil {
			t.Fatal(err)
		}
		j, err := cli.Wait(ctx, sj.ID, 10*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if j.State != StateDone {
			t.Fatalf("stack {%s}: job ended %s [%s]: %s", stack, j.State, j.Class, j.Error)
		}
		if results[i], err = cli.Result(ctx, j.ID); err != nil {
			t.Fatal(err)
		}

		s, err := scenario.Parse([]byte(raw))
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := s.Config()
		if err != nil {
			t.Fatal(err)
		}
		res, err := muzha.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := EncodeResult(res)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(results[i], want) {
			t.Fatalf("stack {%s}: daemon result differs from a local run of spec.Config()", stack)
		}
	}
	if bytes.Equal(results[0], results[1]) {
		t.Fatal("drai_clamp spec returned the unclamped spec's bytes")
	}
}
