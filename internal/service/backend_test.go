package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"deltacoloring"
	"deltacoloring/internal/graphio"
)

func hardReq() *ColorRequest {
	return &ColorRequest{Gen: &GenSpec{Family: "hard", M: 16, Delta: 16}}
}

// TestBackendSelection runs one graph through every explicitly named
// backend plus "auto": each response must carry a verified Δ-coloring and
// report the resolved backend name.
func TestBackendSelection(t *testing.T) {
	_, cl, _ := newTestServer(t, Config{Workers: 2})
	g := deltacoloring.GenHardCliqueBipartite(16, 16)
	var detColors []int
	for _, name := range []string{"det", "ruling", "simple", "rand", "auto"} {
		req := hardReq()
		req.Backend = name
		req.Seed = 5
		resp, err := cl.Color(context.Background(), req)
		if err != nil {
			t.Fatalf("backend %s: %v", name, err)
		}
		mustVerify(t, g, resp)
		if resp.Cached {
			t.Fatalf("backend %s: distinct backends must not share cache entries", name)
		}
		want := name
		if name == "auto" {
			// auto reports the selector's concrete pick.
			if resp.Backend == "" || resp.Backend == "auto" {
				t.Fatalf("auto run reported backend %q", resp.Backend)
			}
			want = resp.Backend
		}
		if resp.Backend != want {
			t.Fatalf("response backend %q, want %q", resp.Backend, want)
		}
		if name == "det" {
			detColors = resp.Colors
		}
		if name == "rand" && resp.Shatter == nil {
			t.Fatal("backend=rand run missing shattering stats")
		}
	}
	// The registry det backend is bit-identical to the legacy Algo path.
	legacy, err := cl.Color(context.Background(), hardReq())
	if err != nil {
		t.Fatal(err)
	}
	if !slicesEqual(legacy.Colors, detColors) {
		t.Fatal("backend=det diverged from the legacy det path")
	}
	if legacy.Backend != "det" {
		t.Fatalf("legacy run reported backend %q", legacy.Backend)
	}
}

// TestLegacyAlgoPinned pins requests that name no backend, which run the
// registry entry their algo names: the cache key keeps its historical bytes
// (no backend segment), the response reports algo as the backend, and the
// coloring, rounds and check report equal the library entry points'.
func TestLegacyAlgoPinned(t *testing.T) {
	g := deltacoloring.GenHardCliqueBipartite(16, 16)
	hash := fmt.Sprintf("%016x", graphio.CanonicalHash(g))
	for _, tc := range []struct{ body, key string }{
		{`{"gen":{"family":"hard","m":16,"delta":16}}`, hash + "|det|paper=false"},
		{`{"gen":{"family":"hard","m":16,"delta":16},"algo":"det","paper":true}`, hash + "|det|paper=true"},
		{`{"gen":{"family":"hard","m":16,"delta":16},"algo":"rand","seed":7}`, hash + "|rand|paper=false|seed=7"},
		{`{"gen":{"family":"hard","m":16,"delta":16},"algo":"rand","seed":7,"paper":true}`, hash + "|rand|paper=true|seed=7"},
		{`{"gen":{"family":"hard","m":16,"delta":16},"algo":"rand","seed":7,"check":true}`, hash + "|rand|paper=false|seed=7|check=true"},
	} {
		req, err := parseRequest(strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		if got := cacheKey(g, req); got != tc.key {
			t.Fatalf("%s: cache key %q, want %q", tc.body, got, tc.key)
		}
	}

	_, cl, _ := newTestServer(t, Config{Workers: 2})
	ctx := context.Background()
	det, detRep, err := deltacoloring.RunCheckedContext(ctx, g, deltacoloring.ScaledParams(), nil)
	if err != nil {
		t.Fatal(err)
	}
	rnd, rndRep, err := deltacoloring.RunCheckedRandomizedContext(ctx, g, deltacoloring.ScaledRandomizedParams(), 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		algo string
		want *deltacoloring.Result
		rep  *deltacoloring.CheckReport
	}{
		{"det", det, detRep},
		{"rand", &rnd.Result, rndRep},
	} {
		for _, check := range []bool{false, true} {
			req := hardReq()
			req.Algo, req.Seed, req.Check = tc.algo, 7, check
			resp, err := cl.Color(ctx, req)
			if err != nil {
				t.Fatalf("algo=%s check=%t: %v", tc.algo, check, err)
			}
			mustVerify(t, g, resp)
			if resp.Backend != tc.algo {
				t.Fatalf("algo=%s: response backend %q", tc.algo, resp.Backend)
			}
			if !slicesEqual(resp.Colors, tc.want.Colors) || resp.Rounds != tc.want.Rounds {
				t.Fatalf("algo=%s check=%t diverged from the library entry point", tc.algo, check)
			}
			if check && (resp.Checks != tc.rep.Checks || !reflect.DeepEqual(resp.CheckPhases, tc.rep.Phases)) {
				t.Fatalf("algo=%s: check report %d %v, library %d %v",
					tc.algo, resp.Checks, resp.CheckPhases, tc.rep.Checks, tc.rep.Phases)
			}
		}
	}
}

// TestBackendQueryParamAndCheck exercises the ?backend= spelling combined
// with ?check=1: the conformance harness validates the ruling route's
// checkpoints end to end through the HTTP surface.
func TestBackendQueryParamAndCheck(t *testing.T) {
	_, cl, _ := newTestServer(t, Config{Workers: 2})
	body, _ := json.Marshal(hardReq())
	hr, err := http.Post(cl.BaseURL+"/v1/color?backend=ruling&check=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	var resp ColorResponse
	if err := json.NewDecoder(hr.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if hr.StatusCode != http.StatusOK || resp.State != "done" {
		t.Fatalf("status %d, response %+v", hr.StatusCode, resp)
	}
	if resp.Backend != "ruling" || resp.Checks <= 0 {
		t.Fatalf("backend %q checks %d", resp.Backend, resp.Checks)
	}
	want := map[string]bool{"ruling/rulingset": false, "final": false, "oracle": false}
	for _, p := range resp.CheckPhases {
		if _, ok := want[p]; ok {
			want[p] = true
		}
	}
	for p, seen := range want {
		if !seen {
			t.Fatalf("check_phases %v missing %q", resp.CheckPhases, p)
		}
	}
}

// TestBackendUnknown400 pins the fail-fast contract: unknown backend names
// answer 400 with the registered names in the message, via both spellings.
func TestBackendUnknown400(t *testing.T) {
	_, cl, _ := newTestServer(t, Config{Workers: 1})
	assert400 := func(url, body string) {
		t.Helper()
		hr, err := http.Post(url, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer hr.Body.Close()
		var resp ColorResponse
		if err := json.NewDecoder(hr.Body).Decode(&resp); err != nil {
			t.Fatal(err)
		}
		if hr.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %d, error %q", hr.StatusCode, resp.Error)
		}
		for _, frag := range []string{`unknown backend "nonesuch"`, "det", "ruling"} {
			if !strings.Contains(resp.Error, frag) {
				t.Fatalf("error %q does not mention %q", resp.Error, frag)
			}
		}
	}
	assert400(cl.BaseURL+"/v1/color",
		`{"backend": "nonesuch", "gen": {"family": "easy", "m": 4, "delta": 16}}`)
	assert400(cl.BaseURL+"/v1/color?backend=nonesuch",
		`{"gen": {"family": "easy", "m": 4, "delta": 16}}`)
}

// TestBackendMetricsLabel: completed runs surface per-backend counters on
// /metrics under the resolved name.
func TestBackendMetricsLabel(t *testing.T) {
	_, cl, _ := newTestServer(t, Config{Workers: 2})
	req := hardReq()
	req.Backend = "ruling"
	if _, err := cl.Color(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Color(context.Background(), easyReq(4)); err != nil {
		t.Fatal(err)
	}
	hr, err := http.Get(cl.BaseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	raw, _ := io.ReadAll(hr.Body)
	for _, line := range []string{
		`deltaserved_backend_jobs_total{backend="ruling"} 1`,
		`deltaserved_backend_jobs_total{backend="det"} 1`,
	} {
		if !strings.Contains(string(raw), line) {
			t.Fatalf("metrics missing %q:\n%s", line, raw)
		}
	}
}

// TestGraphCreateWithBackend: a dynamic store created with a backend serves
// a true Δ-coloring, and unknown names are rejected with 400 before the
// store exists.
func TestGraphCreateWithBackend(t *testing.T) {
	_, ts := newGraphServer(t, Config{})
	var bad GraphResponse
	if code := doJSON(t, ts, "POST", "/v1/graphs",
		&CreateGraphRequest{Gen: &GenSpec{Family: "hard", M: 16, Delta: 16}, Backend: "nonesuch"},
		&bad); code != http.StatusBadRequest {
		t.Fatalf("unknown backend answered %d", code)
	}
	if !strings.Contains(bad.Error, `unknown backend "nonesuch"`) {
		t.Fatalf("error %q", bad.Error)
	}
	var created GraphResponse
	if code := doJSON(t, ts, "POST", "/v1/graphs",
		&CreateGraphRequest{Gen: &GenSpec{Family: "hard", M: 16, Delta: 16}, Backend: "ruling"},
		&created); code != http.StatusCreated {
		t.Fatalf("create answered %d: %+v", code, created)
	}
	if created.Info.Backend != "ruling" || created.Info.NumColors != 16 {
		t.Fatalf("store info %+v, want backend=ruling num_colors=16 (Δ)", created.Info)
	}
	var col ColoringResponse
	if code := doJSON(t, ts, "GET", "/v1/graphs/"+created.ID+"/coloring?check=1", nil, &col); code != http.StatusOK {
		t.Fatalf("coloring answered %d: %+v", code, col)
	}
	if !col.Checked || col.NumColors != 16 {
		t.Fatalf("coloring response %+v", col)
	}
}
