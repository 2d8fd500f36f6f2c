// Advise search: the cloud machine, the branch-and-bound answer against
// the exhaustive oracle, and the bounded fallback.

package mapd

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"repro/internal/advisor"
)

// A depth-10 cloud advise must be served by the branch-and-bound engine:
// exact (no gap), with the search's own class/order accounting, and the
// bnb mode visible on /metrics.
func TestAdviseDeepCloudBnB(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, body := post(t, ts, "/v1/advise",
		`{"machine":"cloud","depth":10,"collective":"alltoall","comm_size":64,"bytes":4194304}`)
	if code != http.StatusOK {
		t.Fatalf("deep advise: status %d: %s", code, body)
	}
	var resp AdviseResponse
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if resp.SearchMode != advisor.ModeBnB {
		t.Fatalf("search_mode %q, want %q", resp.SearchMode, advisor.ModeBnB)
	}
	if resp.OptimalityGap != 0 {
		t.Fatalf("bnb reported optimality gap %v", resp.OptimalityGap)
	}
	if resp.Evaluated != 3628800 { // 10!: every order accounted exactly
		t.Fatalf("evaluated %d orders, want 10! = 3628800", resp.Evaluated)
	}
	if resp.OrdersEvaluated <= 0 || resp.OrdersEvaluated >= 3628800 {
		t.Fatalf("orders_evaluated %d, want a strict subset of 10!", resp.OrdersEvaluated)
	}
	if len(resp.Hierarchy) != 10 {
		t.Fatalf("hierarchy depth %d, want 10", len(resp.Hierarchy))
	}
	if len(resp.Best) == 0 || resp.Best[0].Seconds <= 0 {
		t.Fatalf("deep advise returned no usable recommendation: %+v", resp.Best)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	mb, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(string(mb), `mode="bnb"`) {
		t.Fatalf("/metrics does not label the bnb search mode")
	}
}

// Cloud request validation: depth bounds, depth on non-cloud machines,
// and node/NIC counts the template does not parameterize.
func TestAdviseCloudValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name, req string
	}{
		{"depth too deep", `{"machine":"cloud","depth":13,"comm_size":4}`},
		{"depth too shallow", `{"machine":"cloud","depth":5,"comm_size":4}`},
		{"depth on hydra", `{"machine":"hydra","depth":8,"comm_size":4}`},
		{"nodes on cloud", `{"machine":"cloud","nodes":8,"comm_size":4}`},
		{"nics on cloud", `{"machine":"cloud","nics":2,"comm_size":4}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, body := post(t, ts, "/v1/advise", tc.req)
			if code != http.StatusBadRequest {
				t.Fatalf("status %d (want 400): %s", code, body)
			}
		})
	}
}

// The degraded σ-order fallback must stay bounded at depth: a handful of
// heuristic orders, never a k! sweep.
func TestAdviseDeepFallbackBounded(t *testing.T) {
	resp, err := EvalAdviseFallback(AdviseRequest{
		Machine: "cloud", Depth: 10, Collective: "alltoall", CommSize: 64,
	})
	if err != nil {
		t.Fatalf("fallback: %v", err)
	}
	if !resp.Degraded {
		t.Fatalf("fallback answer not flagged degraded")
	}
	if resp.SearchMode != advisor.ModeFallback {
		t.Fatalf("search_mode %q, want %q", resp.SearchMode, advisor.ModeFallback)
	}
	if resp.Evaluated <= 0 || resp.Evaluated > 64 {
		t.Fatalf("fallback evaluated %d orders, want a small heuristic set", resp.Evaluated)
	}
}

// Every advise is served by the branch-and-bound search; up to
// DefaultSearchDepthThreshold its answer must be the head of the
// exhaustive ranking (advisor.Rank, the oracle) on the served machines:
// same orders, seconds and explanations, and every order accounted.
func TestAdviseOracleDifferential(t *testing.T) {
	machines := []AdviseRequest{
		{Machine: "hydra", Nodes: 4},
		{Machine: "hydra", Nodes: 16},
		{Machine: "lumi", Nodes: 2},
		{Machine: "cloud", Depth: 6},
	}
	for _, m := range machines {
		for _, coll := range []string{"alltoall", "allgather", "allreduce"} {
			for _, sim := range []bool{false, true} {
				req := m
				req.Collective, req.CommSize, req.Simultaneous, req.Top = coll, 16, sim, MaxTop
				where := fmt.Sprintf("%s/%d/%d %s sim=%v", req.Machine, req.Nodes, req.Depth, coll, sim)
				q, err := req.parse()
				if err != nil {
					t.Fatalf("%s: parse: %v", where, err)
				}
				sc := q.scenario()
				if sc.Hierarchy.Depth() > DefaultSearchDepthThreshold {
					t.Fatalf("%s: depth %d past the oracle bound", where, sc.Hierarchy.Depth())
				}
				ranked, err := advisor.Rank(context.Background(), sc, nil, advisor.RankOptions{})
				if err != nil {
					t.Fatalf("%s: rank: %v", where, err)
				}
				resp, err := EvalAdviseOpts(context.Background(), req, AdviseOptions{})
				if err != nil {
					t.Fatalf("%s: advise: %v", where, err)
				}
				if resp.SearchMode != advisor.ModeBnB || resp.OptimalityGap != 0 {
					t.Fatalf("%s: search_mode %q gap %v, want provably optimal %q",
						where, resp.SearchMode, resp.OptimalityGap, advisor.ModeBnB)
				}
				if resp.Evaluated != len(ranked) {
					t.Fatalf("%s: evaluated %d, want k! = %d", where, resp.Evaluated, len(ranked))
				}
				want := min(MaxTop, len(ranked))
				if len(resp.Best) != want {
					t.Fatalf("%s: %d best orders, want %d", where, len(resp.Best), want)
				}
				for i := range resp.Best {
					if w := advisePrediction(sc, ranked[i]); !reflect.DeepEqual(resp.Best[i], w) {
						t.Fatalf("%s: rank %d diverges: served %+v, oracle %+v", where, i+1, resp.Best[i], w)
					}
				}
				worst := ranked[len(ranked)-1]
				if resp.Worst.Seconds > worst.Time || resp.Worst.Seconds < ranked[0].Time {
					t.Fatalf("%s: worst %v s outside [best %v, worst %v]",
						where, resp.Worst.Seconds, ranked[0].Time, worst.Time)
				}
			}
		}
	}
}

// Cloud depths must cache as distinct keys: the same request at two
// depths cannot alias to one entry.
func TestAdviseCloudCacheKeyDepth(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheEntries: 64})
	for _, d := range []string{"6", "7"} {
		code, body := post(t, ts, "/v1/advise",
			`{"machine":"cloud","depth":`+d+`,"collective":"alltoall","comm_size":4}`)
		if code != http.StatusOK {
			t.Fatalf("depth %s: status %d: %s", d, code, body)
		}
		var resp AdviseResponse
		if err := json.Unmarshal([]byte(body), &resp); err != nil {
			t.Fatalf("unmarshal: %v", err)
		}
		want := int(d[0] - '0')
		if len(resp.Hierarchy) != want {
			t.Fatalf("depth %s answered with %d-level hierarchy (cache aliasing?)", d, len(resp.Hierarchy))
		}
	}
}
