// Live deep-search progress: the progress table's lifecycle and the
// GET /v1/advise/progress endpoint over a real bounded search.

package mapd

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/advisor"
)

// TestProgressTableLifecycle pins the table mechanics: a started search
// shows in-flight, updates fold into its entry, finish retires it into
// the recent ring newest-first, and the ring stays bounded.
func TestProgressTableLifecycle(t *testing.T) {
	tab := newProgressTable(2)
	h := tab.start("k1")
	rep := tab.report()
	if len(rep.InFlight) != 1 || rep.InFlight[0].Key != "k1" || rep.InFlight[0].Done {
		t.Fatalf("in-flight after start = %+v", rep.InFlight)
	}
	h.update(advisor.SearchProgress{
		Kind: advisor.ProgressCoverage, Mode: advisor.ModeBnB,
		Elapsed: 250 * time.Millisecond, Nodes: 100, Covered: 90, Pruned: 10,
	})
	h.update(advisor.SearchProgress{
		Kind: advisor.ProgressIncumbent, Mode: advisor.ModeBnB,
		Elapsed: 300 * time.Millisecond, Nodes: 120, Evaluated: 4,
		IncumbentTime: 0.5, BoundGap: 0.25,
	})
	rep = tab.report()
	e := rep.InFlight[0]
	if e.Nodes != 120 || e.Improvements != 1 || e.IncumbentSeconds != 0.5 || e.BoundGap != 0.25 {
		t.Fatalf("folded entry = %+v", e)
	}
	if e.ElapsedMs != 300 || e.Mode != advisor.ModeBnB {
		t.Fatalf("entry elapsed/mode = %+v", e)
	}
	h.finish()
	rep = tab.report()
	if len(rep.InFlight) != 0 || len(rep.Recent) != 1 || !rep.Recent[0].Done {
		t.Fatalf("after finish: %+v", rep)
	}
	// Two more searches: the keep=2 ring drops the oldest.
	for _, k := range []string{"k2", "k3"} {
		h := tab.start(k)
		h.finish()
	}
	rep = tab.report()
	if len(rep.Recent) != 2 || rep.Recent[0].Key != "k3" || rep.Recent[1].Key != "k2" {
		t.Fatalf("recent ring = %+v", rep.Recent)
	}
}

// TestAdviseProgressEndpoint drives a deep and a shallow advise through
// the HTTP server and checks that /v1/advise/progress reports both
// afterwards with the search's tallies.
func TestAdviseProgressEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, body := post(t, ts, "/v1/advise",
		`{"machine":"cloud","depth":10,"collective":"alltoall","comm_size":64,"bytes":4194304}`)
	if code != http.StatusOK {
		t.Fatalf("deep advise: status %d: %s", code, body)
	}
	resp, err := http.Get(ts.URL + "/v1/advise/progress")
	if err != nil {
		t.Fatalf("GET /v1/advise/progress: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("progress status %d", resp.StatusCode)
	}
	var rep SearchProgressReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(rep.InFlight) != 0 {
		t.Fatalf("search still in flight after response: %+v", rep.InFlight)
	}
	if len(rep.Recent) == 0 {
		t.Fatal("no recent search in the progress report")
	}
	e := rep.Recent[0]
	if !e.Done || e.Mode != advisor.ModeBnB {
		t.Fatalf("recent entry = %+v", e)
	}
	if e.Nodes <= 0 || e.Improvements < 1 || e.IncumbentSeconds <= 0 {
		t.Fatalf("recent entry missing search tallies: %+v", e)
	}

	// A shallow advise runs the same search and registers too.
	code, body = post(t, ts, "/v1/advise",
		`{"machine":"hydra","nodes":4,"collective":"allreduce","comm_size":16}`)
	if code != http.StatusOK {
		t.Fatalf("shallow advise: status %d: %s", code, body)
	}
	resp2, err := http.Get(ts.URL + "/v1/advise/progress")
	if err != nil {
		t.Fatalf("GET /v1/advise/progress: %v", err)
	}
	defer resp2.Body.Close()
	var rep2 SearchProgressReport
	if err := json.NewDecoder(resp2.Body).Decode(&rep2); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(rep2.Recent) != len(rep.Recent)+1 {
		t.Fatalf("shallow advise did not register in the progress table: %+v", rep2.Recent)
	}
	if e := rep2.Recent[0]; !e.Done || e.Mode != advisor.ModeBnB || !strings.HasPrefix(e.Key, "advise|hydra|4|") {
		t.Fatalf("newest recent entry = %+v, want the finished hydra search", e)
	}
}
