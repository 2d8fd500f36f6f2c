// The fleet chaos e2e: three real mapd replicas behind the router,
// closed-loop client traffic, and a seeded fault plan that kills one
// replica mid-run. The fleet must absorb the kill — zero client-visible
// unretried failures, and once the router has ejected the victim at
// least 90% of the shots answered for real (non-degraded) by a surviving
// replica — and with every replica killed the router must still answer,
// flagged degraded.

package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/mapd"
	"repro/internal/obs"
)

// chaosReplica is an mrserved stand-in that can be killed and restarted
// on the same address mid-test.
type chaosReplica struct {
	name string
	addr string
	mu   sync.Mutex
	srv  *http.Server
}

func (r *chaosReplica) start(t *testing.T) {
	t.Helper()
	ln, err := net.Listen("tcp", r.addr)
	if err != nil {
		t.Fatalf("replica %s: listen %s: %v", r.name, r.addr, err)
	}
	r.addr = ln.Addr().String()
	ms := mapd.New(mapd.Config{Name: r.name, Registry: obs.NewRegistry()})
	srv := &http.Server{Handler: ms.Handler()}
	r.mu.Lock()
	r.srv = srv
	r.mu.Unlock()
	go func() { _ = srv.Serve(ln) }()
}

func (r *chaosReplica) kill() {
	r.mu.Lock()
	srv := r.srv
	r.srv = nil
	r.mu.Unlock()
	if srv != nil {
		_ = srv.Close()
	}
}

// shotRecord is one client-observed request outcome.
type shotRecord struct {
	recovered bool // sent after the router ejected the killed replica
	code      int
	degraded  bool
	replica   string // x-mr-replica: the replica that answered
}

func TestChaosKillGoodputRecovers(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos e2e runs ~1.2s of wall-clock traffic")
	}

	// The seeded kill plan: one replica, chosen and timed by the plan's
	// RNG, dies somewhere in [350ms, 450ms]. Same seed, same schedule —
	// a failing run reproduces exactly.
	plan, err := fault.Parse("seed=42;replica-chaos:kills=1,by=450ms@t=350ms")
	if err != nil {
		t.Fatal(err)
	}
	events := plan.FleetEvents(3)
	if len(events) != 1 || events[0].Kind != fault.KindReplicaKill {
		t.Fatalf("plan materialized %v, want exactly one kill", events)
	}
	kill := events[0]
	killAt := time.Duration(kill.At * float64(time.Second))

	replicas := make([]*chaosReplica, 3)
	var urls, names []string
	for i := range replicas {
		replicas[i] = &chaosReplica{name: fmt.Sprintf("r%d", i), addr: "127.0.0.1:0"}
		replicas[i].start(t)
		t.Cleanup(replicas[i].kill)
		urls = append(urls, "http://"+replicas[i].addr)
		names = append(names, replicas[i].name)
	}

	g, err := New(Config{
		Replicas:   urls,
		Names:      names,
		Backoff:    500 * time.Microsecond,
		MaxBackoff: 5 * time.Millisecond,
		Health:     HealthConfig{Interval: 50 * time.Millisecond, Timeout: 200 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	g.Start(context.Background())
	t.Cleanup(g.Stop)
	gateLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	gateSrv := &http.Server{Handler: g.Handler()}
	go func() { _ = gateSrv.Serve(gateLn) }()
	t.Cleanup(func() { _ = gateSrv.Close() })
	gateURL := "http://" + gateLn.Addr().String()

	// Closed-loop traffic: a small query mix so several distinct keys put
	// every replica in play.
	bodies := []string{
		`{"hierarchy":"2,2,4","order":"2-1-0","rank":5}`,
		`{"hierarchy":"2,4,2,8","order":"2-1-0-3","n":8}`,
		`{"hierarchy":"16,2,2,8","order":"3-2-1-0","comm_size":16}`,
		`{"hierarchy":"2,2,2","order":"0-1-2","table":true}`,
	}
	paths := []string{"/v1/map", "/v1/select", "/v1/metrics/order", "/v1/map"}

	// The run lasts at least duration and until minRecovered shots were
	// sent after recovery, so the goodput share below is taken over a
	// fixed number of shots however fast the machine serves them.
	const (
		duration     = 1200 * time.Millisecond
		minRecovered = 200
		workers      = 4
	)
	var (
		mu        sync.Mutex
		shots     []shotRecord
		recovered int
	)
	start := time.Now()

	// The executioner: fire the plan's kill at its scheduled time, then
	// mark recovery once the router's health checker has ejected the
	// victim.
	var ejectedVictim atomic.Bool
	ejected := make(chan struct{})
	go func() {
		defer close(ejected)
		time.Sleep(killAt - time.Since(start))
		replicas[kill.Target].kill()
		for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
			if g.States()[kill.Target] == StateDead {
				ejectedVictim.Store(true)
				return
			}
		}
	}()

	var wg sync.WaitGroup
	client := &http.Client{}
	done := func() bool {
		if time.Since(start) < duration {
			return false
		}
		select {
		case <-ejected:
		default:
			return false // still waiting for the ejection
		}
		mu.Lock()
		defer mu.Unlock()
		return !ejectedVictim.Load() || recovered >= minRecovered
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; !done(); i++ {
				q := (w + i) % len(bodies)
				rec := shotRecord{recovered: ejectedVictim.Load()}
				resp, err := client.Post(gateURL+paths[q], "application/json", strings.NewReader(bodies[q]))
				if err != nil {
					rec.code = -1
				} else {
					b, _ := io.ReadAll(resp.Body)
					_ = resp.Body.Close()
					rec.code = resp.StatusCode
					rec.degraded = strings.Contains(string(b), `"degraded":true`)
					rec.replica = resp.Header.Get("x-mr-replica")
				}
				mu.Lock()
				shots = append(shots, rec)
				if rec.recovered {
					recovered++
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	if !ejectedVictim.Load() {
		t.Fatalf("router never ejected killed replica %s (states %v)", names[kill.Target], g.States())
	}

	// Invariant 1: the kill was client-invisible. Every shot either
	// succeeded or was retried into success — zero unretried failures.
	failures := 0
	for _, s := range shots {
		if s.code != http.StatusOK {
			failures++
		}
	}
	if failures != 0 {
		t.Errorf("%d of %d shots failed client-visibly; failover must absorb the kill", failures, len(shots))
	}

	// Invariant 2: goodput recovers. Of the shots sent after the router
	// ejected the victim, at least 90% must be answered for real — 200,
	// not the local degraded fallback — by a surviving replica.
	var good int
	for _, s := range shots {
		if s.recovered && s.code == http.StatusOK && !s.degraded &&
			s.replica != "" && s.replica != names[kill.Target] {
			good++
		}
	}
	share := float64(good) / float64(recovered)
	t.Logf("goodput: %d of %d post-recovery shots answered by a survivor (%.1f%%; kill of %s at %v, %d shots)",
		good, recovered, 100*share, names[kill.Target], killAt, len(shots))
	if share < 0.9 {
		t.Errorf("goodput did not recover: %d of %d post-recovery shots answered by a survivor (< 90%%)", good, recovered)
	}

	// Invariant 3: after recovery the surviving replicas carry the load —
	// the final answers are real, not local-fallback degraded.
	for _, s := range shots[len(shots)-minRecovered/2:] {
		if s.degraded {
			t.Error("post-recovery answer still served by the degraded local fallback")
			break
		}
	}

	// Phase 2: kill the whole fleet. The router must keep answering,
	// flagged degraded, and say "degraded" on its own /healthz. Stop the
	// background sweeps first: a probe that connected just before the
	// kill could otherwise land its success between the explicit sweeps
	// below and reset a failure streak.
	g.Stop()
	for _, r := range replicas {
		r.kill()
	}
	g.CheckNow(context.Background())
	g.CheckNow(context.Background()) // second sweep crosses the ejection threshold
	for i, s := range g.States() {
		if s != StateDead {
			t.Fatalf("replica %d state %v after fleet-wide kill, want dead", i, s)
		}
	}
	resp, err := client.Post(gateURL+"/v1/advise", "application/json",
		strings.NewReader(`{"machine":"hydra","nodes":4,"collective":"alltoall","comm_size":16}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("advise with dead fleet: status %d, want degraded 200", resp.StatusCode)
	}
	var advise mapd.AdviseResponse
	if err := json.NewDecoder(resp.Body).Decode(&advise); err != nil {
		t.Fatal(err)
	}
	if !advise.Degraded {
		t.Error("fleet-wide outage answer not marked degraded:true")
	}
	hz, err := client.Get(gateURL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hz.Body.Close()
	b, _ := io.ReadAll(hz.Body)
	if hz.StatusCode != http.StatusOK || !strings.Contains(string(b), "degraded") {
		t.Errorf("/healthz after fleet-wide kill: status %d body %s, want degraded 200", hz.StatusCode, b)
	}
}
