package transport

import (
	"encoding/json"
	"net/http/httptest"
	"os"
	"sync"
	"testing"
	"time"

	"github.com/sies/sies/internal/core"
	"github.com/sies/sies/internal/obs"
	"github.com/sies/sies/internal/prf"
)

// failoverSoakReport is the availability-under-churn artifact appended to
// $SIES_FAILOVER_STATS (CI uploads it with the failover-soak job).
type failoverSoakReport struct {
	Name            string `json:"name"`
	Seed            int64  `json:"seed"`
	Epochs          int    `json:"epochs"`
	Kills           int    `json:"kills"`
	Served          int    `json:"served"`
	Lost            int    `json:"lost"`
	Full            int    `json:"full"`
	Partial         int    `json:"partial"`
	WrongAnswers    int    `json:"wrong_answers"`
	Duplicates      int    `json:"duplicates"`
	Rejected        int    `json:"rejected"`
	SourceFailovers int    `json:"source_failovers"`
	Reparents       uint64 `json:"reparents"`
	Rehomes         uint64 `json:"rehomes"`
	MaxRecoveryLag  int    `json:"max_recovery_lag_epochs"`
}

func writeFailoverStats(t *testing.T, rep failoverSoakReport) {
	t.Helper()
	path := os.Getenv("SIES_FAILOVER_STATS")
	if path == "" {
		return
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Logf("failover stats: %v", err)
		return
	}
	defer f.Close()
	if err := json.NewEncoder(f).Encode(rep); err != nil {
		t.Logf("failover stats: %v", err)
	}
}

// TestFailoverChaosSoak is the self-healing-tree proof over live TCP: a
// three-level deployment (6 sources → two interior aggregators + one standby
// → AcceptNew root → querier) in which EVERY interior aggregator is
// permanently killed mid-run. Sources carry ranked parent lists and fail over
// to the standby when their per-address backoff budget exhausts; the standby
// re-hellos the root mid-stream, which steals the dead subtree's coverage.
// The verdict: zero wrong SUMs, zero duplicate epochs, zero rejections,
// coverage back to 100% of surviving sources within a bounded number of
// epochs after each kill, and the querier's membership view (Health + metrics
// scrape) showing at least one re-parent per kill.
func TestFailoverChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("failover soak is long; skipped with -short")
	}
	const (
		nSources    = 6
		seed        = int64(20260807)
		epochs      = 200
		pace        = 15 * time.Millisecond
		killA1At    = prf.Epoch(40)
		killA2At    = prf.Epoch(100)
		recoveryLag = 45 // epochs within which full coverage must return
	)
	q, sources, err := core.Setup(nSources)
	if err != nil {
		t.Fatal(err)
	}
	field := q.Params().Field()

	qAddr := freePort(t)
	rAddr := freePort(t)
	a1Addr := freePort(t)
	a2Addr := freePort(t)
	sAddr := freePort(t)

	qn, err := NewQuerierNodeConfig(QuerierConfig{ListenAddr: qAddr}, q)
	if err != nil {
		t.Fatal(err)
	}
	go qn.Run()
	msrv := httptest.NewServer(obs.NewHandler(obs.ServerConfig{Registry: qn.Metrics(), Tracer: qn.Tracer()}))
	defer msrv.Close()

	// Results drain concurrently; the channel closes when the querier does.
	var results []EpochResult
	resultsDone := make(chan struct{})
	go func() {
		defer close(resultsDone)
		for res := range qn.Results {
			results = append(results, res)
		}
	}()

	backoff := Backoff{Initial: 10 * time.Millisecond, Max: 100 * time.Millisecond, MaxAttempts: 3, Seed: seed}

	// Build order: root first (it must listen before A1/A2/S dial up), then
	// the interiors, then sources. Construction of an aggregator blocks until
	// its NumChildren children arrive, so each runs on its own goroutine.
	type aggProc struct {
		mu   sync.Mutex
		node *AggregatorNode
		run  chan error
	}
	launch := func(name string, cfg AggregatorConfig) *aggProc {
		p := &aggProc{run: make(chan error, 1)}
		go func() {
			// Everything launches concurrently, so an upstream listener may
			// not be up yet; a failed construction releases its own listener
			// (closeAll), making the retry safe.
			deadline := time.Now().Add(10 * time.Second)
			var node *AggregatorNode
			var err error
			for {
				node, err = NewAggregatorNode(cfg, field)
				if err == nil {
					break
				}
				t.Logf("%s: construction attempt failed: %v", name, err)
				if time.Now().After(deadline) {
					p.run <- err
					return
				}
				time.Sleep(20 * time.Millisecond)
			}
			t.Logf("%s: up", name)
			p.mu.Lock()
			p.node = node
			p.mu.Unlock()
			p.run <- node.Run()
		}()
		return p
	}
	get := func(name string, p *aggProc) *AggregatorNode {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			p.mu.Lock()
			n := p.node
			p.mu.Unlock()
			if n != nil {
				return n
			}
			if time.Now().After(deadline) {
				select {
				case err := <-p.run:
					t.Fatalf("%s never came up: %v", name, err)
				default:
					t.Fatalf("%s never came up", name)
				}
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	// The root waits for all three interiors — A1, A2 and the (empty-coverage)
	// standby — before dialing the querier, so its first upstream hello claims
	// the full deployment. It launches first: its listener must be bound
	// before the interiors dial up.
	root := launch("root", AggregatorConfig{
		ListenAddr: rAddr, ParentAddr: qAddr, NumChildren: 3, AcceptNew: true,
		Timeout: 600 * time.Millisecond, ReconnectWindow: time.Minute,
		Backoff: backoff, MaxSources: nSources,
	})
	time.Sleep(100 * time.Millisecond)
	a1 := launch("a1", AggregatorConfig{
		ListenAddr: a1Addr, ParentAddr: rAddr, NumChildren: 3,
		Timeout: 300 * time.Millisecond, ReconnectWindow: time.Minute,
		Backoff: backoff, MaxSources: nSources,
	})
	a2 := launch("a2", AggregatorConfig{
		ListenAddr: a2Addr, ParentAddr: rAddr, NumChildren: 3,
		Timeout: 300 * time.Millisecond, ReconnectWindow: time.Minute,
		Backoff: backoff, MaxSources: nSources,
	})
	// The standby starts childless: AcceptNew lets re-homing sources attach
	// mid-run, and its coverage-growing re-hello makes the root steal the
	// dead subtree's attribution.
	standby := launch("standby", AggregatorConfig{
		ListenAddr: sAddr, ParentAddr: rAddr, NumChildren: 0, AcceptNew: true,
		Timeout: 300 * time.Millisecond, ReconnectWindow: time.Minute,
		Backoff: backoff, MaxSources: nSources,
	})
	time.Sleep(100 * time.Millisecond)

	srcs := make([]*SourceNode, nSources)
	for i, s := range sources {
		first := a1Addr
		if i >= 3 {
			first = a2Addr
		}
		cfg := SourceConfig{ParentAddrs: []string{first, sAddr}, Backoff: backoff}
		// The interior listeners come up asynchronously; retry the initial
		// dial until they accept.
		deadline := time.Now().Add(10 * time.Second)
		for {
			srcs[i], err = DialSourceWith(cfg, s)
			if err == nil {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal(err)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	a1Node, a2Node := get("a1", a1), get("a2", a2)
	get("root", root)
	get("standby", standby)

	// One reporter per source keeps epoch order; a dead parent just delays a
	// report inside the failover-dialing retry loop.
	var reporters sync.WaitGroup
	epochCh := make([]chan prf.Epoch, nSources)
	for i := range epochCh {
		epochCh[i] = make(chan prf.Epoch, epochs+8)
		reporters.Add(1)
		go func(i int) {
			defer reporters.Done()
			for e := range epochCh[i] {
				// An exhausted full sweep is a missed epoch for this source;
				// the epoch settles partial and is validated like any other.
				_ = srcs[i].Report(e, soakValue(i, e))
			}
		}(i)
	}

	kills := 0
	for e := prf.Epoch(1); e <= epochs; e++ {
		for i := range epochCh {
			epochCh[i] <- e
		}
		switch e {
		case killA1At:
			a1Node.Crash() // permanent: nothing ever restarts it
			kills++
		case killA2At:
			a2Node.Crash()
			kills++
		}
		time.Sleep(pace)
	}

	// Drain: reporters finish, in-flight epochs settle through the deadline
	// flushes, then tear down leaves-first so the root's orphan flush clears
	// what remains.
	for i := range epochCh {
		close(epochCh[i])
	}
	reporters.Wait()
	time.Sleep(2 * time.Second)

	// Snapshot the membership view while the healed tree is still standing:
	// tearing the processes down below emits its own orphan churn, which says
	// nothing about how the tree weathered the kills.
	health := qn.Health()
	metrics := parsePrometheus(t, scrape(t, msrv.URL+"/metrics"))

	failovers := 0
	for _, s := range srcs {
		failovers += s.Failovers()
		s.Close()
	}
	awaitRun(t, a1.run, "a1") // crashed generations: reap, error or not
	awaitRun(t, a2.run, "a2")
	time.Sleep(500 * time.Millisecond)
	get("standby", standby).Close()
	awaitRun(t, standby.run, "standby")
	get("root", root).Close()
	awaitRun(t, root.run, "root")
	qn.Close()
	<-resultsDone

	// Every emitted SUM must be exactly the sum of its contributor set's
	// deterministic readings — failover may cost coverage, never exactness.
	var wrong, dup, rejected, full, partial int
	seen := map[prf.Epoch]int{}
	lastFull := prf.Epoch(0)
	fullByEpoch := map[prf.Epoch]bool{}
	for _, res := range results {
		if res.Err != nil {
			rejected++
			t.Errorf("epoch %d rejected: %v", res.Epoch, res.Err)
			continue
		}
		seen[res.Epoch]++
		failed := map[int]bool{}
		for _, id := range res.Failed {
			failed[id] = true
		}
		var want uint64
		for i := 0; i < nSources; i++ {
			if !failed[i] {
				want += soakValue(i, res.Epoch)
			}
		}
		if res.Sum != want {
			wrong++
			t.Errorf("epoch %d: sum %d, want %d (failed %v)", res.Epoch, res.Sum, want, res.Failed)
		}
		if res.Partial {
			partial++
		} else {
			full++
			fullByEpoch[res.Epoch] = true
			if res.Epoch > lastFull {
				lastFull = res.Epoch
			}
		}
	}
	for e, n := range seen {
		if n > 1 {
			dup++
			t.Errorf("epoch %d answered %d times", e, n)
		}
	}
	served := len(seen)
	lost := epochs - served
	if served < epochs*8/10 {
		t.Errorf("served %d of %d epochs; the tree wedged somewhere", served, epochs)
	}

	// Bounded re-homing: full coverage returns within recoveryLag epochs of
	// each kill, and holds at the end of the run.
	maxLag := 0
	for _, kill := range []prf.Epoch{killA1At, killA2At} {
		recovered := false
		for e := kill + 1; e <= kill+recoveryLag && e <= epochs; e++ {
			if fullByEpoch[e] {
				if lag := int(e - kill); lag > maxLag {
					maxLag = lag
				}
				recovered = true
				break
			}
		}
		if !recovered {
			t.Errorf("no full-coverage epoch within %d epochs of the kill at %d", recoveryLag, kill)
		}
	}
	if lastFull < killA2At {
		t.Errorf("last full epoch %d precedes the second kill at %d: coverage never returned", lastFull, killA2At)
	}

	// Each source group failed over once: 6 sources, each with at least one
	// escalation to the standby.
	if failovers < nSources {
		t.Errorf("source failovers = %d, want >= %d (one per source)", failovers, nSources)
	}

	// The querier's reconciled membership view saw the churn: at least one
	// re-parent per kill (in truth one per re-homed source), no one left
	// orphaned, and the same story through the metrics scrape.
	if health.Tree.Reparents < uint64(kills) {
		t.Errorf("Health().Tree.Reparents = %d, want >= %d kills", health.Tree.Reparents, kills)
	}
	if health.Tree.Orphaned != 0 {
		t.Errorf("Health().Tree.Orphaned = %d at end of run, want 0", health.Tree.Orphaned)
	}
	if got := metrics["sies_tree_reparents_total"]; got < float64(kills) {
		t.Errorf("scraped sies_tree_reparents_total = %v, want >= %d kills", got, kills)
	}
	if got := metrics["sies_epochs_rejected_total"]; got != 0 {
		t.Errorf("scraped sies_epochs_rejected_total = %v, want 0", got)
	}

	t.Logf("served %d/%d (full %d, partial %d, lost %d), %d kills, %d source failovers, %d reparents, max recovery lag %d epochs",
		served, epochs, full, partial, lost, kills, failovers, health.Tree.Reparents, maxLag)

	writeFailoverStats(t, failoverSoakReport{
		Name: "failover-chaos-soak", Seed: seed, Epochs: epochs, Kills: kills,
		Served: served, Lost: lost, Full: full, Partial: partial,
		WrongAnswers: wrong, Duplicates: dup, Rejected: rejected,
		SourceFailovers: failovers,
		Reparents:       health.Tree.Reparents, Rehomes: health.Tree.Rehomes,
		MaxRecoveryLag: maxLag,
	})
}
