package transport

import (
	"encoding/json"
	"errors"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"testing"
	"time"

	"github.com/sies/sies/internal/chaos"
	"github.com/sies/sies/internal/core"
	"github.com/sies/sies/internal/obs"
	"github.com/sies/sies/internal/prf"
)

// restartSoakReport is the recovery-stats artifact appended to
// $SIES_RESTART_STATS (CI uploads it with the restart-soak job).
type restartSoakReport struct {
	Name             string          `json:"name"`
	Seed             int64           `json:"seed"`
	Epochs           int             `json:"epochs"`
	Crashes          int             `json:"crashes"`
	QuerierCrashes   int             `json:"querier_crashes"`
	AggCrashes       int             `json:"aggregator_crashes"`
	Served           int             `json:"served"`
	Lost             int             `json:"lost"`
	Full             int             `json:"full"`
	Partial          int             `json:"partial"`
	Empty            int             `json:"empty"`
	WrongAnswers     int             `json:"wrong_answers"`
	DuplicateCommits int             `json:"duplicate_commits"`
	Querier          DurabilityStats `json:"querier_durability"`
	Aggregator       DurabilityStats `json:"aggregator_durability"`
}

// writeRestartStats appends the report to $SIES_RESTART_STATS when set.
func writeRestartStats(t *testing.T, rep restartSoakReport) {
	t.Helper()
	path := os.Getenv("SIES_RESTART_STATS")
	if path == "" {
		return
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Logf("restart stats: %v", err)
		return
	}
	defer f.Close()
	if err := json.NewEncoder(f).Encode(rep); err != nil {
		t.Logf("restart stats: %v", err)
	}
}

// soakValue is the deterministic reading of source i at epoch t, so any
// emitted SUM can be checked exactly against the result's contributor set.
func soakValue(i int, t prf.Epoch) uint64 {
	return uint64(1000*(i+1)) + uint64(t)
}

// freePort reserves a listening address that stays usable across restarts.
func freePort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// restartCluster is a live querier + root-aggregator pair whose processes can
// be killed and rebuilt from their state directories. It implements
// chaos.CrashTarget: Kill is the transport Crash() (no flush, no fsync),
// Restart reconstructs the node from its durable directory on the same port.
type restartCluster struct {
	t    *testing.T
	q    *core.Querier
	qCfg QuerierConfig
	aCfg AggregatorConfig

	results chan EpochResult // merged across querier generations
	drains  sync.WaitGroup   // one drain goroutine per querier generation

	mu     sync.Mutex
	qn     *QuerierNode
	qnRun  chan error
	agg    *AggregatorNode
	aggRun chan error
}

func (c *restartCluster) startQuerier() error {
	qn, err := NewQuerierNodeConfig(c.qCfg, c.q)
	if err != nil {
		return err
	}
	run := make(chan error, 1)
	go func() { run <- qn.Run() }()
	c.drains.Add(1)
	go func() {
		defer c.drains.Done()
		for res := range qn.Results {
			c.results <- res
		}
	}()
	c.mu.Lock()
	c.qn, c.qnRun = qn, run
	c.mu.Unlock()
	return nil
}

// startAggregator blocks until every source has redialed; the driver
// guarantees each source holds at least one queued report at restart time, so
// their redialers are guaranteed to knock.
func (c *restartCluster) startAggregator() error {
	a, err := NewAggregatorNode(c.aCfg, c.q.Params().Field())
	if err != nil {
		return err
	}
	run := make(chan error, 1)
	go func() { run <- a.Run() }()
	c.mu.Lock()
	c.agg, c.aggRun = a, run
	c.mu.Unlock()
	return nil
}

func (c *restartCluster) Kill(role chaos.CrashRole, id int) error {
	if role == chaos.CrashQuerier {
		c.mu.Lock()
		qn, run := c.qn, c.qnRun
		c.mu.Unlock()
		qn.Crash()
		// Loop exit closes Results, which ends this generation's drain.
		awaitRun(c.t, run, "querier")
		return nil
	}
	c.mu.Lock()
	a, run := c.agg, c.aggRun
	c.mu.Unlock()
	a.Crash()
	awaitRun(c.t, run, "aggregator") // a crash may surface as an error; either way the loop exits
	return nil
}

func (c *restartCluster) Restart(role chaos.CrashRole, id int) error {
	if role == chaos.CrashQuerier {
		return c.startQuerier()
	}
	return c.startAggregator()
}

// metricsHandler serves the CURRENT querier generation's observability
// endpoints — exactly what a scraper pointed at a restarting process sees:
// each restart brings fresh counters that the durable snapshot re-fills.
func (c *restartCluster) metricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		c.mu.Lock()
		qn := c.qn
		c.mu.Unlock()
		obs.NewHandler(obs.ServerConfig{Registry: qn.Metrics(), Tracer: qn.Tracer()}).ServeHTTP(w, r)
	})
}

// TestRestartChaosSoak drives a durable cluster (3 sources → root aggregator
// → querier) through a seeded crash plan of well over 20 kill/restart cycles
// and checks the exactly-once commit contract end to end: every emitted SUM
// is exactly the sum of its contributor set's readings, no committed epoch is
// ever answered twice, and nothing is rejected. Crashes are transport
// Crash() calls — no graceful flush, no final fsync — and every restart
// rebuilds the process from its state directory alone.
func TestRestartChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("restart soak is long; skipped with -short")
	}
	const (
		nSources = 3
		seed     = int64(20260807)
		epochs   = 260
		pace     = 15 * time.Millisecond
	)
	q, sources, err := core.Setup(nSources)
	if err != nil {
		t.Fatal(err)
	}

	plan := chaos.RandomCrashes(rand.New(rand.NewSource(seed)), epochs, 1, 0.18, 2)
	if plan.Crashes() < 20 {
		t.Fatalf("plan has %d crashes, want >= 20 (re-tune seed/prob)", plan.Crashes())
	}
	var qCrashes, aCrashes int
	for _, e := range plan.Events {
		if e.Role == chaos.CrashQuerier {
			qCrashes++
		} else {
			aCrashes++
		}
	}
	t.Logf("plan: %d crashes (%d querier, %d aggregator) over %d epochs",
		plan.Crashes(), qCrashes, aCrashes, epochs)

	qAddr, aggAddr := freePort(t), freePort(t)
	backoff := Backoff{Initial: 10 * time.Millisecond, Max: 200 * time.Millisecond, MaxElapsed: 60 * time.Second}
	c := &restartCluster{
		t: t, q: q,
		qCfg: QuerierConfig{
			ListenAddr: qAddr, StateDir: t.TempDir(), CheckpointEvery: 8,
		},
		aCfg: AggregatorConfig{
			ListenAddr: aggAddr, ParentAddr: qAddr, NumChildren: nSources,
			Timeout: 700 * time.Millisecond, ReconnectWindow: 30 * time.Second,
			Backoff: backoff, StateDir: t.TempDir(), CheckpointEvery: 8,
		},
		results: make(chan EpochResult, 2*epochs+64),
	}

	if err := c.startQuerier(); err != nil {
		t.Fatal(err)
	}

	// A scraper runs for the whole soak, crossing every querier generation:
	// the handler always serves the live node, so this exercises scrape-
	// during-crash-and-restart, and the final assertions consume the scraped
	// exposition rather than node internals.
	msrv := httptest.NewServer(c.metricsHandler())
	defer msrv.Close()
	scrapeStop := make(chan struct{})
	var scrapeWG sync.WaitGroup
	scrapeWG.Add(1)
	go func() {
		defer scrapeWG.Done()
		for {
			select {
			case <-scrapeStop:
				return
			case <-time.After(25 * time.Millisecond):
			}
			for _, path := range []string{"/metrics", "/trace/epochs?n=8"} {
				resp, err := http.Get(msrv.URL + path)
				if err == nil {
					resp.Body.Close()
				}
			}
		}
	}()

	aggBuilt := make(chan error, 1)
	go func() { aggBuilt <- c.startAggregator() }()
	time.Sleep(100 * time.Millisecond) // aggregator listener up

	srcs := make([]*SourceNode, nSources)
	for i, s := range sources {
		srcs[i], err = DialSourceWith(SourceConfig{ParentAddr: aggAddr, Backoff: backoff}, s)
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := <-aggBuilt; err != nil {
		t.Fatal(err)
	}

	// One reporter goroutine per source delivers epochs in order; a down
	// aggregator just delays it inside the redialer's retry loop.
	var reporters sync.WaitGroup
	epochCh := make([]chan prf.Epoch, nSources)
	for i := range epochCh {
		epochCh[i] = make(chan prf.Epoch, epochs+8)
		reporters.Add(1)
		go func(i int) {
			defer reporters.Done()
			for e := range epochCh[i] {
				// A report that exhausts its backoff is simply a missed epoch
				// for this source; the epoch flushes partial and is validated
				// against its Failed list like any other.
				_ = srcs[i].Report(e, soakValue(i, e))
			}
		}(i)
	}

	// Drive: queue the epoch to every reporter BEFORE applying the plan, so a
	// restarting aggregator always has sources knocking, then crash/restart
	// per the plan. Kills land with the epoch's reports still in flight.
	for e := prf.Epoch(1); e <= epochs; e++ {
		for i := range epochCh {
			epochCh[i] <- e
		}
		if err := plan.Apply(e, c); err != nil {
			t.Fatal(err)
		}
		time.Sleep(pace)
	}
	// Fire any trailing restart whose down window crosses the horizon.
	for e := prf.Epoch(epochs + 1); e <= epochs+3; e++ {
		if err := plan.Apply(e, c); err != nil {
			t.Fatal(err)
		}
	}

	// Let in-flight epochs settle (deadline flushes included), then shut down
	// gracefully: sources first, the aggregator's orphan flush settles what
	// remains, then the querier.
	time.Sleep(1500 * time.Millisecond)
	for i := range epochCh {
		close(epochCh[i])
	}
	reporters.Wait()
	for _, s := range srcs {
		s.Close()
	}
	time.Sleep(300 * time.Millisecond)

	aggStats := c.agg.DurabilityStats()
	c.agg.Close()
	if err := awaitRun(t, c.aggRun, "aggregator"); err != nil {
		t.Errorf("aggregator run: %v", err)
	}
	// The final verdict comes from the scraped exposition, as a monitoring
	// system would render it, not from reaching into the node.
	metrics := parsePrometheus(t, scrape(t, msrv.URL+"/metrics"))
	qStats := c.qn.DurabilityStats()
	c.qn.Close()
	if err := awaitRun(t, c.qnRun, "querier"); err != nil {
		t.Errorf("querier run: %v", err)
	}
	close(scrapeStop)
	scrapeWG.Wait()
	c.drains.Wait()
	close(c.results)

	// Validate every emitted result against the deterministic readings.
	var wrong, dup, rejected, full, partial, empty int
	seen := map[prf.Epoch]int{}
	for res := range c.results {
		if res.Err != nil {
			if errors.Is(res.Err, ErrNoContributors) {
				seen[res.Epoch]++
				empty++
				continue
			}
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
	if served < epochs*7/10 {
		t.Errorf("served %d of %d epochs; the cluster wedged somewhere", served, epochs)
	}
	if got := metrics["sies_epochs_rejected_total"]; got != 0 {
		t.Errorf("scraped sies_epochs_rejected_total = %v in a clean soak, want 0", got)
	}
	// Commits survive crashes: the final generation's counters — restored
	// from the durable snapshot plus journal replay — must agree with the
	// deduplicated outcome tally across every generation's emissions, except
	// for results that reached the channel in the instant before a querier
	// kill whose commit record never hit the journal. Those are never
	// re-served (the handshake sync window skips settled epochs), so the
	// replayed counter may trail the channel by at most one per querier kill;
	// it must never exceed it.
	if got := metrics["sies_epochs_served_total"]; got > float64(full+partial) ||
		got < float64(full+partial-qCrashes) {
		t.Errorf("scraped sies_epochs_served_total = %v, results channel saw %d (%d querier kills)",
			got, full+partial, qCrashes)
	}
	if got := metrics["sies_epochs_empty_total"]; got != float64(empty) {
		t.Errorf("scraped sies_epochs_empty_total = %v, results channel saw %d", got, empty)
	}
	if got := metrics["sies_durability_enabled"]; got != 1 {
		t.Errorf("scraped sies_durability_enabled = %v, want 1", got)
	}
	t.Logf("served %d/%d (full %d, partial %d, empty %d, lost %d), dedup hits %d, querier replay %d recs, agg replay %d recs",
		served, epochs, full, partial, empty, lost,
		qStats.DedupHits, qStats.ReplayedRecords, aggStats.ReplayedRecords)

	writeRestartStats(t, restartSoakReport{
		Name: "restart-chaos-soak", Seed: seed, Epochs: epochs,
		Crashes: plan.Crashes(), QuerierCrashes: qCrashes, AggCrashes: aCrashes,
		Served: served, Lost: lost, Full: full, Partial: partial, Empty: empty,
		WrongAnswers: wrong, DuplicateCommits: dup,
		Querier: qStats, Aggregator: aggStats,
	})
}

// TestQuarantinePersistsAcrossRestart confirms a culprit through the
// quarantine registry, crashes the querier and checks the restarted node
// still excludes it — no quarantine amnesia.
func TestQuarantinePersistsAcrossRestart(t *testing.T) {
	q, _, err := core.Setup(4)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	fcfg := ForensicsConfig{
		Tree:  func() core.ProbeGroup { return core.ProbeGroup{Sources: []int{0, 1, 2, 3}} },
		Probe: func(e prf.Epoch, ids []int) (core.Result, error) { return core.Result{}, nil },
	}

	qn1, err := NewQuerierNodeConfig(QuerierConfig{ListenAddr: "127.0.0.1:0", StateDir: dir}, q)
	if err != nil {
		t.Fatal(err)
	}
	if err := qn1.EnableForensics(fcfg); err != nil {
		t.Fatal(err)
	}
	route := core.Route{Aggregator: true, ID: 1}
	qn1.forensics.quarantine.Report(route, []int{2, 3})
	if s := qn1.forensics.quarantine.Report(route, []int{2, 3}); s != core.RouteConfirmed {
		t.Fatalf("second report → %v, want confirmed", s)
	}
	qn1.persistQuarantine()
	qn1.Crash()

	qn2, err := NewQuerierNodeConfig(QuerierConfig{ListenAddr: "127.0.0.1:0", StateDir: dir}, q)
	if err != nil {
		t.Fatal(err)
	}
	defer qn2.Close()
	if err := qn2.EnableForensics(fcfg); err != nil {
		t.Fatal(err)
	}
	if s := qn2.forensics.quarantine.StateOf(route); s != core.RouteConfirmed {
		t.Fatalf("restarted registry forgot the culprit: %v", s)
	}
	if got := qn2.forensics.quarantine.Excluded(); len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("restarted exclusion set = %v, want [2 3]", got)
	}
}
