package transport

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/sies/sies/internal/core"
	"github.com/sies/sies/internal/obs"
	"github.com/sies/sies/internal/prf"
	"github.com/sies/sies/internal/uint256"
)

// ErrNoContributors reports an epoch in which every source failed: there is
// no PSR to verify, only the (sorted) non-contributor list.
var ErrNoContributors = errors.New("transport: no source contributed to this epoch")

// report is one child's contribution to one epoch: an optional PSR plus the
// ids of sources in its subtree that failed. covers snapshots the child
// slot's coverage at acceptance time, so flush attribution stays correct even
// if the slot's coverage is later stolen by a failover re-home.
type report struct {
	child  int
	epoch  prf.Epoch
	psr    *core.PSR
	failed []int
	covers []int
}

// idsMinus returns a ∖ b for sorted canonical id lists (core.NormalizeIDs
// form), allocating only the result.
func idsMinus(a, b []int) []int {
	var out []int
	j := 0
	for _, id := range a {
		for j < len(b) && b[j] < id {
			j++
		}
		if j < len(b) && b[j] == id {
			continue
		}
		out = append(out, id)
	}
	return out
}

// idsSorted reports whether ids is strictly increasing (canonical form).
func idsSorted(ids []int) bool {
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			return false
		}
	}
	return true
}

// idsIntersect returns a ∩ b for sorted canonical id lists.
func idsIntersect(a, b []int) []int {
	var out []int
	j := 0
	for _, id := range a {
		for j < len(b) && b[j] < id {
			j++
		}
		if j < len(b) && b[j] == id {
			out = append(out, id)
		}
	}
	return out
}

// encodeReport packs a PSR + failed-id list into a TypePSR payload.
func encodeReport(psr core.PSR, failed []int) []byte {
	wire := psr.Bytes()
	return append(wire[:], core.EncodeContributors(failed)...)
}

// EncodeReport builds a TypePSR frame payload from a merged PSR and the
// canonical failed-id list. Exported for load generators and benchmarks that
// drive an aggregator with raw child connections instead of full source nodes.
func EncodeReport(psr core.PSR, failed []int) []byte {
	return encodeReport(psr, failed)
}

// DefaultMaxSources bounds contributor ids accepted from the wire when a
// node has no exact deployment size (aggregators hold only the public
// modulus). Hostile frames with ids past any plausible deployment are
// rejected before they can inflate coverage sets or allocations.
const DefaultMaxSources = 1 << 22

// decodeReport unpacks a TypePSR payload. maxID bounds the failed-source ids
// (see core.DecodeContributorsBounded), which also requires the canonical
// sorted duplicate-free form, so one hostile child cannot double-count a
// blinding key or claim sources outside the deployment.
func decodeReport(payload []byte, f *uint256.Field, maxID int) (core.PSR, []int, error) {
	if len(payload) < core.PSRSize {
		return core.PSR{}, nil, errors.New("transport: short PSR payload")
	}
	psr, err := core.ParsePSR(payload[:core.PSRSize], f)
	if err != nil {
		return core.PSR{}, nil, err
	}
	failed, err := core.DecodeContributorsBounded(payload[core.PSRSize:], maxID)
	if err != nil {
		return core.PSR{}, nil, err
	}
	return psr, failed, nil
}

// SourceConfig configures a fault-tolerant source connection.
type SourceConfig struct {
	ParentAddr string
	// ParentAddrs is the ranked candidate-parent list for failover dialing;
	// when set it supersedes ParentAddr. The source spends its per-address
	// Backoff budget (MaxElapsed / MaxAttempts) on each address in turn,
	// re-running the fenced hello handshake against the next candidate when
	// the current parent stays dead (DESIGN.md §15).
	ParentAddrs []string
	// Dial replaces net.Dial — chaos injection and tests hook here.
	Dial func(network, addr string) (net.Conn, error)
	// Backoff is the redial policy after the parent link drops.
	Backoff Backoff
	// HandshakeTimeout bounds the hello/hello-ack exchange (default 5s).
	HandshakeTimeout time.Duration
	// Metrics is the registry the node's counters expose through; nil gives
	// the node a private registry (reachable via Metrics()).
	Metrics *obs.Registry
}

// SourceNode is a leaf sensor process: it encrypts readings and streams the
// PSRs to its parent aggregator, redialing with backoff when the link drops.
type SourceNode struct {
	src *core.Source
	rd  *redialer
	obs *sourceObs
}

// DialSource connects a source to its parent aggregator with the default
// redial policy.
func DialSource(parentAddr string, src *core.Source) (*SourceNode, error) {
	return DialSourceWith(SourceConfig{ParentAddr: parentAddr}, src)
}

// DialSourceWith connects a source to its parent aggregator, completes the
// hello handshake and returns a node whose Report survives link failures by
// redialing with exponential backoff + jitter.
func DialSourceWith(cfg SourceConfig, src *core.Source) (*SourceNode, error) {
	dial := cfg.Dial
	if dial == nil {
		dial = net.Dial
	}
	rd := newRedialer(
		dialRanked(dial, cfg.ParentAddrs, cfg.ParentAddr),
		func(fence uint64) Frame {
			return Frame{Type: TypeHello, Epoch: fence, Payload: core.EncodeContributors([]int{src.ID()})}
		},
		cfg.Backoff, cfg.HandshakeTimeout,
	)
	rd.onConn = func(c net.Conn) {
		// The parent never sends past the hello-ack; this drain only exists
		// to notice the link dying while the source is between reports, so
		// the next Report redials instead of writing into a dead socket.
		go func() {
			drainFrames(c)
			rd.markDead(c)
		}()
	}
	if _, err := rd.Connect(); err != nil {
		rd.Close()
		return nil, fmt.Errorf("transport: source %d dialing parent: %w", src.ID(), err)
	}
	node := &SourceNode{src: src, rd: rd, obs: newSourceObs(cfg.Metrics)}
	node.obs.bind(node)
	return node, nil
}

// Report encrypts the epoch's reading and sends the PSR upstream, redialing
// as needed. Epochs at or below the parent's resync point (learned during the
// last handshake) are skipped: the parent has already settled them and would
// discard the report.
func (s *SourceNode) Report(t prf.Epoch, v uint64) error {
	if uint64(t) <= s.rd.SyncEpoch() {
		s.obs.skipped.Inc()
		return nil
	}
	psr, err := s.src.Encrypt(t, v)
	if err != nil {
		return err
	}
	if err := s.rd.Write(Frame{Type: TypePSR, Epoch: uint64(t), Payload: encodeReport(psr, nil)}); err != nil {
		return err
	}
	s.obs.reports.Inc()
	return nil
}

// Reconnects counts how many times the source re-established its parent link.
func (s *SourceNode) Reconnects() int { return s.rd.Reconnects() }

// Failovers counts escalations to the next candidate parent address.
func (s *SourceNode) Failovers() int { return s.rd.Failovers() }

// Metrics returns the node's metrics registry.
func (s *SourceNode) Metrics() *obs.Registry { return s.obs.reg }

// Leave announces a graceful departure: a leave frame tells the parent to
// mark this source departed immediately, instead of burning an epoch timeout
// per remaining epoch waiting for it. Call it from a drain path, before
// Close. Best-effort: a dead parent link just means the departure is
// discovered by timeout, as before.
func (s *SourceNode) Leave() error {
	return s.rd.Write(Frame{Type: TypeLeave, Payload: core.EncodeContributors([]int{s.src.ID()})})
}

// Close terminates the connection; the parent treats subsequent epochs as
// failures of this source.
func (s *SourceNode) Close() error {
	return s.rd.Close()
}

// dialRanked builds the redialer's ranked dial list from a ParentAddrs list
// (preferred) or the single ParentAddr.
func dialRanked(dial func(network, addr string) (net.Conn, error), addrs []string, single string) []func() (net.Conn, error) {
	if len(addrs) == 0 {
		addrs = []string{single}
	}
	dials := make([]func() (net.Conn, error), len(addrs))
	for i, addr := range addrs {
		addr := addr
		dials[i] = func() (net.Conn, error) { return dial("tcp", addr) }
	}
	return dials
}

// AggregatorNode is an internal tree node process: it accepts a set of
// children, merges their per-epoch PSRs and forwards one PSR upstream. The
// listener stays open for the node's lifetime so children that lost their
// link can return; re-sent reports for epochs already forwarded are dropped.
// With AcceptNew set the child set is dynamic: children of a failed sibling
// re-home here, their coverage is stolen from whichever stale slot claimed
// it, and the upstream hello is refreshed when the covered union grows.
type AggregatorNode struct {
	agg      *core.Aggregator
	field    *uint256.Field
	upstream *redialer
	ln       net.Listener
	children []*childState // append-only; slots empty out when stolen, never shift
	covers   []int         // union of children's source ids (guarded by mu for writes)

	timeout          time.Duration
	reconnectWindow  time.Duration
	idleTimeout      time.Duration
	handshakeTimeout time.Duration
	maxSources       int
	acceptNew        bool

	// mu is the slow-path lifecycle lock (DESIGN.md §16). Write-held only for
	// membership events — attach, coverage steal, leave, disconnect, close,
	// crash — and read-held by the ingest/flush hot paths just long enough to
	// snapshot child state. Epoch state itself lives in the sharded table
	// below and is never guarded by mu. Lock order: mu before any shard lock.
	mu         sync.RWMutex
	closed     bool
	crashed    bool
	conns      map[net.Conn]struct{}
	allRegular bool // every slot expected for every epoch; see recomputeRegular

	// closedA/crashedA mirror closed/crashed for lock-free reads on the hot
	// paths; transitions happen under mu with the atomic stored last.
	closedA  atomic.Bool
	crashedA atomic.Bool
	// memberGen is the epoch-generation fence: bumped (under mu) by every
	// membership event that can invalidate an in-flight ingest's snapshot of
	// child state — attach, steal, leave. Ingest validates it after inserting
	// under the shard lock and rolls back + retries on a mismatch, so a
	// lifecycle event never interleaves half-way through an acceptance.
	memberGen   atomic.Uint64
	lastFlushed atomic.Uint64

	// table is the sharded concurrent epoch table: in-flight epoch slots plus
	// the striped flushed-epoch dedup window (reports arriving after a flush —
	// a late child, a reconnected child re-sending, or a journal replay after
	// a restart — are dropped instead of triggering a duplicate; FIFO-bounded
	// per stripe, best-effort beyond the window, which the querier tolerates).
	table *epochShards
	// plane is the parallel merge plane flushing claimed slots.
	plane *mergePlane

	failOnce sync.Once
	failCh   chan struct{}
	runErr   error

	state *aggState // durable crash-recovery state; nil without a StateDir
	obs   *aggObs
}

// childState is one child slot. Fields are written only under a.mu's write
// lock (membership events) and read under the read lock by the ingest path;
// covers is replaced wholesale (never mutated in place) on steals so report
// snapshots stay valid.
type childState struct {
	covers   []int  // sorted source ids currently attributed to this child
	key      string // canonical form of covers, for matching returning children
	conn     net.Conn
	fence    uint64 // reports accepted only for epochs strictly above this
	gen      int    // bumped per (re)connect; stale-conn 'd' events are ignored
	alive    bool
	departed bool // graceful leave: stop waiting for it, keep covers for attribution
}

// coversKey canonicalises a sorted id list for child matching.
func coversKey(ids []int) string {
	return fmt.Sprint(ids)
}

// AggregatorConfig configures NewAggregatorNode.
type AggregatorConfig struct {
	ListenAddr  string        // address to accept children on
	ParentAddr  string        // parent aggregator or querier address
	NumChildren int           // children to wait for before starting
	Timeout     time.Duration // per-epoch wait for missing children (default 2s)

	// ParentAddrs is the ranked candidate-parent list for failover dialing;
	// when set it supersedes ParentAddr (see SourceConfig.ParentAddrs).
	ParentAddrs []string
	// AcceptNew lets children that are not part of the initial set attach
	// mid-run: a failover target (standby aggregator, or any interior node
	// ranked in its siblings' ParentAddrs) accepts the re-homing child,
	// steals its coverage from whichever stale slot still claims it, and
	// refreshes the upstream hello when the covered union grows. AcceptNew
	// additionally allows NumChildren of zero (a pure standby starts empty)
	// and keeps the node alive while it has no children.
	AcceptNew bool

	// ReconnectWindow is the grace period after the last child disconnects
	// before Run concludes the deployment is gone and exits (default:
	// Timeout). Children returning within the window resume seamlessly.
	ReconnectWindow time.Duration
	// IdleTimeout, when positive, bounds how long a child connection may stay
	// silent before it is cut and the child must redial. It recovers
	// connections desynchronised by torn writes; leave zero for workloads
	// with long quiet gaps between epochs.
	IdleTimeout time.Duration
	// Backoff is the redial policy for the upstream link.
	Backoff Backoff
	// HandshakeTimeout bounds each hello/hello-ack exchange (default 5s).
	HandshakeTimeout time.Duration
	// MaxSources bounds the source ids this node accepts in hello and
	// failure frames (default DefaultMaxSources). Set it to the deployment's
	// N to reject any id a provisioned source could not hold.
	MaxSources int
	// Shards is the epoch-table stripe count (rounded up to a power of two;
	// default DefaultShards). Concurrent child readers ingesting different
	// epochs take different stripe locks; 1 serialises the table — useful as a
	// contention baseline.
	Shards int
	// MergeWorkers sizes the parallel merge plane flushing completed epochs
	// (default min(DefaultMergeWorkers, GOMAXPROCS)); 1 serialises flushes.
	MergeWorkers int
	// StateDir, when set, makes the node durable: epoch contributions and
	// commits are journaled there and recovered on restart, so a crashed
	// aggregator resumes at its exact flush frontier (never re-opening a
	// settled epoch, never double-counting a contribution).
	StateDir string
	// CheckpointEvery is how many flushed epochs elapse between snapshot
	// checkpoints of the durable state (default DefaultCheckpointEvery).
	CheckpointEvery int
	// Metrics is the registry the node's counters expose through; nil gives
	// the node a private registry (reachable via Metrics()).
	Metrics *obs.Registry
	// TraceCapacity sizes the epoch-lifecycle trace ring (default
	// obs.DefaultTraceCapacity).
	TraceCapacity int
	// Dial and Listen replace net.Dial / net.Listen — chaos injection hooks.
	Dial   func(network, addr string) (net.Conn, error)
	Listen func(network, addr string) (net.Listener, error)
}

// NewAggregatorNode listens for its children, completes the hello exchange
// in both directions, dials its parent and returns a node ready to Run. It
// holds only the public modulus, like the in-protocol aggregator.
func NewAggregatorNode(cfg AggregatorConfig, field *uint256.Field) (*AggregatorNode, error) {
	if cfg.NumChildren < 1 && !cfg.AcceptNew {
		return nil, errors.New("transport: aggregator needs at least one child")
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 2 * time.Second
	}
	if cfg.ReconnectWindow <= 0 {
		cfg.ReconnectWindow = cfg.Timeout
	}
	if cfg.HandshakeTimeout <= 0 {
		cfg.HandshakeTimeout = 5 * time.Second
	}
	if cfg.MaxSources <= 0 {
		cfg.MaxSources = DefaultMaxSources
	}
	listen := cfg.Listen
	if listen == nil {
		listen = net.Listen
	}
	dial := cfg.Dial
	if dial == nil {
		dial = net.Dial
	}
	shards := cfg.Shards
	if shards <= 0 {
		shards = DefaultShards
	}
	workers := cfg.MergeWorkers
	if workers <= 0 {
		workers = DefaultMergeWorkers
		if n := runtime.GOMAXPROCS(0); n < workers {
			workers = n
		}
	}
	a := &AggregatorNode{
		agg:              core.NewAggregator(field),
		field:            field,
		timeout:          cfg.Timeout,
		reconnectWindow:  cfg.ReconnectWindow,
		idleTimeout:      cfg.IdleTimeout,
		handshakeTimeout: cfg.HandshakeTimeout,
		maxSources:       cfg.MaxSources,
		acceptNew:        cfg.AcceptNew,
		conns:            map[net.Conn]struct{}{},
		plane:            newMergePlane(workers),
		failCh:           make(chan struct{}),
		obs:              newAggObs(cfg.Metrics, cfg.TraceCapacity),
	}
	a.table = newEpochShards(shards, DefaultCommittedCap, a.obs.shardContention)
	// Recover durable state before accepting anyone: the children's hello-acks
	// must carry the restored flush frontier as their resync epoch.
	if cfg.StateDir != "" {
		if err := a.openAggState(cfg.StateDir, cfg.CheckpointEvery); err != nil {
			return nil, err
		}
	}
	ln, err := listen("tcp", cfg.ListenAddr)
	if err != nil {
		if a.state != nil {
			a.state.store.Close()
		}
		return nil, err
	}
	a.ln = ln
	for i := 0; i < cfg.NumChildren; i++ {
		conn, err := ln.Accept()
		if err != nil {
			a.closeAll()
			return nil, err
		}
		covers, fence, err := a.handshakeChild(conn)
		if err != nil {
			conn.Close()
			a.closeAll()
			return nil, fmt.Errorf("transport: child %d: %w", i, err)
		}
		a.track(conn)
		a.children = append(a.children, &childState{conn: conn, covers: covers, key: coversKey(covers), fence: fence})
		a.covers = append(a.covers, covers...)
	}
	a.covers = core.NormalizeIDs(a.covers)

	a.upstream = newRedialer(
		dialRanked(dial, cfg.ParentAddrs, cfg.ParentAddr),
		func(fence uint64) Frame {
			return Frame{Type: TypeHello, Epoch: fence, Payload: core.EncodeContributors(a.helloCovers())}
		},
		cfg.Backoff, cfg.HandshakeTimeout,
	)
	up := a.upstream
	up.onConn = func(c net.Conn) {
		// Drain the parent's result acks: leaving them unread would turn our
		// eventual close into a TCP RST that can destroy the last in-flight
		// frame before the parent reads it. Marking the connection dead on
		// read failure makes the next flush redial promptly.
		go func() {
			drainFrames(c)
			up.markDead(c)
		}()
	}
	if _, err := up.Connect(); err != nil {
		a.closeAll()
		return nil, fmt.Errorf("transport: aggregator dialing parent: %w", err)
	}
	// Announce the initial children so the querier's contributor view starts
	// populated (best-effort, like every member event).
	for _, c := range a.children {
		a.sendMember(memberJoin, c.covers)
	}
	a.obs.bind(a)
	return a, nil
}

// handshakeChild reads a child's hello and answers with a hello-ack carrying
// the resync epoch (our highest flushed epoch). The returned fence is the
// hello's epoch field: the highest epoch the child may already have handed to
// a different parent, above which alone its reports may be accepted.
func (a *AggregatorNode) handshakeChild(conn net.Conn) ([]int, uint64, error) {
	conn.SetReadDeadline(time.Now().Add(a.handshakeTimeout))
	f, err := ReadFrame(conn)
	if err != nil {
		return nil, 0, fmt.Errorf("bad hello: %w", err)
	}
	if f.Type != TypeHello {
		return nil, 0, fmt.Errorf("bad hello: frame type %d", f.Type)
	}
	conn.SetReadDeadline(time.Time{})
	// Bounded + canonical: duplicate, unsorted or out-of-range ids in a
	// hello would poison coverage matching for the child's whole lifetime.
	covers, err := core.DecodeContributorsBounded(f.Payload, a.maxSources)
	if err != nil {
		return nil, 0, err
	}
	resync := a.lastFlushed.Load()
	if err := WriteFrame(conn, Frame{Type: TypeHello, Epoch: resync}); err != nil {
		return nil, 0, fmt.Errorf("writing hello-ack: %w", err)
	}
	return covers, f.Epoch, nil
}

// Covers returns the source ids under this aggregator.
func (a *AggregatorNode) Covers() []int {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return append([]int(nil), a.covers...)
}

// helloCovers snapshots the covered union for the upstream hello closure.
func (a *AggregatorNode) helloCovers() []int {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return append([]int(nil), a.covers...)
}

// label identifies this aggregator in member events: its listen address.
func (a *AggregatorNode) label() string { return a.ln.Addr().String() }

// sendUpstreamBestEffort forwards an auxiliary (member) frame upstream
// without engaging the redial loop: when the parent link is down the frame is
// dropped — the view reconciles from later events, and blocking the event
// loop on observability traffic would stall aggregation.
func (a *AggregatorNode) sendUpstreamBestEffort(f Frame) {
	c := a.upstream.current()
	if c == nil {
		return
	}
	if err := WriteFrame(c, f); err != nil {
		a.upstream.markDead(c)
		return
	}
	a.obs.memberForwards.Inc()
}

// sendMember emits one membership event about this node's own child slots.
func (a *AggregatorNode) sendMember(kind byte, ids []int) {
	if len(ids) == 0 {
		return
	}
	a.sendUpstreamBestEffort(Frame{Type: TypeMember, Payload: encodeMember(kind, a.label(), ids)})
}

// Leave announces a graceful drain of this node's whole subtree to the
// parent: the covered sources' absence from future epochs becomes expected
// rather than a failure. Call it before Close on a planned decommission.
func (a *AggregatorNode) Leave() error {
	ids := a.helloCovers()
	if len(ids) == 0 {
		return nil
	}
	return a.upstream.Write(Frame{Type: TypeLeave, Payload: core.EncodeContributors(ids)})
}

// UpstreamReconnects counts how many times the upstream link was
// re-established.
func (a *AggregatorNode) UpstreamReconnects() int { return a.upstream.Reconnects() }

// UpstreamFailovers counts escalations to the next candidate parent address.
func (a *AggregatorNode) UpstreamFailovers() int { return a.upstream.Failovers() }

// Metrics returns the node's metrics registry.
func (a *AggregatorNode) Metrics() *obs.Registry { return a.obs.reg }

// Tracer returns the node's epoch-lifecycle tracer (report → flush spans).
func (a *AggregatorNode) Tracer() *obs.Tracer { return a.obs.tracer }

// track registers a live child connection for shutdown bookkeeping. A
// closing node refuses and closes it instead: closeAll has already swapped
// out the set it closes, so a connection tracked now would stay open, and a
// reader on it would block Run's final drain forever.
func (a *AggregatorNode) track(conn net.Conn) bool {
	a.mu.Lock()
	closed := a.closed
	if !closed {
		a.conns[conn] = struct{}{}
	}
	a.mu.Unlock()
	if closed {
		conn.Close()
	}
	return !closed
}

// forget closes and unregisters a child connection.
func (a *AggregatorNode) forget(conn net.Conn) {
	a.mu.Lock()
	delete(a.conns, conn)
	a.mu.Unlock()
	conn.Close()
}

func (a *AggregatorNode) closeAll() {
	a.mu.Lock()
	conns := make([]net.Conn, 0, len(a.conns))
	for c := range a.conns {
		conns = append(conns, c)
	}
	a.conns = map[net.Conn]struct{}{}
	a.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	if a.ln != nil {
		a.ln.Close()
	}
	if a.upstream != nil {
		a.upstream.Close()
	}
	if a.state != nil {
		// Idempotent; a concurrent append observes the closed journal as a
		// counted journal error, never a torn write.
		a.state.store.Close()
	}
}

// Close shuts the node down; Run returns after in-flight epochs drain.
func (a *AggregatorNode) Close() error {
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return nil
	}
	a.closed = true
	a.closedA.Store(true)
	a.mu.Unlock()
	a.closeAll()
	return nil
}

// Crash tears the node down the way a process kill would: no flushes, no
// commit records, no graceful drain, no final journal fsync. Recovery is
// exercised by rebuilding the node from its state directory. This is the
// restart-chaos hook; production shutdown is Close.
func (a *AggregatorNode) Crash() {
	a.mu.Lock()
	if a.crashed {
		a.mu.Unlock()
		return
	}
	a.crashed = true
	a.closed = true
	a.crashedA.Store(true)
	a.closedA.Store(true)
	st := a.state
	a.mu.Unlock()
	if st != nil {
		// Process-kill grade: issued writes survive in the OS page cache even
		// though the aggregator journal barely fsyncs (SyncEvery is effectively
		// off — contributions are recoverable from children's re-sends).
		st.store.Abandon()
	}
	a.closeAll()
}

func (a *AggregatorNode) isClosed() bool  { return a.closedA.Load() }
func (a *AggregatorNode) isCrashed() bool { return a.crashedA.Load() }

// setLastFlushed records the highest epoch forwarded upstream; returning
// children learn it through the hello-ack and skip settled epochs. Lock-free
// CAS max: merge workers flush out of epoch order.
func (a *AggregatorNode) setLastFlushed(t uint64) {
	for {
		cur := a.lastFlushed.Load()
		if t <= cur {
			a.obs.lastFlushedEpoch.Set(int64(cur))
			return
		}
		if a.lastFlushed.CompareAndSwap(cur, t) {
			a.obs.lastFlushedEpoch.Set(int64(t))
			return
		}
	}
}

// aggEvent is one occurrence on the aggregator's slow-path event loop. The
// report hot path no longer travels here: child readers ingest PSR and
// failure frames directly into the sharded epoch table.
type aggEvent struct {
	kind    byte // 'd' child down, 'h' hello (attach or coverage update), 'l' leave, 'm' member relay
	child   int  // slot index; -1 for accept-path hellos (no slot yet)
	gen     int
	conn    net.Conn
	covers  []int  // 'h': the hello's coverage; 'l': the departing ids
	fence   uint64 // 'h': the hello's fence epoch
	payload []byte // 'm': the relayed member payload (copied)
}

// recomputeRegular refreshes the allRegular cache: whether every slot is
// expected for every epoch — no slot departed, coverage-stolen empty, or
// fenced. True in the steady state; recomputed (O(children)) only on the rare
// membership events that can change it: attach, steal, leave. Caller holds
// a.mu's write lock.
func (a *AggregatorNode) recomputeRegular() {
	a.allRegular = true
	for _, c := range a.children {
		if c.departed || len(c.covers) == 0 || c.fence > 0 {
			a.allRegular = false
			return
		}
	}
}

// ingestOutcome tells ingestReport what to do once every lock is released —
// submitting to the merge plane or re-scanning completeness while holding a
// lock could deadlock against the workers.
type ingestOutcome struct {
	retry  bool // generation moved mid-insert: rolled back, try again
	submit bool // slot claimed complete: hand it to the merge plane
	settle bool // irregular membership: re-check completeness the slow way
}

// ingestReport is the child readers' hot path: accept one report into the
// sharded epoch table without touching the global lock beyond a brief read
// hold. Concurrent readers for different epochs contend only on their
// stripes. The rare generation-fence retry loop falls back to the write lock
// after a few spins, where membership cannot move.
func (a *AggregatorNode) ingestReport(rep report) {
	out := a.tryIngest(&rep, false)
	for i := 0; out.retry; i++ {
		a.obs.ingestRetries.Inc()
		if i >= 3 {
			a.mu.Lock()
			out = a.tryIngest(&rep, true)
			a.mu.Unlock()
			break
		}
		out = a.tryIngest(&rep, false)
	}
	t := uint64(rep.epoch)
	if out.submit {
		a.plane.submit(t)
	} else if out.settle {
		a.settleIrregular(t)
	}
}

// tryIngest performs one optimistic acceptance attempt. With locked set the
// caller holds a.mu's write lock (the churn fallback) and the generation
// check is skipped — nothing can move.
func (a *AggregatorNode) tryIngest(rep *report, locked bool) ingestOutcome {
	g1 := a.memberGen.Load()
	if !locked {
		a.mu.RLock()
	}
	if a.closed {
		if !locked {
			a.mu.RUnlock()
		}
		return ingestOutcome{}
	}
	slot := a.children[rep.child]
	fence, departed := slot.fence, slot.departed
	covers := slot.covers // replaced wholesale, never mutated: safe past RUnlock
	nch := len(a.children)
	allReg := a.allRegular
	if !locked {
		a.mu.RUnlock()
	}
	t := uint64(rep.epoch)
	if t <= fence {
		// The child's fence says this epoch may have travelled via a previous
		// parent — contributing it here could double-count.
		a.obs.fenceDrops.Inc()
		return ingestOutcome{}
	}
	if departed || len(covers) == 0 {
		// A zombie slot whose coverage was wholly stolen or drained: nothing
		// it reports is attributable any more.
		a.obs.staleDrops.Inc()
		return ingestOutcome{}
	}
	// Snapshot the slot's coverage at acceptance: flush-time attribution must
	// describe what this PSR actually contains, even if the slot's claim
	// changes before the epoch settles.
	rep.covers = covers

	sh := a.table.shard(t)
	a.table.lock(sh)
	if sh.flushed.has(t) {
		sh.mu.Unlock()
		a.obs.lateDrops.Inc() // late report for an epoch already forwarded
		return ingestOutcome{}
	}
	sl := sh.slots[t]
	created := sl == nil
	if created {
		sl = &epochSlot{epoch: rep.epoch, reports: make(map[int]report, nch),
			deadline: time.Now().Add(a.timeout), gen: g1}
		sh.slots[t] = sl
		a.table.open.Add(1)
		a.obs.tracer.Begin(t)
		a.obs.tracer.Mark(t, obs.StageReport)
	}
	prev, existed := sl.reports[rep.child]
	sl.reports[rep.child] = *rep
	folded := false
	switch {
	case existed:
		// Overwriting dedups a reconnected child re-sending an epoch; the
		// lazy partial no longer matches the map, so the flush rebuilds.
		sl.dirty = true
	case rep.psr != nil:
		sl.acc.Add(rep.psr.C)
		sl.accN++
		folded = true
	}
	if !locked && a.memberGen.Load() != g1 {
		// The epoch-generation fence tripped: a lifecycle event (attach,
		// steal, leave) ran between the child-state snapshot above and this
		// insert, so the snapshot may be stale. Roll the insert back under the
		// still-held shard lock and retry against the fresh membership —
		// an acceptance never interleaves half-way through a membership event.
		if existed {
			sl.reports[rep.child] = prev
		} else {
			delete(sl.reports, rep.child)
			if folded {
				sl.dirty = true // acc holds a PSR the map no longer does
			}
		}
		if created && len(sl.reports) == 0 {
			delete(sh.slots, t)
			a.table.open.Add(-1)
		}
		sh.mu.Unlock()
		return ingestOutcome{retry: true}
	}
	var out ingestOutcome
	if allReg {
		// Steady-state completeness fast path: a count compare, valid because
		// the generation held from the allRegular read through this claim.
		if !sl.claimed && len(sl.reports) == nch {
			sl.claimed = true
			out.submit = true
		}
	} else {
		out.settle = true
	}
	sh.mu.Unlock()

	a.obs.reports.Inc()
	a.journalContribution(*rep, covers)
	return out
}

// childReadBuffer sizes each child link's read buffer: about ten PSR frames,
// where bufio's 4 KiB default held some eighty on every link.
const childReadBuffer = 512

// Run merges epochs until the node is closed or every child disconnects and
// stays away for ReconnectWindow (AcceptNew nodes wait indefinitely — a
// standby with no children yet is healthy, not done). For each epoch it waits
// up to the configured timeout for all expected children; children that miss
// the deadline have their whole subtree reported as failed. When a disconnect
// makes an epoch's outstanding reports impossible (every missing child is
// down) the epoch is flushed immediately instead of waiting out the deadline.
func (a *AggregatorNode) Run() error {
	ch := make(chan aggEvent, len(a.children)*2+8)
	var wg sync.WaitGroup

	readChild := func(child, gen int, conn net.Conn) {
		defer wg.Done()
		defer a.forget(conn)
		// Buffered: one read drains every frame the socket already holds,
		// where ReadFrameInto on the bare conn reads each header and body
		// separately. A PSR frame is about 50 B, so childReadBuffer holds
		// several; bufio reads a larger frame body straight into the frame
		// buffer. The hello was read unbuffered before this wrap, so no
		// byte is stranded. Nothing below retains a payload — the decoders
		// copy what they keep — so the recycled frame buffer is safe.
		fr := NewFrameReader(bufio.NewReaderSize(conn, childReadBuffer))
		for {
			if a.idleTimeout > 0 {
				conn.SetReadDeadline(time.Now().Add(a.idleTimeout))
			}
			f, err := fr.Read()
			if err != nil {
				ch <- aggEvent{kind: 'd', child: child, gen: gen}
				return
			}
			switch f.Type {
			case TypePSR:
				psr, failed, err := decodeReport(f.Payload, a.field, a.maxSources)
				if err != nil {
					// A child speaking garbage (corruption, torn writes) is
					// cut off; it recovers by redialing.
					ch <- aggEvent{kind: 'd', child: child, gen: gen}
					return
				}
				// Reports bypass the event loop: straight into the sharded
				// epoch table, so concurrent children never serialise here.
				a.ingestReport(report{child: child, epoch: prf.Epoch(f.Epoch), psr: &psr, failed: failed})
			case TypeFailure:
				failed, err := core.DecodeContributorsBounded(f.Payload, a.maxSources)
				if err != nil {
					ch <- aggEvent{kind: 'd', child: child, gen: gen}
					return
				}
				a.ingestReport(report{child: child, epoch: prf.Epoch(f.Epoch), failed: failed})
			case TypeHello:
				// A mid-stream hello is a coverage update from a child whose
				// own subtree changed (a standby that gained children).
				covers, err := core.DecodeContributorsBounded(f.Payload, a.maxSources)
				if err != nil {
					ch <- aggEvent{kind: 'd', child: child, gen: gen}
					return
				}
				ch <- aggEvent{kind: 'h', child: child, gen: gen, conn: conn, covers: covers, fence: f.Epoch}
			case TypeLeave:
				ids, err := core.DecodeContributorsBounded(f.Payload, a.maxSources)
				if err != nil {
					ch <- aggEvent{kind: 'd', child: child, gen: gen}
					return
				}
				ch <- aggEvent{kind: 'l', child: child, gen: gen, covers: ids}
			case TypeMember:
				// Relay a descendant's membership event towards the querier.
				ch <- aggEvent{kind: 'm', child: child, gen: gen,
					payload: append([]byte(nil), f.Payload...)}
			default:
				// Result frames are ignored mid-stream.
			}
		}
	}

	// Accept loop: children that lost their link redial, re-handshake and are
	// matched back to their slot by the coverage set in their hello; unknown
	// coverage sets attach as new slots when AcceptNew allows (failover
	// re-homing), and are cut otherwise.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := a.ln.Accept()
			if err != nil {
				return // listener closed: shutting down
			}
			if !a.track(conn) {
				continue // closing: the listener is about to fail Accept
			}
			wg.Add(1)
			go func(conn net.Conn) {
				defer wg.Done()
				covers, fence, err := a.handshakeChild(conn)
				if err != nil {
					a.forget(conn)
					return
				}
				ch <- aggEvent{kind: 'h', child: -1, conn: conn, covers: covers, fence: fence}
			}(conn)
		}
	}()

	// Fold journal-replayed contributions of still-open epochs into the epoch
	// table, matched to child slots by coverage key (slot indices are not
	// stable across restarts; coverage sets are). Single-threaded: neither the
	// readers nor the merge plane have started.
	if a.state != nil && len(a.state.recovered) > 0 {
		slotByKey := make(map[string]int, len(a.children))
		for idx, c := range a.children {
			slotByKey[c.key] = idx
		}
		for t, byKey := range a.state.recovered {
			sl := &epochSlot{epoch: t, reports: map[int]report{}, deadline: time.Now().Add(a.timeout)}
			for key, rep := range byKey {
				if idx, ok := slotByKey[key]; ok {
					rep.child = idx
					sl.reports[idx] = rep
					if rep.psr != nil {
						sl.acc.Add(rep.psr.C)
						sl.accN++
					}
				}
			}
			if len(sl.reports) > 0 {
				sh := a.table.shard(uint64(t))
				sh.slots[uint64(t)] = sl
				a.table.open.Add(1)
			}
		}
		a.state.recovered = nil
	}

	a.mu.Lock()
	for _, c := range a.children {
		c.gen = 1
		c.alive = true
	}
	a.recomputeRegular()
	a.mu.Unlock()
	living := len(a.children)
	lastAllGone := time.Now()
	a.plane.start(a)
	for idx, c := range a.children {
		wg.Add(1)
		go readChild(idx, 1, c.conn)
	}
	a.obs.childrenGauge.Set(int64(living))

	// orphanClaims claims every open epoch whose outstanding reports can no
	// longer arrive because each missing expected child is down. Caller holds
	// a.mu's write lock; the claimed epochs are submitted after it releases.
	orphanClaims := func() []uint64 {
		return a.table.claimWhere(func(t uint64, sl *epochSlot) bool {
			for idx, c := range a.children {
				if !expectsChild(c, t) {
					continue
				}
				if _, ok := sl.reports[idx]; !ok && c.alive {
					return false
				}
			}
			return true
		})
	}

	// settledClaims claims every open epoch that became complete through a
	// membership change (a leave, or a fence excusing a slot) rather than a
	// report arrival. Caller holds a.mu's write lock.
	settledClaims := func() []uint64 {
		return a.table.claimWhere(func(t uint64, sl *epochSlot) bool {
			if a.allRegular {
				return len(sl.reports) == len(a.children)
			}
			for idx, c := range a.children {
				if !expectsChild(c, t) {
					continue
				}
				if _, ok := sl.reports[idx]; !ok {
					return false
				}
			}
			return true
		})
	}

	// submitAll hands claimed epochs to the merge plane. Callers must have
	// released every lock: submit blocks when the plane is saturated, and the
	// workers need the read lock to make progress.
	submitAll := func(ts []uint64) {
		for _, t := range ts {
			a.plane.submit(t)
		}
	}

	// attach wires a connection into slot idx (stealing overlapping coverage
	// from stale slots for new or updated coverage sets) and refreshes the
	// upstream coverage claim when the covered union changes. Membership
	// mutation runs under the write lock with the generation bumped; the
	// upstream sends happen after release so a slow parent link can never
	// stall the ingest plane.
	attach := func(ev aggEvent) {
		key := coversKey(ev.covers)
		a.mu.Lock()
		if a.closed {
			// Start no reader the shutdown drain would wait on. An accepted
			// connection is refused here; a live one closeAll has closed.
			a.mu.Unlock()
			if ev.child < 0 {
				a.forget(ev.conn)
			}
			return
		}
		idx := ev.child
		if idx < 0 {
			// Accept-path hello: match a returning child to its slot by its
			// coverage set.
			for i, c := range a.children {
				if c.key == key {
					idx = i
					break
				}
			}
		}
		coverageChanged := false
		// A hello from the accept path ((re)attaching a connection) is a join;
		// a mid-stream hello on a live connection is a coverage change, which
		// the stolen-ids re-home event below already describes — emitting a
		// join for it would mislabel an interior subtree as the sources'
		// immediate parent in the querier's view.
		attached := ev.child < 0
		var slot *childState
		switch {
		case idx >= 0 && ev.child >= 0:
			// Mid-stream coverage update on a live connection.
			slot = a.children[idx]
			if ev.gen != slot.gen {
				a.mu.Unlock()
				return // a superseded connection's leftover hello
			}
			coverageChanged = slot.key != key
			if coverageChanged {
				slot.covers = append([]int(nil), ev.covers...)
				slot.key = key
			}
		case idx >= 0:
			// A returning child re-attaching to its existing slot.
			slot = a.children[idx]
			a.obs.childReconnects.Inc()
			slot.gen++
			if old := slot.conn; old != nil && old != ev.conn {
				old.Close() // superseded: the child's new dial wins
			}
			slot.conn = ev.conn
			wg.Add(1)
			go readChild(idx, slot.gen, ev.conn)
		default:
			// Unknown coverage set: a re-homing child, when allowed.
			if !a.acceptNew {
				a.mu.Unlock()
				a.forget(ev.conn) // not one of ours
				return
			}
			slot = &childState{
				covers: append([]int(nil), ev.covers...),
				key:    key, conn: ev.conn, gen: 1,
			}
			a.children = append(a.children, slot)
			idx = len(a.children) - 1
			coverageChanged = true
			wg.Add(1)
			go readChild(idx, 1, ev.conn)
		}
		if ev.fence > slot.fence {
			slot.fence = ev.fence
		}
		slot.departed = false
		if !slot.alive {
			slot.alive = true
			living++
		}
		var stolen, union []int
		unionChanged := false
		if coverageChanged {
			// Steal the (re)claimed ids from every stale slot: each source id
			// is attributed to exactly one slot at any time, and the newest
			// hello wins. Covers are replaced wholesale, never mutated, so
			// pending reports keep their acceptance-time snapshots.
			for i, c := range a.children {
				if i == idx {
					continue
				}
				overlap := idsIntersect(c.covers, slot.covers)
				if len(overlap) == 0 {
					continue
				}
				stolen = append(stolen, overlap...)
				c.covers = idsMinus(c.covers, overlap)
				c.key = coversKey(c.covers)
				if len(c.covers) == 0 {
					// Nothing left to wait for or attribute; the slot stays
					// (slot indices are stable) but no longer counts.
					c.departed = true
				}
			}
			// Refresh the covered union and announce growth upstream so the
			// parent (re)attributes this subtree before its next flush.
			for _, c := range a.children {
				union = append(union, c.covers...)
			}
			union = core.NormalizeIDs(union)
			unionChanged = coversKey(union) != coversKey(a.covers)
			if unionChanged {
				a.covers = union
			}
		}
		a.memberGen.Add(1)
		a.recomputeRegular()
		liveSlots := 0
		for _, c := range a.children {
			if c.alive && !c.departed {
				liveSlots++
			}
		}
		joinCovers := slot.covers // replaced wholesale: header copy safe past unlock
		a.mu.Unlock()

		a.obs.childrenGauge.Set(int64(liveSlots))
		if len(stolen) > 0 {
			a.obs.steals.Inc()
			a.sendMember(memberRehome, core.NormalizeIDs(stolen))
		}
		if unionChanged {
			a.sendUpstreamBestEffort(Frame{Type: TypeHello, Epoch: a.upstream.Fence(),
				Payload: core.EncodeContributors(union)})
		}
		if attached {
			a.sendMember(memberJoin, joinCovers)
		}
	}

	// The tick drives both deadline flushes and the exit check, so it must be
	// fine-grained against the shorter of the two horizons.
	tick := a.timeout
	if a.reconnectWindow < tick {
		tick = a.reconnectWindow
	}
	ticker := time.NewTicker(tick / 4)
	defer ticker.Stop()
	defer func() {
		// Close connections first so blocked readers unwind, then drain the
		// channel while waiting for them — a reader stuck on a full channel
		// would otherwise deadlock the shutdown. Only then stop the merge
		// plane: with the readers gone nothing submits any more, and workers
		// flushing against the closed node fail fast (fail() drops the error).
		a.Close()
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
	drained:
		for {
			select {
			case <-ch:
			case <-done:
				break drained
			}
		}
		a.plane.stop()
	}()

	// Recovered epochs that were fully reported before the crash flush
	// immediately; partially reported ones wait out the usual deadline for
	// their missing children to re-send.
	a.mu.Lock()
	recoveredReady := settledClaims()
	a.mu.Unlock()
	submitAll(recoveredReady)

	for {
		select {
		case <-a.failCh:
			return a.runErr
		case ev := <-ch:
			switch ev.kind {
			case 'h':
				attach(ev)
			case 'd':
				a.mu.Lock()
				slot := a.children[ev.child]
				if ev.gen != slot.gen {
					a.mu.Unlock()
					continue // a superseded connection unwinding
				}
				a.obs.childDisconnects.Inc()
				slot.conn = nil
				var orphanIDs []int
				if slot.alive {
					slot.alive = false
					living--
					if living == 0 {
						lastAllGone = time.Now()
					}
					if !slot.departed && len(slot.covers) > 0 {
						orphanIDs = slot.covers
					}
				}
				// A down child completes no epoch: claim the ones whose every
				// remaining expected reporter is down too.
				ts := orphanClaims()
				a.mu.Unlock()
				a.sendMember(memberOrphan, orphanIDs)
				submitAll(ts)
			case 'l':
				// A graceful leave covering the slot's whole remaining coverage
				// drains the slot: its absence from future epochs is expected,
				// not a failure. A partial leave (some ids of a subtree drained)
				// just shrinks the coverage claim.
				a.mu.Lock()
				slot := a.children[ev.child]
				if ev.gen != slot.gen {
					a.mu.Unlock()
					continue
				}
				left := idsIntersect(slot.covers, ev.covers)
				if len(left) == 0 {
					a.mu.Unlock()
					continue
				}
				slot.covers = idsMinus(slot.covers, left)
				slot.key = coversKey(slot.covers)
				fullLeave := len(slot.covers) == 0
				if fullLeave {
					slot.departed = true
					// Drop the leaver's in-flight reports: every flush written
					// after the leave relay below must carry neither the
					// leaver's data nor a claim about it, or the querier —
					// which excludes departed sources from the contributor
					// set — would reject the epoch. An epoch straddling the
					// boundary degrades to partial, never to a wrong SUM.
					a.table.sweepChild(ev.child)
				}
				a.covers = idsMinus(a.covers, left)
				a.memberGen.Add(1)
				a.recomputeRegular()
				a.mu.Unlock()
				if fullLeave {
					// Barrier: a merge worker may already have extracted a flush
					// still carrying the leaver's data. Wait for every in-flight
					// flush (upstream write included) before relaying the Leave,
					// so the querier never sees post-leave frames naming the
					// leaver. Partial leaves keep the claim, so they need none.
					a.plane.drain()
				}
				a.sendMember(memberLeave, left)
				// Tell the parent too: its covered union must shrink before its
				// next flush, or every future epoch reads as partial.
				a.sendUpstreamBestEffort(Frame{Type: TypeLeave, Payload: core.EncodeContributors(left)})
				a.mu.Lock()
				ts := settledClaims()
				a.mu.Unlock()
				submitAll(ts)
			case 'm':
				a.mu.RLock()
				stale := ev.gen != a.children[ev.child].gen
				a.mu.RUnlock()
				if stale {
					continue
				}
				a.sendUpstreamBestEffort(Frame{Type: TypeMember, Payload: ev.payload})
			}
		case <-ticker.C:
			a.claimDeadlines(time.Now())
			if a.isClosed() {
				return nil
			}
			// A standby (AcceptNew) stays up with zero children indefinitely:
			// its whole purpose is to be there when orphans arrive.
			if living == 0 && a.table.open.Load() == 0 && !a.acceptNew &&
				time.Since(lastAllGone) >= a.reconnectWindow {
				// Let in-flight flushes finish their upstream writes before the
				// deferred shutdown severs the link.
				a.plane.drain()
				return nil
			}
		}
	}
}

// EpochResult is a querier-side evaluation outcome delivered on the Results
// channel.
type EpochResult struct {
	Epoch        prf.Epoch
	Sum          uint64
	Contributors int
	Coverage     float64 // contributing fraction of the deployment (recovered epochs)
	Partial      bool    // some sources did not contribute
	Recovered    bool    // served via forensic localization and re-query
	Failed       []int   // sorted non-contributor ids
	Excluded     []int   // sorted ids excluded by quarantine/localization
	Probes       int     // localization probes spent on this epoch
	Err          error
}

// Health summarises the querier's view of the deployment over all evaluated
// epochs — the per-epoch degradation contract made observable. It is a thin
// read-side view over the node's metrics registry: every field is backed by
// an atomic counter, so the snapshot is coherent without a long-held lock and
// counts are uint64 end-to-end (no int truncation, no 32-bit wrap).
type Health struct {
	Epochs         uint64         // epochs evaluated and verified (full or partial)
	Full           uint64         // epochs with every source contributing
	Partial        uint64         // epochs verified over a strict subset
	Empty          uint64         // epochs in which no source contributed
	Rejected       uint64         // epochs failing integrity or decode
	Recovered      uint64         // rejected epochs served after forensic recovery
	RootReconnects uint64         // times the root aggregator re-attached
	Missed         map[int]uint64 // per-source count of epochs it missed

	// Tree snapshots the live contributor view reconciled from membership
	// events: who is attached where, who is orphaned, how many re-parents.
	Tree TreeStats

	// KeySchedule snapshots the evaluation engine's counters: derivations,
	// cache hits/misses, prefetch wins and cumulative eval latency.
	KeySchedule core.ScheduleStats

	// Forensics snapshots the recovery counters (zero when no probe backend
	// is installed — see EnableForensics).
	Forensics ForensicsStats

	// Durability snapshots the crash-recovery bookkeeping (zero when the
	// node runs without a state directory).
	Durability DurabilityStats
}

// QuerierNode terminates the tree: it accepts the root aggregator's
// connection (and re-accepts it after a failure), evaluates every epoch and
// emits EpochResults. A partial epoch yields the exact verified partial SUM
// together with the sorted non-contributor list rather than an error.
type QuerierNode struct {
	q       *core.Querier
	sched   *core.Schedule
	ln      net.Listener
	Results chan EpochResult

	mu        sync.Mutex
	lastEval  uint64
	rootFence uint64 // max fence epoch declared by any root hello
	obs       *querierObs
	tree      *treeView                    // live contributor view from member events
	missed    *boundedMap[int, uint64]     // per-source missed-epoch counters
	committed *boundedMap[uint64, ackInfo] // settled epochs → remembered ack
	roots     int
	rootConn  net.Conn // live root connection, for crash teardown
	forensics *forensics
	state     *querierState // durable crash-recovery state; nil without a StateDir
	lnClosed  bool
	crashed   bool
}

// QuerierConfig configures NewQuerierNodeConfig.
type QuerierConfig struct {
	ListenAddr string
	// Schedule tunes the evaluation engine (worker count, cache, prefetch).
	Schedule core.ScheduleConfig
	// StateDir, when set, makes the node durable: every epoch commit is
	// journaled (fsynced before the result is emitted or acked) and recovered
	// on restart, so a crashed querier resumes at its exact evaluation
	// frontier and never re-answers a committed epoch.
	StateDir string
	// CheckpointEvery is how many committed epochs elapse between snapshot
	// checkpoints (default DefaultCheckpointEvery).
	CheckpointEvery int
	// MissedCap bounds the per-source missed-epoch counters in Health
	// (default DefaultMissedCap).
	MissedCap int
	// CommittedCap bounds the committed-epoch dedup window (default
	// DefaultCommittedCap).
	CommittedCap int
	// Metrics is the registry the node's counters expose through; nil gives
	// the node a private registry (reachable via Metrics()).
	Metrics *obs.Registry
	// TraceCapacity sizes the epoch-lifecycle trace ring (default
	// obs.DefaultTraceCapacity).
	TraceCapacity int
}

// NewQuerierNode starts listening for the root aggregator. Evaluation runs
// through a key-schedule engine sized to the machine: parallel per-source
// derivations, an EpochState LRU (duplicate sinks and retransmits hit a
// constant-time path) and one-epoch-ahead prefetch.
func NewQuerierNode(listenAddr string, q *core.Querier) (*QuerierNode, error) {
	return NewQuerierNodeWith(listenAddr, q, core.ScheduleConfig{Prefetch: true})
}

// NewQuerierNodeWith is NewQuerierNode with an explicit schedule
// configuration (worker count, cache size, prefetch).
func NewQuerierNodeWith(listenAddr string, q *core.Querier, cfg core.ScheduleConfig) (*QuerierNode, error) {
	return NewQuerierNodeConfig(QuerierConfig{ListenAddr: listenAddr, Schedule: cfg}, q)
}

// NewQuerierNodeConfig builds a querier node from a full configuration,
// recovering any durable state in cfg.StateDir before it starts listening.
func NewQuerierNodeConfig(cfg QuerierConfig, q *core.Querier) (*QuerierNode, error) {
	if cfg.MissedCap <= 0 {
		cfg.MissedCap = DefaultMissedCap
	}
	if cfg.CommittedCap <= 0 {
		cfg.CommittedCap = DefaultCommittedCap
	}
	qn := &QuerierNode{
		q: q, sched: core.NewSchedule(q, cfg.Schedule),
		Results:   make(chan EpochResult, 64),
		obs:       newQuerierObs(cfg.Metrics, cfg.TraceCapacity),
		missed:    newBoundedMap[int, uint64](cfg.MissedCap),
		committed: newBoundedMap[uint64, ackInfo](cfg.CommittedCap),
	}
	qn.tree = newTreeView(qn.obs.reg)
	// Recover before listening: the root's hello-ack must carry the restored
	// evaluation frontier as its resync epoch. Recovery replays counts into
	// the obs counters, so the bundle must exist first.
	if cfg.StateDir != "" {
		if err := qn.openQuerierState(cfg.StateDir, cfg.CheckpointEvery); err != nil {
			return nil, err
		}
	}
	ln, err := net.Listen("tcp", cfg.ListenAddr)
	if err != nil {
		qn.closeState()
		return nil, err
	}
	qn.ln = ln
	qn.obs.bind(qn)
	return qn, nil
}

// Addr returns the address the querier listens on (for wiring up the root).
func (qn *QuerierNode) Addr() string { return qn.ln.Addr().String() }

// Close stops the listener and syncs any durable state. Idempotent: extra
// calls (a signal handler racing a deferred Close) are no-ops.
func (qn *QuerierNode) Close() error {
	qn.mu.Lock()
	if qn.lnClosed {
		qn.mu.Unlock()
		return nil
	}
	qn.lnClosed = true
	qn.mu.Unlock()
	err := qn.ln.Close()
	qn.closeState()
	return err
}

// Crash tears the node down the way a process kill would: no further commit
// records, no final journal fsync. Recovery is exercised by rebuilding the
// node from its state directory. This is the restart-chaos hook; production
// shutdown is Close.
func (qn *QuerierNode) Crash() {
	qn.mu.Lock()
	if qn.crashed {
		qn.mu.Unlock()
		return
	}
	qn.crashed = true
	qn.lnClosed = true
	st := qn.state
	root := qn.rootConn
	qn.mu.Unlock()
	if st != nil {
		// Every commit record was fsynced before its result left the node
		// (SyncEvery is 1), so abandoning the journal loses no answered epoch.
		st.store.Abandon()
	}
	qn.ln.Close()
	if root != nil {
		// A dead process holds no sockets: sever the root link so in-flight
		// frames are lost exactly as a kill would lose them.
		root.Close()
	}
}

// Health returns a snapshot of the per-epoch health summary. It is a view
// over the metrics registry: counters read lock-free from their atomics, and
// qn.mu is held only for the missed-source map — never across the schedule,
// forensics or durability snapshots, which take their own locks.
func (qn *QuerierNode) Health() Health {
	h := Health{
		Epochs:         qn.obs.served.Value(),
		Full:           qn.obs.full.Value(),
		Partial:        qn.obs.partial.Value(),
		Empty:          qn.obs.empty.Value(),
		Rejected:       qn.obs.rejected.Value(),
		Recovered:      qn.obs.recovered.Value(),
		RootReconnects: qn.obs.rootReconnects.Value(),
	}
	qn.mu.Lock()
	h.Missed = make(map[int]uint64, qn.missed.len())
	qn.missed.each(func(id int, n uint64) {
		h.Missed[id] = n
	})
	qn.mu.Unlock()
	h.Durability = qn.DurabilityStats()
	h.KeySchedule = qn.sched.Stats()
	h.Forensics = qn.ForensicsStats()
	h.Tree = qn.tree.stats()
	return h
}

// Metrics returns the node's metrics registry — the scrape target for the
// /metrics endpoint and the registry shared collectors bind into.
func (qn *QuerierNode) Metrics() *obs.Registry { return qn.obs.reg }

// Tracer returns the node's epoch-lifecycle tracer. Each evaluated epoch is
// one span: reports-received → verify/reject → forensics → commit.
func (qn *QuerierNode) Tracer() *obs.Tracer { return qn.obs.tracer }

// ScheduleStats exposes the evaluation engine's counters directly.
func (qn *QuerierNode) ScheduleStats() core.ScheduleStats { return qn.sched.Stats() }

// noteRootFence raises the fence epoch carried by a root hello: the highest
// epoch the root's subtree may already have handed to a previous link. The
// fence only ever rises, so a zombie reconnecting with a stale (lower) fence
// cannot reopen epochs a newer root already disclaimed.
func (qn *QuerierNode) noteRootFence(fence uint64) {
	qn.mu.Lock()
	if fence > qn.rootFence {
		qn.rootFence = fence
	}
	qn.mu.Unlock()
}

// fencedEpoch reports whether an uncommitted data frame for epoch t must be
// dropped because t lies at or below the declared root fence.
func (qn *QuerierNode) fencedEpoch(t uint64) bool {
	qn.mu.Lock()
	defer qn.mu.Unlock()
	return qn.rootFence > 0 && t <= qn.rootFence
}

// withDeparted widens a per-epoch failed list with the gracefully departed
// sources: after a drain the tree's flushes neither carry the leaver's data
// nor name it as failed, so verification must subtract it from the expected
// contributor set itself or reject every post-leave epoch.
func (qn *QuerierNode) withDeparted(failed []int) []int {
	gone := qn.tree.departedIDs()
	if len(gone) == 0 {
		return failed
	}
	return core.NormalizeIDs(append(append([]int{}, failed...), gone...))
}

// Run accepts root connections and evaluates epochs until the listener is
// closed, then closes the Results channel. A root that disconnects may
// redial, re-handshake and resume.
func (qn *QuerierNode) Run() error {
	defer close(qn.Results)
	defer qn.closeState()
	for {
		conn, err := qn.ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		qn.mu.Lock()
		if qn.crashed {
			qn.mu.Unlock()
			conn.Close()
			return nil
		}
		qn.roots++
		if qn.roots > 1 {
			qn.obs.rootReconnects.Inc()
		}
		qn.rootConn = conn
		qn.mu.Unlock()
		err = qn.serve(conn)
		qn.mu.Lock()
		if qn.rootConn == conn {
			qn.rootConn = nil
		}
		qn.mu.Unlock()
		conn.Close()
		if err != nil {
			return err
		}
	}
}

// serve handles one root connection until it closes. Protocol violations are
// fatal (misconfigured deployment); IO errors just end the connection and the
// root redials.
func (qn *QuerierNode) serve(conn net.Conn) error {
	f, err := ReadFrame(conn)
	if err != nil {
		return nil // root vanished before the hello; await its redial
	}
	if f.Type != TypeHello {
		return fmt.Errorf("transport: querier: unexpected frame type %d in hello", f.Type)
	}
	covers, err := core.DecodeContributorsBounded(f.Payload, qn.q.Params().N())
	if err != nil {
		return err
	}
	// Canonical ids in [0, N) with length N can only be the full set. After
	// graceful leaves the root legitimately covers less: every id missing from
	// its claim must be one the membership view saw depart.
	if len(covers) != qn.q.Params().N() {
		for _, id := range core.Subtract(qn.q.Params().N(), covers) {
			if !qn.tree.departed(id) {
				return fmt.Errorf("transport: root covers %d sources, deployment has %d (source %d unaccounted)",
					len(covers), qn.q.Params().N(), id)
			}
		}
	}
	qn.noteRootFence(f.Epoch)
	qn.mu.Lock()
	resync := qn.lastEval
	qn.mu.Unlock()
	if err := WriteFrame(conn, Frame{Type: TypeHello, Epoch: resync}); err != nil {
		return nil
	}

	field := qn.q.Params().Field()
	ackable := true // stop acking (but keep evaluating) once the root is gone
	// The root link reads like a child link (see AggregatorNode.Run): the
	// hello above was read unbuffered, the stream is buffered from here, and
	// every handler below copies what it keeps out of the recycled payload.
	fr := NewFrameReader(bufio.NewReader(conn))
	for {
		f, err := fr.Read()
		if err != nil {
			return nil // root closed or crashed: await its redial
		}
		t := prf.Epoch(f.Epoch)
		// A frame for an epoch already committed — the root re-sending after
		// a crash on either side — is answered from the remembered ack, never
		// re-evaluated or re-emitted.
		if ack, committed := qn.committedAck(t); committed {
			if f.Type == TypePSR && ackable {
				reply := EncodeResult(ack.sum, ack.ok)
				if err := WriteFrame(conn, Frame{Type: TypeResult, Epoch: f.Epoch, Payload: reply}); err != nil {
					ackable = false
				}
			}
			continue
		}
		// Uncommitted data frames at or below the fence are suspect: a newer
		// root declared those epochs may have travelled via a previous link
		// (re-parenting), so a zombie's late flush is dropped, never evaluated.
		if (f.Type == TypePSR || f.Type == TypeFailure) && qn.fencedEpoch(f.Epoch) {
			qn.obs.fenceRejects.Inc()
			continue
		}
		switch f.Type {
		case TypeHello:
			// A mid-stream hello refreshes the root's coverage claim (a subtree
			// re-homed below it) and may raise the fence.
			qn.noteRootFence(f.Epoch)
		case TypeMember:
			if ev, err := decodeMember(f.Payload, qn.q.Params().N()); err == nil {
				qn.tree.apply(ev)
			}
		case TypeLeave:
			if ids, err := core.DecodeContributorsBounded(f.Payload, qn.q.Params().N()); err == nil {
				qn.tree.apply(memberEvent{kind: memberLeave, label: conn.RemoteAddr().String(), ids: ids})
			}
		case TypePSR:
			qn.obs.tracer.Begin(f.Epoch)
			qn.obs.tracer.Mark(f.Epoch, obs.StageReport)
			psr, failed, err := decodeReport(f.Payload, field, qn.q.Params().N())
			if err != nil {
				qn.record(EpochResult{Epoch: t, Err: err})
				continue
			}
			failed = qn.withDeparted(failed)
			var contributors []int // nil = all sources, the schedule's fast path
			if len(failed) > 0 {
				contributors = core.Subtract(qn.q.Params().N(), failed)
			}
			start := time.Now()
			res, evalErr := qn.sched.Evaluate(t, psr, contributors)
			qn.obs.evalSeconds.Observe(time.Since(start).Seconds())
			out := EpochResult{Epoch: t, Failed: failed, Partial: len(failed) > 0, Err: evalErr}
			switch {
			case evalErr == nil:
				qn.obs.tracer.Mark(f.Epoch, obs.StageVerify)
				out.Sum = res.Sum
				out.Contributors = res.N
				out.Coverage = float64(res.N) / float64(qn.q.Params().N())
				qn.tickForensics()
			case qn.forensics != nil && integrityRejection(evalErr):
				qn.obs.tracer.Mark(f.Epoch, obs.StageReject)
				qn.obs.tracer.Mark(f.Epoch, obs.StageForensics)
				out = qn.recover(t, failed, out)
			default:
				qn.obs.tracer.Mark(f.Epoch, obs.StageReject)
			}
			qn.record(out)
			if ackable {
				ack := EncodeResult(out.Sum, out.Err == nil)
				if err := WriteFrame(conn, Frame{Type: TypeResult, Epoch: f.Epoch, Payload: ack}); err != nil {
					// The root departed after sending its final epochs; its
					// remaining frames are still buffered — keep evaluating
					// them, just stop acknowledging.
					ackable = false
				}
			}
		case TypeFailure:
			qn.obs.tracer.Begin(f.Epoch)
			qn.obs.tracer.Mark(f.Epoch, obs.StageReport)
			failed, err := core.DecodeContributorsBounded(f.Payload, qn.q.Params().N())
			if err != nil {
				qn.record(EpochResult{Epoch: t, Err: err})
				continue
			}
			qn.record(EpochResult{Epoch: t, Partial: true, Failed: failed, Err: ErrNoContributors})
		}
	}
}

// record commits the epoch durably (when a state directory is configured),
// updates the health summary and the resync point, and emits the result. The
// journal append fsyncs before the result leaves the node, so a committed
// epoch survives any crash that follows.
func (qn *QuerierNode) record(res EpochResult) {
	qn.mu.Lock()
	if qn.crashed {
		// A killed process delivers nothing: committing or emitting here would
		// leave an answer the restarted node cannot know about.
		qn.mu.Unlock()
		return
	}
	if uint64(res.Epoch) > qn.lastEval {
		qn.lastEval = uint64(res.Epoch)
	}
	var kind uint8
	var outcome string
	switch {
	case errors.Is(res.Err, ErrNoContributors):
		kind = kindEmpty
		outcome = "empty"
		qn.obs.empty.Inc()
	case res.Err != nil:
		kind = kindRejected
		outcome = "rejected"
		qn.obs.rejected.Inc()
	case res.Partial:
		kind = kindPartial
		outcome = "partial"
		qn.obs.served.Inc()
		qn.obs.partial.Inc()
	default:
		kind = kindFull
		outcome = "full"
		qn.obs.served.Inc()
		qn.obs.full.Inc()
	}
	if res.Recovered {
		outcome = "recovered"
		qn.obs.recovered.Inc()
	}
	if res.Err == nil || errors.Is(res.Err, ErrNoContributors) {
		for _, id := range res.Failed {
			qn.bumpMissed(id)
		}
	}
	// Only definitive outcomes commit. A rejected epoch produced no answer —
	// it stays retryable, so a later re-send (or a post-restart replay from
	// the tree) can still serve it.
	if kind != kindRejected {
		qn.committed.put(uint64(res.Epoch), ackInfo{sum: res.Sum, ok: res.Err == nil})
		qn.commitDurable(res, kind)
		qn.obs.tracer.Mark(uint64(res.Epoch), obs.StageCommit)
	}
	qn.mu.Unlock()
	qn.obs.tracer.End(uint64(res.Epoch), outcome)
	qn.Results <- res
}
