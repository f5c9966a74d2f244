package obs

import "time"

// KernelMetrics instruments the mining kernel: per-round spans, question
// outcome counters, the in-flight gauge and the significant-border size.
// Every field is a fold of the journal: the kernel writes none of them,
// and the observer's journal folds each event it records (fold), so a
// recorded stream folds to the same numbers (FoldMetrics).
type KernelMetrics struct {
	Rounds     *Counter
	Asks       *Counter
	Replies    *Counter
	Questions  *Counter // usable answers folded into the classifier
	Discarded  *Counter
	Inferred   *Counter // auto-answers derived by monotonicity
	Departures *Counter
	Timeouts   *Counter
	MSPs       *Counter
	InFlight   *Gauge
	Border     *Gauge
	RoundDur   *Histogram
	RoundAsks  *Histogram
}

// NewKernelMetrics registers the kernel metric family in r.
func NewKernelMetrics(r *Registry) *KernelMetrics {
	return &KernelMetrics{
		Rounds:     r.Counter("oassis_kernel_rounds_total", "Engine rounds completed."),
		Asks:       r.Counter("oassis_kernel_asks_total", "Questions issued to the crowd."),
		Replies:    r.Counter("oassis_kernel_replies_total", "Replies folded into the kernel."),
		Questions:  r.Counter("oassis_kernel_questions_total", "Usable crowd answers recorded."),
		Discarded:  r.Counter("oassis_kernel_discarded_total", "Questions discarded (timeout/departure)."),
		Inferred:   r.Counter("oassis_kernel_inferred_total", "Answers inferred by monotonicity, not asked."),
		Departures: r.Counter("oassis_kernel_departures_total", "Member departures observed."),
		Timeouts:   r.Counter("oassis_kernel_timeouts_total", "Answer deadline timeouts observed."),
		MSPs:       r.Counter("oassis_kernel_msps_total", "Maximal significant patterns confirmed."),
		InFlight:   r.Gauge("oassis_kernel_in_flight", "Questions currently awaiting answers."),
		Border:     r.Gauge("oassis_kernel_border_size", "Current significant-border antichain size."),
		RoundDur: r.Histogram("oassis_kernel_round_duration_seconds",
			"Wall-clock (or virtual-clock) duration of each engine round.", DefaultLatencyBuckets),
		RoundAsks: r.Histogram("oassis_kernel_round_asks",
			"Questions issued per engine round.", DefaultSizeBuckets),
	}
}

// fold counts one journal event: an ask puts a question in flight and its
// reply, timeout or departure takes it out, and the barriers carry the
// round totals and inferred answers. A nil set folds nothing.
func (m *KernelMetrics) fold(e *Event) {
	if m == nil {
		return
	}
	switch e.Kind {
	case EvAsk:
		m.InFlight.Add(1)
	case EvReply:
		m.InFlight.Add(-1)
		if e.Disp == "" {
			m.Questions.Inc()
		} else {
			m.Discarded.Inc()
		}
	case EvTimeout:
		m.InFlight.Add(-1)
		m.Timeouts.Inc()
		m.Discarded.Inc()
		if e.Struck {
			m.Departures.Inc()
		}
	case EvDeparture:
		m.InFlight.Add(-1)
		m.Departures.Inc()
	case EvMSP:
		m.MSPs.Inc()
	case EvRoundEnd:
		m.Rounds.Inc()
		m.Asks.Add(int64(e.Asks))
		m.Replies.Add(int64(e.Replies))
		m.RoundAsks.Observe(float64(e.Asks))
		m.Border.Set(int64(e.Border))
		m.RoundDur.Observe(time.Duration(e.Elapsed).Seconds())
		m.Inferred.Add(e.Inferred)
	case EvRunEnd:
		m.Inferred.Add(e.Inferred)
	}
}

// BrokerMetrics instruments crowd brokers: round-trip latency and reply
// outcome counters. A nil *BrokerMetrics is a no-op.
type BrokerMetrics struct {
	Posted    *Counter
	Answered  *Counter
	TimedOut  *Counter
	Departed  *Counter
	RoundTrip *Histogram
}

// NewBrokerMetrics registers the broker metric family in r.
func NewBrokerMetrics(r *Registry) *BrokerMetrics {
	return &BrokerMetrics{
		Posted:   r.Counter("oassis_broker_asks_total", "Questions posted to a broker."),
		Answered: r.Counter("oassis_broker_answered_total", "Broker replies with a usable answer."),
		TimedOut: r.Counter("oassis_broker_timeouts_total", "Broker replies that timed out."),
		Departed: r.Counter("oassis_broker_departures_total", "Broker replies reporting member departure."),
		RoundTrip: r.Histogram("oassis_broker_round_trip_seconds",
			"Question round-trip latency as measured by the broker clock.", DefaultLatencyBuckets),
	}
}

// Reply records one delivered reply: its outcome code (the crowd.Outcome
// integer: 0 answered, 1 timed out, 2 departed) and its measured round trip.
func (m *BrokerMetrics) Reply(outcome int, elapsed time.Duration) {
	if m == nil {
		return
	}
	switch outcome {
	case 1:
		m.TimedOut.Inc()
	case 2:
		m.Departed.Inc()
	default:
		m.Answered.Inc()
	}
	m.RoundTrip.Observe(elapsed.Seconds())
}

// PlanMetrics instruments the SPARQL layer: compile/eval spans and row
// throughput. Per-operator actual cardinalities live on the Plan itself
// (they are per-plan, not global); this set carries the aggregate view.
// A nil *PlanMetrics is a no-op.
type PlanMetrics struct {
	Compiles    *Counter
	Evals       *Counter
	Rows        *Counter
	CacheHits   *Counter
	CacheMisses *Counter
	CompileDur  *Histogram
	EvalDur     *Histogram
}

// NewPlanMetrics registers the sparql metric family in r.
func NewPlanMetrics(r *Registry) *PlanMetrics {
	return &PlanMetrics{
		Compiles:    r.Counter("oassis_sparql_compiles_total", "WHERE clauses compiled to plans."),
		Evals:       r.Counter("oassis_sparql_evals_total", "Plan evaluations."),
		Rows:        r.Counter("oassis_sparql_rows_total", "Result rows produced by plan evaluations."),
		CacheHits:   r.Counter("oassis_sparql_plan_cache_hits_total", "Compiles served from the shared plan cache."),
		CacheMisses: r.Counter("oassis_sparql_plan_cache_misses_total", "Plan cache lookups that had to compile."),
		CompileDur: r.Histogram("oassis_sparql_compile_seconds",
			"WHERE clause compile time.", DefaultLatencyBuckets),
		EvalDur: r.Histogram("oassis_sparql_eval_seconds",
			"Plan evaluation time.", DefaultLatencyBuckets),
	}
}

// CacheHit records one compile served from the shared plan cache.
func (m *PlanMetrics) CacheHit() {
	if m == nil {
		return
	}
	m.CacheHits.Inc()
}

// CacheMiss records one plan-cache lookup that fell through to Compile.
func (m *PlanMetrics) CacheMiss() {
	if m == nil {
		return
	}
	m.CacheMisses.Inc()
}

// CompileDone records one compile.
func (m *PlanMetrics) CompileDone(dur time.Duration) {
	if m == nil {
		return
	}
	m.Compiles.Inc()
	m.CompileDur.Observe(dur.Seconds())
}

// EvalDone records one Plan.Stream run and the rows it yielded (with a
// projection, the rows yielded after its cut).
func (m *PlanMetrics) EvalDone(rows int, dur time.Duration) {
	if m == nil {
		return
	}
	m.Evals.Inc()
	m.Rows.Add(int64(rows))
	m.EvalDur.Observe(dur.Seconds())
}

// ServerMetrics instruments the HTTP crowd platform: per-endpoint request
// counters and latency, plus platform-level question lifecycle counters.
// A nil *ServerMetrics is a no-op.
type ServerMetrics struct {
	Requests   *CounterVec   // labels: path, code
	ReqDur     *HistogramVec // label: path
	Posted     *Counter
	Accepted   *Counter
	Duplicates *Counter
	Stale      *Counter
	Expired    *Counter
	Departed   *Counter
}

// NewServerMetrics registers the HTTP server metric family in r.
func NewServerMetrics(r *Registry) *ServerMetrics {
	return &ServerMetrics{
		Requests: r.CounterVec("oassis_http_requests_total",
			"HTTP requests by endpoint and status code.", "path", "code"),
		ReqDur: r.HistogramVec("oassis_http_request_seconds",
			"HTTP request handling latency by endpoint.", DefaultLatencyBuckets, "path"),
		Posted:     r.Counter("oassis_server_questions_posted_total", "Questions posted to member slots."),
		Accepted:   r.Counter("oassis_server_answers_accepted_total", "Answers accepted."),
		Duplicates: r.Counter("oassis_server_answers_duplicate_total", "Duplicate answers rejected (409)."),
		Stale:      r.Counter("oassis_server_answers_stale_total", "Stale answers rejected (410)."),
		Expired:    r.Counter("oassis_server_questions_expired_total", "Questions expired by the deadline reaper."),
		Departed:   r.Counter("oassis_server_departures_total", "Members reaped as departed."),
	}
}

// nopServerMetrics backs the ServerMetrics OrNop.
var nopServerMetrics = &ServerMetrics{}

// OrNop returns m, or a shared all-nil-field set when m is nil, so server
// handlers can touch counter fields without per-site guards (the vec With
// methods are nil-safe too).
func (m *ServerMetrics) OrNop() *ServerMetrics {
	if m == nil {
		return nopServerMetrics
	}
	return m
}

// Request records one handled HTTP request.
func (m *ServerMetrics) Request(path, code string, dur time.Duration) {
	if m == nil {
		return
	}
	m.Requests.With(path, code).Inc()
	m.ReqDur.With(path).Observe(dur.Seconds())
}

// PlatformMetrics instruments the cross-query answer platform: store
// lookups by outcome (hit / miss / in-flight join), freshness expirations,
// LRU evictions and the store / attached-session gauges. Hits, Misses,
// Joins and Expired are folds of the journal's store events; the platform
// writes the rest, state no event carries. A nil *PlatformMetrics is a
// no-op on every method.
type PlatformMetrics struct {
	Hits     *Counter
	Misses   *Counter
	Joins    *Counter
	Expired  *Counter
	Evicted  *Counter
	Entries  *Gauge
	Sessions *Gauge
}

// NewPlatformMetrics registers the answer-platform metric family in r.
func NewPlatformMetrics(r *Registry) *PlatformMetrics {
	return &PlatformMetrics{
		Hits:     r.Counter("oassis_platform_store_hits_total", "Questions served from the shared answer store."),
		Misses:   r.Counter("oassis_platform_store_misses_total", "Questions forwarded to the crowd (store misses)."),
		Joins:    r.Counter("oassis_platform_dedup_joins_total", "Questions deduplicated onto an identical in-flight ask."),
		Expired:  r.Counter("oassis_platform_store_expired_total", "Cached answers discarded as stale (TTL exceeded)."),
		Evicted:  r.Counter("oassis_platform_store_evicted_total", "Cached answers evicted by the LRU size bound."),
		Entries:  r.Gauge("oassis_platform_store_entries", "Answers currently held by the shared store."),
		Sessions: r.Gauge("oassis_platform_sessions", "Query sessions currently attached to the platform."),
	}
}

// nopPlatformMetrics backs the PlatformMetrics OrNop.
var nopPlatformMetrics = &PlatformMetrics{}

// OrNop returns m, or a shared all-nil-field set when m is nil, so platform
// call sites can touch counter fields without per-site guards.
func (m *PlatformMetrics) OrNop() *PlatformMetrics {
	if m == nil {
		return nopPlatformMetrics
	}
	return m
}

// fold counts one journal store event.
func (m *PlatformMetrics) fold(e *Event) {
	if m == nil {
		return
	}
	switch e.Kind {
	case EvStoreHit:
		m.Hits.Inc()
	case EvStoreMiss:
		m.Misses.Inc()
	case EvStoreJoin:
		m.Joins.Inc()
	case EvStoreExpired:
		m.Expired.Inc()
	}
}

// FoldMetrics folds a recorded journal stream (ReadJournalJSONL) into
// fresh kernel and platform sets registered on r: the counters an
// observer whose journal recorded the stream would read.
func FoldMetrics(r *Registry, events []Event) (*KernelMetrics, *PlatformMetrics) {
	km, pm := NewKernelMetrics(r), NewPlatformMetrics(r)
	for i := range events {
		km.fold(&events[i])
		pm.fold(&events[i])
	}
	return km, pm
}

// IngestMetrics instruments N-Triples ingestion: parsed-triple and derived
// fact/label counters, skipped-line counters by reason, malformed-input
// aborts and a wall-clock ingest histogram. A nil *IngestMetrics is a no-op
// on every method, like every other set in this package.
type IngestMetrics struct {
	Triples   *Counter
	Facts     *Counter
	Labels    *Counter
	Skipped   *CounterVec // label: reason (literal | blank)
	Malformed *Counter
	Duration  *Histogram
}

// NewIngestMetrics registers the ontology-ingest metric family in r.
func NewIngestMetrics(r *Registry) *IngestMetrics {
	return &IngestMetrics{
		Triples: r.Counter("oassis_ontology_ingest_triples_total",
			"N-Triples statements parsed during ingestion."),
		Facts: r.Counter("oassis_ontology_ingest_facts_total",
			"Ontology facts derived from ingested triples."),
		Labels: r.Counter("oassis_ontology_ingest_labels_total",
			"Element labels attached during ingestion."),
		Skipped: r.CounterVec("oassis_ontology_ingest_skipped_total",
			"Triples skipped during ingestion by reason.", "reason"),
		Malformed: r.Counter("oassis_ontology_ingest_malformed_total",
			"Ingest runs aborted by a malformed input line."),
		Duration: r.Histogram("oassis_ontology_ingest_seconds",
			"Wall-clock duration of whole ingest runs.", DefaultLatencyBuckets),
	}
}

// LoadDone records one completed ingest run: the parsed/derived/skipped
// counts and its wall-clock duration in seconds.
func (m *IngestMetrics) LoadDone(triples, facts, labels, skippedLiterals, skippedBlank int, seconds float64) {
	if m == nil {
		return
	}
	m.Triples.Add(int64(triples))
	m.Facts.Add(int64(facts))
	m.Labels.Add(int64(labels))
	if skippedLiterals > 0 {
		m.Skipped.With("literal").Add(int64(skippedLiterals))
	}
	if skippedBlank > 0 {
		m.Skipped.With("blank").Add(int64(skippedBlank))
	}
	m.Duration.Observe(seconds)
}

// LoadFailed records one ingest run aborted on malformed input.
func (m *IngestMetrics) LoadFailed() {
	if m == nil {
		return
	}
	m.Malformed.Inc()
}

// Observer bundles a Registry, a Journal and every subsystem metric set —
// the single handle threaded through the engine via oassis.WithObserver /
// core.EngineConfig.Obs / server.Config.Obs. A nil *Observer disables
// observability end to end; each accessor below returns a nil set whose
// methods are no-ops.
type Observer struct {
	Registry *Registry
	// journal is the one event stream: program spans and crowd-run
	// events. New creates it with the Kernel and Platform folds wired in;
	// attach a JSONL sink (JournalSet().SetSink) to keep what it records.
	journal *Journal

	Kernel   *KernelMetrics
	Broker   *BrokerMetrics
	Plan     *PlanMetrics
	Server   *ServerMetrics
	Platform *PlatformMetrics
	Ingest   *IngestMetrics
}

// New returns an Observer with a fresh registry, a default-capacity
// journal, and every subsystem metric family registered. The journal
// folds each event it records into the Kernel and Platform sets.
func New() *Observer {
	r := NewRegistry()
	o := &Observer{
		Registry: r,
		journal:  newJournal(DefaultJournalCapacity),
		Kernel:   NewKernelMetrics(r),
		Broker:   NewBrokerMetrics(r),
		Plan:     NewPlanMetrics(r),
		Server:   NewServerMetrics(r),
		Platform: NewPlatformMetrics(r),
		Ingest:   NewIngestMetrics(r),
	}
	o.journal.kernel, o.journal.platform = o.Kernel, o.Platform
	return o
}

// BrokerSet returns the broker metrics (nil for a nil observer).
func (o *Observer) BrokerSet() *BrokerMetrics {
	if o == nil {
		return nil
	}
	return o.Broker
}

// PlanSet returns the sparql metrics (nil for a nil observer).
func (o *Observer) PlanSet() *PlanMetrics {
	if o == nil {
		return nil
	}
	return o.Plan
}

// ServerSet returns the HTTP server metrics (nil for a nil observer).
func (o *Observer) ServerSet() *ServerMetrics {
	if o == nil {
		return nil
	}
	return o.Server
}

// PlatformSet returns the answer-platform metrics (nil for a nil observer).
func (o *Observer) PlatformSet() *PlatformMetrics {
	if o == nil {
		return nil
	}
	return o.Platform
}

// IngestSet returns the ontology-ingest metrics (nil for a nil observer).
func (o *Observer) IngestSet() *IngestMetrics {
	if o == nil {
		return nil
	}
	return o.Ingest
}

// EnableScorecards attaches a per-member scoreboard to the observer's
// journal, registering its oassis_member_* families, and returns it. The
// board folds every event the journal records from then on. Calling it
// again returns the existing board. Scorecards are opt-in, but cheap: on
// BenchmarkEngineThroughput (2 CPUs, a noisy host) an observer costs 25.5
// allocations per question with scorecards and without (24.4 with no
// observer), since the board adds no event of its own and tallies into
// series it fetches once per member.
func (o *Observer) EnableScorecards() *Scoreboard {
	j := o.JournalSet()
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.board == nil {
		j.board = newScoreboard(o.Registry)
	}
	return j.board
}

// JournalSet returns the journal (nil for a nil observer).
func (o *Observer) JournalSet() *Journal {
	if o == nil {
		return nil
	}
	return o.journal
}

// BoardSet returns the journal's scoreboard (nil when disabled or for a
// nil observer).
func (o *Observer) BoardSet() *Scoreboard {
	j := o.JournalSet()
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.board
}

// Reg returns the registry (nil for a nil observer).
func (o *Observer) Reg() *Registry {
	if o == nil {
		return nil
	}
	return o.Registry
}
