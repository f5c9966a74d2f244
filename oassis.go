// Package oassis is a Go implementation of OASSIS — query-driven crowd
// mining (Amsterdamer, Davidson, Milo, Novgorodov, Somech; SIGMOD 2014).
//
// OASSIS lets a user pose a declarative OASSIS-QL query whose WHERE clause
// selects candidate variable assignments from an ontology (a SPARQL-style
// selection) and whose SATISFYING clause describes data patterns
// (fact-sets) to be mined from a crowd of data contributors. The engine
// traverses the semantic partial order over assignments top-down, asking
// crowd members a near-minimal number of support questions, and returns the
// maximal significant patterns (MSPs) — a concise, redundancy-free answer.
//
// The package exposes the full system: the vocabulary and ontology model
// (Section 2 of the paper), the OASSIS-QL language (Section 3), the
// single-user vertical algorithm (Section 4.1), the multi-user engine with
// pluggable answer aggregation (Section 4.2), lazy assignment generation
// (Section 5), crowd simulation, answer caching for threshold re-evaluation
// (Section 6.3) and the synthetic + domain workload generators behind the
// paper's evaluation (Sections 6.3–6.4).
//
// Quick start:
//
//	v, store, err := oassis.LoadOntology(strings.NewReader(ontologyText))
//	q, err := oassis.ParseQuery(queryText, v)
//	session, err := oassis.NewSession(store, q)
//	result, err := session.Run(members)
//	for _, fs := range session.FactSets(result.ValidMSPs) {
//	    fmt.Println(session.Describe(fs))
//	}
package oassis

import (
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"oassis/internal/assign"
	"oassis/internal/chaos"
	"oassis/internal/core"
	"oassis/internal/crowd"
	"oassis/internal/journal"
	"oassis/internal/nlgen"
	"oassis/internal/oassisql"
	"oassis/internal/obs"
	"oassis/internal/ontology"
	"oassis/internal/platform"
	"oassis/internal/rules"
	"oassis/internal/sparql"
	"oassis/internal/vocab"
)

// Re-exported model types. The implementation lives in internal packages;
// these aliases are the supported public surface.
type (
	// Vocabulary is the term store with the ≤ℰ and ≤ℛ partial orders
	// (Definition 2.1).
	Vocabulary = vocab.Vocabulary
	// TermID identifies an interned element or relation name.
	TermID = vocab.TermID
	// Ontology is the indexed universal fact store.
	Ontology = ontology.Store
	// Fact is an ⟨element, relation, element⟩ triple (Definition 2.2).
	Fact = ontology.Fact
	// FactSet is a canonical set of facts.
	FactSet = ontology.FactSet
	// Query is a parsed OASSIS-QL query.
	Query = oassisql.Query
	// Assignment maps mining variables to term sets (Definition 4.1).
	Assignment = assign.Assignment
	// Member is a crowd data contributor.
	Member = crowd.Member
	// SimMember is a simulated member backed by a personal database.
	SimMember = crowd.SimMember
	// Response is a member's answer to one question.
	Response = crowd.Response
	// Aggregator is the pluggable multi-user decision black-box
	// (Section 4.2).
	Aggregator = crowd.Aggregator
	// Result is a mining outcome: MSPs, valid MSPs and statistics.
	Result = core.Result
	// Stats carries the cost counters the paper reports.
	Stats = core.Stats
	// CrowdCache stores answers for threshold re-evaluation
	// (Section 6.3).
	CrowdCache = core.CrowdCache
	// Strategy selects vertical / horizontal / naive question ordering.
	Strategy = core.Strategy
	// Clock abstracts time for deterministic chaos simulation.
	Clock = chaos.Clock
	// VirtualClock is the deterministic simulation clock: sleeps advance
	// virtual time instantly, so chaos scenarios replay in zero wall time.
	VirtualClock = chaos.VirtualClock
	// Faults configures the misbehaviours a FaultyMember injects.
	Faults = chaos.Faults
	// FaultyMember decorates a Member with seed-driven faults (latency,
	// departure, contradiction) for resilience testing.
	FaultyMember = chaos.FaultyMember
	// Ask is one question event emitted by the mining kernel.
	Ask = crowd.Ask
	// Reply is the resolution event for one Ask.
	Reply = crowd.Reply
	// Broker carries Ask events to a crowd and delivers Replies back;
	// RunBroker drives the mining kernel over one (see internal/server
	// for the HTTP platform's implementation).
	Broker = crowd.Broker
	// FaultyBroker decorates a Broker with seed-driven per-member faults,
	// applying chaos at the event level so every execution mode gets the
	// same fault coverage.
	FaultyBroker = chaos.FaultyBroker
	// Observer bundles the metric registry, the span tracer and every
	// subsystem metric family; thread one through WithObserver (and the
	// HTTP server's config) to light up the whole pipeline. Nil disables
	// observability at the cost of a nil check per event.
	Observer = obs.Observer
	// TraceSummary is the per-(phase, name) span aggregate attached to
	// an observed run's Result.
	TraceSummary = obs.TraceSummary
	// Journal is the crowd-run flight recorder: an append-only,
	// sequence-numbered event stream (run start, every ask / reply /
	// timeout / departure with its raw payload, MSP confirmations, round
	// barriers) kept in a fixed ring with an optional JSONL sink. Attach
	// one with WithJournal; replay a recorded stream with Session.Replay.
	Journal = obs.Journal
	// JournalEvent is one recorded flight-recorder event.
	JournalEvent = obs.Event
	// CurvePoint is one round bucket of a run's answer-arrival curve
	// (Result.Curve): new MSPs and new distinct answers per question
	// spent.
	CurvePoint = obs.CurvePoint
	// MemberScorecard is one crowd member's quality/latency profile:
	// latency quantiles, timeout/strike/departure counts and the
	// agreement-vs-aggregate score (see WithScorecards).
	MemberScorecard = obs.MemberScorecard
	// SpaceStats snapshots the assignment space's size and its interner /
	// edge-cache hit counters (see Session.SpaceStats).
	SpaceStats = assign.SpaceStats
	// PlanOpExplain describes one operator of a compiled WHERE plan:
	// pattern, access path, estimated and observed cardinalities.
	PlanOpExplain = sparql.OpExplain
	// Platform is the cross-query answer platform: a long-lived,
	// concurrent answer store shared by all sessions of a process, with
	// in-flight question dedup and freshness-based eviction (the
	// Section 6.3 CrowdCache generalized to multi-tenant serving).
	Platform = platform.Platform
	// PlatformConfig parameterizes a Platform (TTL, LRU bound, clock,
	// observer).
	PlatformConfig = platform.Config
	// PlatformStats snapshots a Platform's hit/miss/join/expiry counters.
	PlatformStats = platform.Stats
	// PlatformConn is one session's connection to a Platform; Session
	// manages its own conns, but brokers can also be wrapped directly
	// with (*Platform).Attach.
	PlatformConn = platform.Conn
)

// Ask kinds and reply outcomes, re-exported for Broker implementations.
const (
	ConcreteAsk   = crowd.ConcreteAsk
	SpecializeAsk = crowd.SpecializeAsk

	ReplyAnswered = crowd.Answered
	ReplyTimedOut = crowd.TimedOut
	ReplyDeparted = crowd.Departed
)

// RealClock returns the wall clock.
func RealClock() Clock { return chaos.Real() }

// NewVirtualClock returns a deterministic simulation clock.
func NewVirtualClock() *VirtualClock { return chaos.NewVirtualClock() }

// NewFaultyMember wraps a member with the configured faults, sleeping on
// the given clock (nil uses the wall clock).
func NewFaultyMember(inner Member, clock Clock, f Faults) *FaultyMember {
	return chaos.Wrap(inner, clock, f)
}

// NewFaultyBroker wraps a broker with per-member faults keyed by member
// ID, sleeping on the given clock (nil uses the wall clock).
func NewFaultyBroker(inner Broker, clock Clock, faults map[string]Faults) *FaultyBroker {
	return chaos.WrapBroker(inner, clock, faults)
}

// Question-ordering strategies (Section 6.4 compares them).
const (
	Vertical   = core.Vertical
	Horizontal = core.Horizontal
	Naive      = core.Naive
)

// LoadOntology parses the textual ontology format (see internal/ontology's
// Load for the grammar) and returns the frozen vocabulary and fact store.
func LoadOntology(r io.Reader) (*Vocabulary, *Ontology, error) {
	return ontology.Load(r)
}

// LoadOntologyFile is LoadOntology over a file path.
func LoadOntologyFile(path string) (*Vocabulary, *Ontology, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	return ontology.Load(f)
}

// WriteOntology serializes a store back to the textual format.
func WriteOntology(w io.Writer, s *Ontology) error { return ontology.Write(w, s) }

// NewFactSet builds a canonical (sorted, deduplicated) fact-set.
func NewFactSet(facts ...Fact) FactSet { return ontology.NewFactSet(facts...) }

// NTriplesStats reports what an N-Triples import did.
type NTriplesStats = ontology.NTriplesStats

// LoadNTriples imports W3C N-Triples (the export format of knowledge bases
// like YAGO, which the paper's prototype used) into a fresh vocabulary and
// store: rdf:type / rdfs:subClassOf / rdfs:subPropertyOf / rdfs:label map
// onto the OASSIS model; other literal-valued triples are skipped. The
// import runs on the parallel pipeline (chunked parse, sharded interning,
// concurrent index builds) and produces output byte-identical to a serial
// pass; see LoadNTriplesOptions for worker and observability control.
func LoadNTriples(r io.Reader) (*Vocabulary, *Ontology, *NTriplesStats, error) {
	return ontology.LoadNTriplesParallel(r, ontology.LoadOptions{})
}

// NTriplesLoadOptions tunes LoadNTriplesOptions; the zero value means
// GOMAXPROCS workers, default chunking, no observation.
type NTriplesLoadOptions = ontology.LoadOptions

// LoadNTriplesOptions is LoadNTriples with explicit pipeline options.
func LoadNTriplesOptions(r io.Reader, opt NTriplesLoadOptions) (*Vocabulary, *Ontology, *NTriplesStats, error) {
	return ontology.LoadNTriplesParallel(r, opt)
}

// ParseFact parses one "subject predicate object" line against an existing
// vocabulary (names may be quoted); it never interns new terms.
func ParseFact(line string, v *Vocabulary) (Fact, error) {
	return ontology.ParseFact(line, v)
}

// FormatFact renders a fact in the textual format, the inverse of ParseFact.
func FormatFact(f Fact, v *Vocabulary) string { return ontology.FormatFact(f, v) }

// ParseQuery parses and name-resolves an OASSIS-QL query.
func ParseQuery(text string, v *Vocabulary) (*Query, error) {
	return oassisql.Parse(text, v)
}

// NewSimMember builds a simulated crowd member over a personal database of
// transactions; answers are true supports bucketed to the UI scale.
func NewSimMember(id string, v *Vocabulary, db []FactSet, seed int64) *crowd.SimMember {
	return crowd.NewSimMember(id, v, db, seed)
}

// LoadCrowd parses the textual crowd format (member headers followed by one
// transaction per line) into simulated members.
func LoadCrowd(r io.Reader, v *Vocabulary, seed int64) ([]Member, error) {
	sims, err := LoadCrowdSim(r, v, seed)
	if err != nil {
		return nil, err
	}
	members := make([]Member, len(sims))
	for i, m := range sims {
		members[i] = m
	}
	return members, nil
}

// LoadCrowdSim is LoadCrowd returning the concrete simulated members, whose
// behaviour knobs (answer scale, pruning ratio) remain adjustable.
func LoadCrowdSim(r io.Reader, v *Vocabulary, seed int64) ([]*SimMember, error) {
	return crowd.LoadCrowd(r, v, seed)
}

// WriteCrowd serializes simulated members' personal databases in the format
// accepted by LoadCrowd.
func WriteCrowd(w io.Writer, v *Vocabulary, members []*crowd.SimMember) error {
	return crowd.WriteCrowd(w, v, members)
}

// NewMeanAggregator returns the paper's K-answers-mean decision rule.
func NewMeanAggregator(k int, theta float64) Aggregator {
	return crowd.NewMeanAggregator(k, theta)
}

// NewMajorityAggregator returns a majority-vote decision rule.
func NewMajorityAggregator(k int, theta float64) Aggregator {
	return crowd.NewMajorityAggregator(k, theta)
}

// NewCrowdCache returns an empty answer cache; wrap members with
// (*CrowdCache).Wrap to replay answers across thresholds.
func NewCrowdCache() *CrowdCache { return core.NewCrowdCache() }

// NewPlatform builds an empty cross-query answer platform. Share one
// Platform across every session (and every HTTP server) of a process whose
// queries are posed over the same vocabulary; attach sessions to it with
// WithPlatform.
func NewPlatform(cfg PlatformConfig) *Platform { return platform.New(cfg) }

// LoadCrowdCache restores a cache snapshot written by (*CrowdCache).Save,
// verifying it was collected under the same vocabulary.
func LoadCrowdCache(r io.Reader, v *Vocabulary) (*CrowdCache, error) {
	return core.LoadCrowdCache(r, v)
}

// Option configures a Session.
type Option func(*Session)

// WithSeed fixes the session's randomness (question-type choices).
func WithSeed(seed int64) Option { return func(s *Session) { s.seed = seed } }

// WithAggregator replaces the default 5-answer mean aggregator.
func WithAggregator(a Aggregator) Option { return func(s *Session) { s.agg = a } }

// WithSpecializationRatio sets the probability of specialization questions.
func WithSpecializationRatio(r float64) Option {
	return func(s *Session) { s.specRatio = r }
}

// WithMorePool supplies candidate MORE facts (normally mined from crowd
// suggestions; required for queries using MORE).
func WithMorePool(pool FactSet) Option { return func(s *Session) { s.morePool = pool } }

// WithMaxQuestionsPerMember caps each member's session length.
func WithMaxQuestionsPerMember(n int) Option {
	return func(s *Session) { s.maxPerMember = n }
}

// WithConsistencyFilter enables the Section 4.2 spammer filter.
func WithConsistencyFilter() Option { return func(s *Session) { s.consistency = true } }

// WithSemanticWhere switches WHERE evaluation from exact triple matching to
// the implication semantics of Definition 2.5.
func WithSemanticWhere() Option { return func(s *Session) { s.semantic = true } }

// WithParallelism serves crowd members concurrently with the given number
// of worker goroutines (the QueueManager's concurrent web sessions).
// Results are equivalent up to answer arrival order; the default (1) is
// fully deterministic.
func WithParallelism(workers int) Option {
	return func(s *Session) { s.workers = workers }
}

// WithOnMSP streams every MSP the moment it is confirmed — the paper's
// incremental answer delivery ("answers can be returned ... as soon as they
// are identified").
func WithOnMSP(fn func(*Assignment)) Option {
	return func(s *Session) { s.onMSP = fn }
}

// WithTranscript records a per-member interview log into
// Result.Transcripts — one line per usable answer, in kernel fold order.
// Two runs over the same crowd are behaviorally equivalent iff their
// transcripts match, which is how the differential tests compare the
// sequential, parallel and HTTP drivers.
func WithTranscript() Option { return func(s *Session) { s.transcript = true } }

// NewObserver returns an Observer with a fresh registry, a default-capacity
// trace ring and every subsystem metric family registered.
func NewObserver() *Observer { return obs.New() }

// NewJournal returns a flight-recorder journal with the given event-ring
// capacity (the default of 65536 when capacity <= 0). Attach a JSONL sink
// with (*Journal).SetSink to keep runs longer than the ring replayable.
func NewJournal(capacity int) *Journal { return obs.NewJournal(capacity) }

// ReadJournal decodes a JSONL journal stream previously written by the
// journal's sink or (*Journal).WriteJSONL — the input to Session.Replay.
func ReadJournal(r io.Reader) ([]JournalEvent, error) { return obs.ReadJournalJSONL(r) }

// WithJournal attaches a flight recorder to the session's runs: every ask,
// reply, timeout, departure, MSP confirmation and round barrier is recorded
// with its raw payload, and Result.Curve carries the run's answer-arrival
// curve. The option implies an Observer (a fresh one is created when none
// was configured), so it composes with or without WithObserver. The journal
// may be shared across sessions; run IDs keep their streams apart.
func WithJournal(j *Journal) Option { return func(s *Session) { s.journal = j } }

// WithScorecards maintains per-member quality/latency profiles across the
// session's runs — latency histograms with quantiles, timeout/strike/
// departure/ban counts, agreement-vs-aggregate scores — exported as
// oassis_member_* metric families and readable via Scorecards(). Implies an
// Observer, like WithJournal.
func WithScorecards() Option { return func(s *Session) { s.scorecards = true } }

// Scorecards snapshots the per-member profiles collected so far (nil unless
// the session was built WithScorecards, or with an Observer whose
// scoreboard was enabled).
func (s *Session) Scorecards() []MemberScorecard { return s.obsv.BoardSet().Snapshot() }

// Replay re-folds a recorded journal stream through a fresh kernel over
// this session's assignment space and configuration, reconstructing the
// run without consulting any crowd. The session must be configured exactly
// as the recorded run's was (same query, seed, aggregator settings,
// deadlines, transcript flag); the stream must contain one complete run —
// from its run_start event — as written by the JSONL sink (use
// journal.FilterRun semantics upstream when a sink interleaves several
// runs: Replay takes the first run_start it is given). Use
// VerifyReplayIdentity to assert the reconstruction matches the live
// result.
func (s *Session) Replay(events []JournalEvent) (*Result, error) {
	ids, err := journal.Members(events)
	if err != nil {
		return nil, err
	}
	res, err := journal.Replay(events, s.space, s.engineConfig(len(ids)))
	if res != nil {
		s.applyLimit(res)
	}
	return res, err
}

// VerifyReplayIdentity asserts a replayed result reconstructs the live run
// byte-identically on kernel state: Stats, MSP and valid-MSP key sets, the
// significant set, supports and per-member transcripts (Trace and Curve
// are observability, not state, and are not compared).
func VerifyReplayIdentity(live, replayed *Result) error {
	return journal.VerifyIdentity(live, replayed)
}

// WithObserver attaches an observer to the session: WHERE compilation and
// evaluation are timed and counted, the space's interner and edge-cache hit
// rates are exported as gauges, every engine run feeds kernel and broker
// metrics plus per-round trace spans, and Result.Trace summarizes where the
// run's time went. The observer may be shared across sessions (and with an
// HTTP server) to scrape one registry for the whole process.
func WithObserver(o *Observer) Option { return func(s *Session) { s.obsv = o } }

// WithPlatform attaches the session to a shared cross-query answer
// platform: every crowd question is first looked up in the platform's
// store (a cached answer is replayed without re-asking), identical
// questions posed by concurrently running sessions are deduplicated onto
// one in-flight ask, and fresh answers feed the store for later queries.
// Run and RunBroker route through the platform; without this option the
// standalone paths are untouched. Because every session attached to a
// platform may resolve asks posted by other sessions' goroutines,
// WithParallelism is ignored on the platform path — the broker driver is
// used, which is inherently concurrent across sessions.
func WithPlatform(p *Platform) Option { return func(s *Session) { s.platform = p } }

// WithClock sets the session's time source (default: the wall clock).
// Inject a VirtualClock to run slow-member chaos scenarios
// deterministically in zero wall time.
func WithClock(c Clock) Option { return func(s *Session) { s.clock = c } }

// WithAnswerDeadline bounds how long one member answer may take on the
// session's clock. Later answers are discarded and re-asked; after
// maxTimeouts consecutive overruns (0 = the default of 3) the member is
// treated as departed and the run degrades to the surviving crowd.
func WithAnswerDeadline(d time.Duration, maxTimeouts int) Option {
	return func(s *Session) {
		s.answerDeadline = d
		s.maxTimeouts = maxTimeouts
	}
}

// Session is one query evaluation: the WHERE clause has been evaluated, the
// assignment space built, and the crowd can be mined (possibly repeatedly,
// e.g. for different member pools).
type Session struct {
	store *Ontology
	query *Query
	space *assign.Space
	plan  *sparql.Plan

	seed           int64
	agg            Aggregator
	specRatio      float64
	morePool       FactSet
	maxPerMember   int
	consistency    bool
	semantic       bool
	workers        int
	onMSP          func(*Assignment)
	clock          Clock
	answerDeadline time.Duration
	maxTimeouts    int
	transcript     bool
	obsv           *Observer
	journal        *Journal
	scorecards     bool
	platform       *Platform

	renderer *nlgen.Renderer
}

// NewSession evaluates the query's WHERE clause against the ontology and
// constructs the assignment space. The WHERE plan comes from the ontology's
// shared plan cache — repeated sessions over the same query shape (the
// multi-run server, synthetic fleets) skip compilation — and its rows stream
// straight into space construction without materializing an intermediate
// result set (assign.NewSpaceFromPlan).
func NewSession(store *Ontology, q *Query, opts ...Option) (*Session, error) {
	s := &Session{store: store, query: q, specRatio: 0.12}
	for _, opt := range opts {
		opt(s)
	}
	// The journal and scorecard options imply an Observer, so the flags
	// compose without silent no-ops when WithObserver was not given.
	if s.journal != nil || s.scorecards {
		if s.obsv == nil {
			s.obsv = NewObserver()
		}
		if s.journal != nil {
			s.obsv.Journal = s.journal
		}
		if s.scorecards {
			s.obsv.EnableScorecards()
		}
	}
	ev := sparql.NewEvaluator(store)
	ev.Semantic = s.semantic
	ev.Metrics = s.obsv.PlanSet() // Compile auto-observes the plan
	ev.UseSharedCache()
	tr := s.obsv.Trace()
	plan, err := ev.Compile(q.Where)
	if err != nil {
		return nil, fmt.Errorf("oassis: WHERE compilation: %w", err)
	}
	s.plan = plan
	evalStart := tr.Begin()
	space, streamed, err := assign.NewSpaceFromPlan(q, plan, s.morePool)
	if err != nil {
		return nil, fmt.Errorf("oassis: assignment space: %w", err)
	}
	// The eval and build phases are fused on the streaming path; both spans
	// cover the fused interval so existing trace consumers keep their
	// phase names.
	tr.End("where_eval", evalStart, obs.Attr{Key: "rows", Val: int64(streamed)})
	s.space = space
	tr.End("space_build", evalStart,
		obs.Attr{Key: "nodes", Val: int64(space.NumNodes())},
		obs.Attr{Key: "valid", Val: int64(len(space.Valid()))})
	s.registerGauges()
	s.renderer = nlgen.NewRenderer(store.Vocabulary())
	return s, nil
}

// registerGauges exports the session's pull-style statistics — the space's
// interner and edge-cache counters and the ontology's closure-index cold /
// warm counts — into the observer's registry. Registration is idempotent on
// metric names; when sessions share an observer, the most recent session's
// space backs the space gauges.
func (s *Session) registerGauges() {
	r := s.obsv.Reg()
	if r == nil {
		return
	}
	sp, st := s.space, s.store
	r.GaugeFunc("oassis_space_nodes", "Interned assignment-lattice nodes.",
		func() float64 { return float64(sp.Stats().Nodes) })
	r.GaugeFunc("oassis_space_valid", "Valid assignments in the space.",
		func() float64 { return float64(sp.Stats().Valid) })
	r.GaugeFunc("oassis_space_intern_hits", "Interner lookups deduplicated to an existing node.",
		func() float64 { return float64(sp.Stats().InternHits) })
	r.GaugeFunc("oassis_space_intern_misses", "Interner lookups that created a new node.",
		func() float64 { return float64(sp.Stats().InternMisses) })
	r.GaugeFunc("oassis_space_edge_cache_hits", "Successor/predecessor lookups served from the edge cache.",
		func() float64 { return float64(sp.Stats().EdgeHits) })
	r.GaugeFunc("oassis_space_edge_cache_misses", "Successor/predecessor lists computed on a cache miss.",
		func() float64 { return float64(sp.Stats().EdgeMisses) })
	r.GaugeFunc("oassis_ontology_closure_cold", "Transitive-closure indexes built (cold lookups).",
		func() float64 { return float64(st.ClosureStats().Cold) })
	r.GaugeFunc("oassis_ontology_closure_warm", "Closure lookups served from a built index.",
		func() float64 { return float64(st.ClosureStats().Warm) })
}

// SpaceStats snapshots the assignment space: node and valid-assignment
// counts plus interner and edge-cache hit/miss counters.
func (s *Session) SpaceStats() SpaceStats { return s.space.Stats() }

// PlanExplain renders the compiled WHERE plan: one line per operator with
// its source pattern, chosen access path and estimated cardinality — plus
// observed per-operator row counts once the session was built with an
// observer (the WHERE evaluation that constructs the space feeds them).
func (s *Session) PlanExplain() string { return s.plan.Explain() }

// PlanOps returns the structured form of PlanExplain.
func (s *Session) PlanOps() []PlanOpExplain { return s.plan.ExplainOps() }

// ValidAssignments returns |𝒜valid|, the number of valid assignments the
// WHERE clause produced (projected onto the mining variables).
func (s *Session) ValidAssignments() int { return len(s.space.Valid()) }

// Theta returns the query's support threshold.
func (s *Session) Theta() float64 { return s.query.Satisfying.Support }

// Run mines the crowd with the multi-user engine of Section 4.2 and returns
// the MSPs. With a single member it degenerates to Algorithm 1. When the
// query carries a crowd-selection clause (FROM CROWD WITH ...), only
// members whose attributes match every conjunct are asked.
func (s *Session) Run(members []Member) (*Result, error) {
	if len(s.query.CrowdFilter) > 0 {
		var kept []Member
		for _, m := range members {
			if memberMatches(m, s.query.CrowdFilter) {
				kept = append(kept, m)
			}
		}
		members = kept
	}
	if len(members) == 0 {
		return nil, fmt.Errorf("oassis: no crowd members")
	}
	if s.platform != nil {
		return s.runPlatform(members)
	}
	eng := core.NewEngine(s.space, members, s.engineConfig(len(members)))
	var res *Result
	if s.workers > 1 {
		res = eng.RunParallel(s.workers)
	} else {
		res = eng.Run()
	}
	s.applyLimit(res)
	return res, nil
}

// runPlatform drives the run through the shared answer platform: the
// in-process member broker is wrapped with a platform connection (store
// lookups, in-flight dedup), and the broker driver folds the replies —
// it tolerates replies resolved on other sessions' goroutines, which is
// exactly what a deduplicated ask does.
func (s *Session) runPlatform(members []Member) (*Result, error) {
	ids := make([]string, len(members))
	for i, m := range members {
		ids[i] = m.ID()
	}
	clock := s.clock
	if clock == nil {
		clock = chaos.Real()
	}
	b := crowd.NewMemberBroker(members, clock.Now)
	b.Metrics = s.obsv.BrokerSet()
	conn := s.platform.Attach(b)
	defer conn.Detach()
	eng := core.NewBrokerEngine(s.space, ids, s.engineConfig(len(members)))
	res := eng.RunWith(conn)
	s.applyLimit(res)
	return res, nil
}

// RunBroker mines a crowd that lives behind a Broker — members known
// only by ID, reached through ask/deliver events (the HTTP platform in
// internal/server is the canonical broker). The kernel posts each
// round's questions without blocking on any one member; replies may
// arrive in any order. Crowd-selection clauses cannot match bare IDs,
// so a filtered query finds no members here.
func (s *Session) RunBroker(ids []string, b Broker) (*Result, error) {
	if len(s.query.CrowdFilter) > 0 {
		// Bare member IDs carry no profile attributes to match.
		ids = nil
	}
	if len(ids) == 0 {
		return nil, fmt.Errorf("oassis: no crowd members")
	}
	if s.platform != nil {
		conn := s.platform.Attach(b)
		defer conn.Detach()
		b = conn
	}
	eng := core.NewBrokerEngine(s.space, ids, s.engineConfig(len(ids)))
	res := eng.RunWith(b)
	s.applyLimit(res)
	return res, nil
}

// engineConfig assembles the kernel configuration shared by every driver
// for a crowd of n members.
func (s *Session) engineConfig(n int) core.EngineConfig {
	agg := s.agg
	if agg == nil {
		k := 5
		if n < k {
			k = n
		}
		agg = crowd.NewMeanAggregator(k, s.Theta())
	} else if r, ok := agg.(crowd.Resetter); ok {
		// Each run is independent: a re-run Session (a long-lived server
		// restarting the same query) must not start pre-decided by the
		// previous run's accumulated answers.
		r.Reset()
	}
	maxMSPs := 0
	if s.query.Limit > 0 && !s.query.Diverse {
		maxMSPs = s.query.Limit
	}
	return core.EngineConfig{
		Theta:                 s.Theta(),
		Aggregator:            agg,
		SpecializationRatio:   s.specRatio,
		MaxQuestionsPerMember: s.maxPerMember,
		Consistency:           s.consistency,
		MaxMSPs:               maxMSPs,
		OnMSP:                 s.onMSP,
		Seed:                  s.seed,
		AnswerDeadline:        s.answerDeadline,
		MaxAnswerTimeouts:     s.maxTimeouts,
		Clock:                 s.clock,
		RecordTranscript:      s.transcript,
		Obs:                   s.obsv,
	}
}

// memberMatches checks the crowd-selection conjuncts against a member's
// profile attributes.
func memberMatches(m Member, filter []oassisql.AttrMatch) bool {
	attributed, ok := m.(crowd.Attributed)
	if !ok {
		return false
	}
	for _, f := range filter {
		v, ok := attributed.Attribute(f.Attr)
		if !ok || v != f.Value {
			return false
		}
	}
	return true
}

// applyLimit enforces the query's LIMIT clause on the answer set: a plain
// LIMIT truncates (the engine already stopped early), LIMIT ... DIVERSE
// selects the k semantically most diverse answers from the full result.
func (s *Session) applyLimit(res *Result) {
	k := s.query.Limit
	if k <= 0 {
		return
	}
	if s.query.Diverse {
		res.ValidMSPs = core.Diversify(s.space, res.ValidMSPs, k)
		res.MSPs = core.Diversify(s.space, res.MSPs, k)
		return
	}
	if len(res.ValidMSPs) > k {
		res.ValidMSPs = res.ValidMSPs[:k]
	}
	if len(res.MSPs) > k {
		res.MSPs = res.MSPs[:k]
	}
}

// RunSingle mines a single member with the chosen strategy (Algorithm 1 and
// the Section 6.4 baselines).
func (s *Session) RunSingle(m Member, strategy Strategy) (*Result, error) {
	maxMSPs := 0
	if s.query.Limit > 0 && !s.query.Diverse {
		maxMSPs = s.query.Limit
	}
	run := &core.SingleUser{
		Space:               s.space,
		Member:              m,
		Theta:               s.Theta(),
		Strategy:            strategy,
		SpecializationRatio: s.specRatio,
		Seed:                s.seed,
		MaxMSPs:             maxMSPs,
		OnMSP:               s.onMSP,
		Obs:                 s.obsv,
	}
	res := run.Run()
	s.applyLimit(res)
	return res, nil
}

// FactSets instantiates assignments into the fact-set answers the query
// requested (SELECT FACT-SETS).
func (s *Session) FactSets(as []*Assignment) []FactSet {
	out := make([]FactSet, len(as))
	for i, a := range as {
		out[i] = s.space.Instantiate(a)
	}
	return out
}

// Binding is one SELECT VARIABLES answer row: each mining variable's value
// names (multiplicities give several).
type Binding map[string][]string

// Bindings renders assignments as variable-binding answers (SELECT
// VARIABLES). Variables with empty value sets are omitted from a row.
func (s *Session) Bindings(as []*Assignment) []Binding {
	v := s.store.Vocabulary()
	kinds := s.space.Kinds()
	out := make([]Binding, len(as))
	for i, a := range as {
		row := Binding{}
		for _, name := range a.Vars() {
			vals := a.Values(name)
			names := make([]string, len(vals))
			for j, id := range vals {
				if kinds[name] == vocab.Relation {
					names[j] = v.RelationName(id)
				} else {
					names[j] = v.ElementName(id)
				}
			}
			row[name] = names
		}
		out[i] = row
	}
	return out
}

// Answers renders the result in the form the query requested: fact-set
// sentences for SELECT FACT-SETS, "var = value" rows for SELECT VARIABLES.
func (s *Session) Answers(res *Result) []string {
	items := res.ValidMSPs
	if s.query.All {
		items = res.Significant
	}
	out := make([]string, 0, len(items))
	if s.query.Form == oassisql.Variables {
		for _, b := range s.Bindings(items) {
			var parts []string
			names := make([]string, 0, len(b))
			for n := range b {
				names = append(names, n)
			}
			sort.Strings(names)
			for _, n := range names {
				parts = append(parts, "$"+n+" = "+strings.Join(b[n], ", "))
			}
			out = append(out, strings.Join(parts, "; "))
		}
		return out
	}
	for _, fs := range s.FactSets(items) {
		out = append(out, s.DescribeAnswer(fs))
	}
	return out
}

// Describe renders a fact-set as the question the crowd would see.
func (s *Session) Describe(fs FactSet) string {
	return s.renderer.ConcreteQuestion(fs)
}

// DescribeAnswer renders a mined fact-set as an answer statement (the
// result presentation of the prototype UI).
func (s *Session) DescribeAnswer(fs FactSet) string {
	return s.renderer.AnswerStatement(fs)
}

// DescribeAssignment renders an assignment's variable bindings.
func (s *Session) DescribeAssignment(a *Assignment) string {
	return a.String(s.store.Vocabulary(), s.space.Kinds())
}

// IsValid reports strict query validity of an assignment (M ∩ 𝒜valid).
func (s *Session) IsValid(a *Assignment) bool { return s.space.IsValid(a) }

// Rule is a mined association rule (the OASSIS-QL rule-mining extension).
type Rule = rules.Rule

// MineRules derives association rules from a completed run at the query's
// CONFIDENCE threshold (or the given minimum when the query has none). No
// further crowd questions are asked: confidences come from the supports the
// run already collected.
func (s *Session) MineRules(res *Result, minConfidence float64) []Rule {
	if c := s.query.Satisfying.Confidence; c > 0 {
		minConfidence = c
	}
	return rules.Mine(s.space, res, s.Theta(), minConfidence)
}

// DescribeRule renders a rule in natural language.
func (s *Session) DescribeRule(r Rule) string {
	return s.renderer.RuleStatement(r.Antecedent, r.Consequent, r.Confidence)
}
