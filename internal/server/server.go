// Package server implements the crowdsourcing platform of the OASSIS
// prototype (Sections 6.1–6.2): a web service through which crowd members
// receive the engine's questions and submit answers. The paper's system
// served a PHP web UI backed by the QueueManager; here the same roles are
// an HTTP JSON API backed by the event-driven mining kernel:
//
//	POST /join?member=<id>        register as a crowd member
//	POST /start                   launch the mining run (once enough joined)
//	GET  /question?member=<id>    fetch your next question (404: none yet,
//	                              410: the run is over)
//	POST /answer                  submit an answer for a question
//	GET  /results                 the MSPs discovered so far (streamed
//	                              incrementally, final when done)
//
// The server is an oassis.Broker: the kernel posts Ask events, the HTTP
// handlers resolve them into Reply events as answers arrive from the
// network. Nothing blocks per member — a question is a pending slot, not
// a parked goroutine; a single reaper goroutine turns expired slots into
// departure events.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"sync"
	"time"

	"oassis"
	"oassis/internal/chaos"
	"oassis/internal/obs"
)

// Config parameterizes the platform.
type Config struct {
	// MinMembers gates /start.
	MinMembers int
	// AnswerTimeout bounds how long the engine waits for one member's
	// answer before treating them as departed (their session ends, as
	// Section 4.2 allows).
	AnswerTimeout time.Duration
	// AnswerRetries is how many extra AnswerTimeout windows a question
	// stays posted after its first deadline passes, covering members that
	// time out once and return. Only when every window expires is the
	// member declared departed and the question released for the engine
	// to reassign to the remaining crowd.
	AnswerRetries int
	// Clock is the platform's time source; nil uses the wall clock.
	// Chaos tests inject a chaos.VirtualClock to drive the deadline
	// machinery deterministically.
	Clock chaos.Clock
	// Obs, when set, instruments every endpoint (request counters and
	// latency by path), exposes the registry at GET /metrics, and counts
	// the platform's question lifecycle (posted, accepted, duplicate,
	// stale, expired, departed). Share the same observer with the session
	// (oassis.WithObserver) to scrape engine and platform in one place.
	Obs *oassis.Observer
	// EnablePprof mounts net/http/pprof under /debug/pprof/. Off by
	// default: profiling endpoints leak heap contents and must be a
	// deliberate, per-deployment choice.
	EnablePprof bool
}

// Server is the running platform.
type Server struct {
	cfg Config
	sm  *obs.ServerMetrics // non-nil; all fields no-ops when unobserved

	mu      sync.Mutex
	session *oassis.Session
	members map[string]*memberSlot
	started bool
	done    bool
	result  *oassis.Result
	runErr  error
	msps    []string // incrementally discovered answers (rendered)

	// fleet is the named query fleet for multi-query serving: sessions
	// registered with AttachNamed, selectable per run via
	// POST /start?query=<name>. fleetNames preserves registration order
	// (the first entry is the default current session).
	fleet      map[string]*oassis.Session
	fleetNames []string
	current    string // fleet name of the attached session ("" = unnamed)

	nextQID int64

	// reapNotify wakes the reaper when a new question is posted;
	// reapStop ends it when the run completes.
	reapNotify chan struct{}
	reapStop   chan struct{}
}

// New builds a platform; attach the query session with Attach before
// serving. Stream answers into the server with oassis.WithOnMSP:
//
//	srv := server.New(server.Config{MinMembers: 5})
//	var sess *oassis.Session
//	sess, err := oassis.NewSession(store, q,
//	    oassis.WithOnMSP(func(a *oassis.Assignment) {
//	        srv.RecordAnswer(sess.DescribeAssignment(a))
//	    }))
//	srv.Attach(sess)
func New(cfg Config) *Server {
	if cfg.MinMembers <= 0 {
		cfg.MinMembers = 1
	}
	if cfg.AnswerTimeout <= 0 {
		cfg.AnswerTimeout = 5 * time.Minute
	}
	if cfg.Clock == nil {
		cfg.Clock = chaos.Real()
	}
	return &Server{
		cfg:        cfg,
		sm:         cfg.Obs.ServerSet().OrNop(),
		members:    make(map[string]*memberSlot),
		reapNotify: make(chan struct{}, 1),
		reapStop:   make(chan struct{}),
	}
}

// Attach installs the session the platform evaluates. After a run has
// completed, Attach may be called again with the next query: the run
// state (results, answers, question slots) is reset while the joined
// crowd is kept, so one long-lived server — typically backed by a shared
// cross-query answer store via oassis.WithPlatform — serves query after
// query against the same members, and /start launches each in turn.
func (s *Server) Attach(session *oassis.Session) {
	s.mu.Lock()
	if s.done {
		s.resetRunLocked()
	}
	s.session = session
	s.current = ""
	s.mu.Unlock()
}

// AttachNamed registers a session under a name in the server's query fleet.
// Every registered query is selectable per run with POST /start?query=<name>
// and listed by GET /queries; the first registration also becomes the
// attached (default) session. Building the fleet's sessions over one
// ontology shares the store's plan cache, so a hot query shape compiles once
// across the fleet no matter how many sessions serve it.
func (s *Server) AttachNamed(name string, session *oassis.Session) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.fleet[name]; !ok {
		if s.fleet == nil {
			s.fleet = make(map[string]*oassis.Session)
		}
		s.fleetNames = append(s.fleetNames, name)
	}
	s.fleet[name] = session
	if s.session == nil {
		s.session = session
		s.current = name
	}
}

// selectQueryLocked switches the attached session to the named fleet entry.
// Callers hold s.mu and have already ensured no run is in flight.
func (s *Server) selectQueryLocked(name string) error {
	sess, ok := s.fleet[name]
	if !ok {
		return fmt.Errorf("unknown query %q", name)
	}
	if s.session != sess {
		if s.done {
			s.resetRunLocked()
		}
		s.session = sess
	}
	s.current = name
	return nil
}

// resetRunLocked clears a completed run so the next /start launches a
// fresh one. Members stay joined; question IDs keep increasing so a
// stale answer from a past run can never match a new question.
func (s *Server) resetRunLocked() {
	s.started, s.done = false, false
	s.result, s.runErr = nil, nil
	s.msps = nil
	for _, m := range s.members {
		m.pending, m.gone = nil, false
	}
	s.reapStop = make(chan struct{})
}

// attached returns the session installed with Attach.
func (s *Server) attached() *oassis.Session {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.session
}

// Result returns the finished run's result, or nil while the run is
// still in progress (or never started).
func (s *Server) Result() *oassis.Result {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.done {
		return nil
	}
	return s.result
}

// RecordAnswer appends one rendered answer to the incremental /results
// feed; wire it through oassis.WithOnMSP.
func (s *Server) RecordAnswer(text string) {
	s.mu.Lock()
	s.msps = append(s.msps, text)
	s.mu.Unlock()
}

// Handler returns the HTTP API. With Config.Obs every endpoint is wrapped
// with request counting and latency measurement, and GET /metrics serves the
// observer's registry as Prometheus text. /debug/pprof/ appears only when
// Config.EnablePprof is set.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /join", s.instrument("/join", s.handleJoin))
	mux.HandleFunc("POST /start", s.instrument("/start", s.handleStart))
	mux.HandleFunc("GET /question", s.instrument("/question", s.handleQuestion))
	mux.HandleFunc("POST /answer", s.instrument("/answer", s.handleAnswer))
	mux.HandleFunc("GET /results", s.instrument("/results", s.handleResults))
	mux.HandleFunc("GET /queries", s.instrument("/queries", s.handleQueries))
	mux.HandleFunc("GET /status", s.instrument("/status", s.handleStatus))
	if s.cfg.Obs != nil {
		mux.HandleFunc("GET /metrics", s.instrument("/metrics", s.handleMetrics))
		mux.HandleFunc("GET /members", s.instrument("/members", s.handleMembers))
		mux.HandleFunc("GET /journal", s.instrument("/journal", s.handleJournal))
	}
	if s.cfg.EnablePprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// statusWriter captures the response code for the request counter.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// instrument wraps a handler with per-endpoint request counting and latency
// measurement on the platform clock. Unobserved servers pass handlers
// through untouched — zero wrapping, zero overhead.
func (s *Server) instrument(path string, h http.HandlerFunc) http.HandlerFunc {
	if s.cfg.Obs == nil {
		return h
	}
	return func(w http.ResponseWriter, r *http.Request) {
		start := s.cfg.Clock.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h(sw, r)
		s.sm.Request(path, fmt.Sprintf("%d", sw.code), s.cfg.Clock.Now().Sub(start))
	}
}

// handleMetrics serves the observer's registry in the Prometheus text
// exposition format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.cfg.Obs.Registry.WritePrometheus(w)
}

// question is one pending question for a member, as served to clients.
type question struct {
	ID int64 `json:"id"`
	// Kind is "concrete" or "specialization".
	Kind string `json:"kind"`
	// Text is the rendered natural-language question.
	Text string `json:"text"`
	// Options lists the candidate refinements of a specialization
	// question; answer with choice = index, or -1 for none of these.
	Options []string `json:"options,omitempty"`
}

// pendingQ is a posted question awaiting its answer: the wire form, the
// kernel's Ask event, the continuation that resolves it, and the
// deadline after which the reaper declares the member departed.
type pendingQ struct {
	q        question
	ask      *oassis.Ask
	deliver  func(oassis.Reply)
	posted   time.Time
	deadline time.Time
}

// memberSlot is one registered member's mailbox slot. No goroutine is
// parked here: the slot holds at most one pending question, and the
// HTTP handlers or the reaper resolve it.
type memberSlot struct {
	id      string
	pending *pendingQ
	// gone marks a member who missed every answer window; their session
	// ended and the run continues with the surviving crowd.
	gone bool
	// lastAnswered is the most recent question ID the member resolved,
	// kept to distinguish a duplicate submission from a stale one.
	lastAnswered int64
}

// Post implements oassis.Broker: it renders the kernel's Ask into a
// pending question for the addressed member and returns immediately.
// The reply is delivered later — by handleAnswer when the member
// responds, or by the reaper when every answer window expires.
func (s *Server) Post(ask *oassis.Ask, deliver func(oassis.Reply)) {
	sess := s.attached()
	q := question{}
	switch ask.Kind {
	case oassis.ConcreteAsk:
		q.Kind = "concrete"
		q.Text = sess.Describe(ask.Target)
	case oassis.SpecializeAsk:
		q.Kind = "specialization"
		q.Text = sess.Describe(ask.Base)
		q.Options = make([]string, len(ask.Options))
		for i, c := range ask.Options {
			q.Options[i] = sess.Describe(c)
		}
	}
	now := s.cfg.Clock.Now()
	window := s.cfg.AnswerTimeout * time.Duration(1+s.cfg.AnswerRetries)

	s.mu.Lock()
	m := s.members[ask.Member]
	if m == nil || m.gone {
		s.mu.Unlock()
		deliver(oassis.Reply{Ask: ask, Outcome: oassis.ReplyDeparted, Choice: -1})
		return
	}
	s.nextQID++
	q.ID = s.nextQID
	m.pending = &pendingQ{
		q:        q,
		ask:      ask,
		deliver:  deliver,
		posted:   now,
		deadline: now.Add(window),
	}
	s.mu.Unlock()
	s.sm.Posted.Inc()

	select {
	case s.reapNotify <- struct{}{}:
	default:
	}
}

// reap is the single deadline watchdog: it sleeps until the earliest
// pending deadline, expires overdue questions into departure events, and
// re-arms. It replaces the per-member goroutines the mailbox design
// parked in blocking Ask* calls. stop is this run's stop channel — each
// /start launches a fresh reaper bound to its own run.
func (s *Server) reap(stop <-chan struct{}) {
	for {
		s.mu.Lock()
		var next time.Time
		for _, m := range s.members {
			if m.pending != nil && (next.IsZero() || m.pending.deadline.Before(next)) {
				next = m.pending.deadline
			}
		}
		s.mu.Unlock()

		if next.IsZero() {
			select {
			case <-s.reapNotify:
				continue
			case <-stop:
				return
			}
		}
		if d := next.Sub(s.cfg.Clock.Now()); d > 0 {
			select {
			case <-s.cfg.Clock.After(d):
			case <-s.reapNotify:
				continue
			case <-stop:
				return
			}
		}
		s.expire()
	}
}

// expire turns every overdue pending question into a departure event.
func (s *Server) expire() {
	now := s.cfg.Clock.Now()
	var fire []*pendingQ
	s.mu.Lock()
	for _, m := range s.members {
		if m.pending != nil && !m.pending.deadline.After(now) {
			pq := m.pending
			m.pending = nil
			m.gone = true
			fire = append(fire, pq)
		}
	}
	s.mu.Unlock()
	for _, pq := range fire {
		s.sm.Expired.Inc()
		s.sm.Departed.Inc()
		pq.deliver(oassis.Reply{Ask: pq.ask, Outcome: oassis.ReplyDeparted, Choice: -1})
	}
}

func (s *Server) handleJoin(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("member")
	if id == "" {
		http.Error(w, "member required", http.StatusBadRequest)
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		http.Error(w, "run already started", http.StatusConflict)
		return
	}
	if _, ok := s.members[id]; ok {
		http.Error(w, "member already joined", http.StatusConflict)
		return
	}
	s.members[id] = &memberSlot{id: id}
	writeJSON(w, map[string]any{"joined": id, "members": len(s.members)})
}

func (s *Server) handleStart(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	if s.started {
		if !s.done {
			s.mu.Unlock()
			http.Error(w, "already started", http.StatusConflict)
			return
		}
		// The previous run finished: /start again re-runs the attached
		// query against the same joined crowd. Behind a shared answer
		// store (oassis.WithPlatform) the re-run is served from cached
		// crowd answers. /results is kept until this point — a restart,
		// not completion, discards the previous run's feed.
		s.resetRunLocked()
	}
	if name := r.URL.Query().Get("query"); name != "" {
		// Multi-query serving: run one of the fleet's registered queries.
		// The session was built once (AttachNamed) against the shared plan
		// cache, so switching queries never recompiles a known shape.
		if err := s.selectQueryLocked(name); err != nil {
			s.mu.Unlock()
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
	}
	if len(s.members) < s.cfg.MinMembers {
		n := len(s.members)
		s.mu.Unlock()
		http.Error(w, fmt.Sprintf("need %d members, have %d", s.cfg.MinMembers, n),
			http.StatusPreconditionFailed)
		return
	}
	sess := s.session
	if sess == nil {
		s.mu.Unlock()
		http.Error(w, "no session attached", http.StatusInternalServerError)
		return
	}
	s.started = true
	ids := make([]string, 0, len(s.members))
	for id := range s.members {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	stop := s.reapStop
	s.mu.Unlock()

	go s.reap(stop)
	go func() {
		res, err := sess.RunBroker(ids, s)
		s.mu.Lock()
		s.done = true
		s.result = res
		s.runErr = err
		s.mu.Unlock()
		close(stop)
	}()
	writeJSON(w, map[string]any{"started": true, "members": len(ids)})
}

func (s *Server) handleQuestion(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("member")
	s.mu.Lock()
	m, ok := s.members[id]
	done := s.done
	var pending *pendingQ
	var gone bool
	if ok {
		pending, gone = m.pending, m.gone
	}
	s.mu.Unlock()
	if !ok {
		http.Error(w, "unknown member", http.StatusNotFound)
		return
	}
	if done {
		http.Error(w, "run complete", http.StatusGone)
		return
	}
	if gone {
		// The member missed every answer window; their session ended.
		http.Error(w, "member departed", http.StatusGone)
		return
	}
	if pending == nil {
		http.Error(w, "no question pending", http.StatusNotFound)
		return
	}
	writeJSON(w, pending.q)
}

// answerBody is the POST /answer payload.
type answerBody struct {
	Member   string  `json:"member"`
	Question int64   `json:"question"`
	Support  float64 `json:"support"`
	// Choice answers a specialization question (-1 = none of these).
	Choice int `json:"choice"`
}

// maxAnswerBody caps a POST /answer body. A well-formed answer is well
// under 200 bytes; the cap keeps a hostile client from making the decoder
// buffer an unbounded value.
const maxAnswerBody = 64 << 10

func (s *Server) handleAnswer(w http.ResponseWriter, r *http.Request) {
	var body answerBody
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxAnswerBody)).Decode(&body); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			http.Error(w, "answer body too large", http.StatusRequestEntityTooLarge)
			return
		}
		http.Error(w, "bad json: "+err.Error(), http.StatusBadRequest)
		return
	}
	if body.Support < 0 || body.Support > 1 {
		http.Error(w, "support out of [0,1]", http.StatusBadRequest)
		return
	}
	s.mu.Lock()
	m, ok := s.members[body.Member]
	if !ok {
		s.mu.Unlock()
		http.Error(w, "unknown member", http.StatusNotFound)
		return
	}
	if m.gone {
		s.mu.Unlock()
		http.Error(w, "member departed", http.StatusGone)
		return
	}
	pq := m.pending
	if pq == nil || pq.q.ID != body.Question {
		code := "no such pending question"
		if pq == nil && body.Question == m.lastAnswered && m.lastAnswered != 0 {
			// Duplicate submission: the first answer won.
			code = "question already answered"
			s.sm.Duplicates.Inc()
		} else {
			s.sm.Stale.Inc()
		}
		s.mu.Unlock()
		// Stale, out-of-order or duplicate submission: the question is
		// no longer (or was never) pending for this member.
		http.Error(w, code, http.StatusConflict)
		return
	}
	m.pending = nil
	m.lastAnswered = pq.q.ID
	s.mu.Unlock()
	s.sm.Accepted.Inc()

	pq.deliver(oassis.Reply{
		Ask:     pq.ask,
		Outcome: oassis.ReplyAnswered,
		Support: body.Support,
		Choice:  body.Choice,
		Elapsed: s.cfg.Clock.Now().Sub(pq.posted),
	})
	writeJSON(w, map[string]any{"accepted": true})
}

func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Render the answers in deterministic order regardless of the
	// interleaving in which they were discovered.
	answers := append([]string(nil), s.msps...)
	sort.Strings(answers)
	resp := map[string]any{
		"started": s.started,
		"done":    s.done,
		"answers": answers,
	}
	if s.runErr != nil {
		resp["error"] = s.runErr.Error()
	}
	if s.done && s.result != nil {
		resp["questions"] = s.result.Stats.Questions
		resp["departures"] = s.result.Stats.Departures
	}
	writeJSON(w, resp)
}

// handleStatus reports live run progress: the platform's lifecycle flags,
// and — when the server carries an Observer — the kernel's live counters
// and gauges plus the journal's totals and the newest run's arrival-curve
// tail. It is the "is it stuck or mining?" endpoint: watch border shrink
// and questions climb without scraping the full /metrics text.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	resp := map[string]any{
		"started": s.started,
		"done":    s.done,
		"members": len(s.members),
		"answers": len(s.msps),
	}
	if s.current != "" {
		resp["query"] = s.current
	}
	s.mu.Unlock()
	if o := s.cfg.Obs; o != nil {
		if km := o.KernelSet(); km != nil {
			resp["kernel"] = map[string]any{
				"rounds":     km.Rounds.Value(),
				"asks":       km.Asks.Value(),
				"questions":  km.Questions.Value(),
				"msps":       km.MSPs.Value(),
				"departures": km.Departures.Value(),
				"timeouts":   km.Timeouts.Value(),
				"in_flight":  km.InFlight.Value(),
				"border":     km.Border.Value(),
			}
		}
		if jr := o.JournalSet(); jr != nil {
			j := map[string]any{
				"events":  jr.Total(),
				"dropped": jr.Dropped(),
			}
			if run := jr.LastRun(); run != 0 {
				curve := jr.Curve(run)
				if len(curve) > 8 {
					curve = curve[len(curve)-8:]
				}
				j["run"] = run
				j["curve_tail"] = curve
			}
			resp["journal"] = j
		}
	}
	writeJSON(w, resp)
}

// handleMembers serves the per-member scorecards as JSON, sorted by member
// ID. 404 until the observer carries a scoreboard (oassis-serve
// -scorecards, or Observer.EnableScorecards).
func (s *Server) handleMembers(w http.ResponseWriter, r *http.Request) {
	b := s.cfg.Obs.BoardSet()
	if b == nil {
		http.Error(w, "scorecards not enabled", http.StatusNotFound)
		return
	}
	writeJSON(w, map[string]any{"members": b.Snapshot()})
}

// handleJournal streams the journal ring's most recent events as JSONL;
// ?n= bounds the tail (default 256, n<=0 for the whole surviving ring).
// 404 until the observer carries a journal.
func (s *Server) handleJournal(w http.ResponseWriter, r *http.Request) {
	jr := s.cfg.Obs.JournalSet()
	if jr == nil {
		http.Error(w, "journal not enabled", http.StatusNotFound)
		return
	}
	n := 256
	if v := r.URL.Query().Get("n"); v != "" {
		parsed, err := strconv.Atoi(v)
		if err != nil {
			http.Error(w, "bad n: "+err.Error(), http.StatusBadRequest)
			return
		}
		n = parsed
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	jr.WriteTailJSONL(w, n)
}

// handleQueries lists the registered query fleet: every AttachNamed name in
// registration order plus the currently attached selection.
func (s *Server) handleQueries(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	names := append([]string(nil), s.fleetNames...)
	current := s.current
	s.mu.Unlock()
	writeJSON(w, map[string]any{"queries": names, "current": current})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

var _ oassis.Broker = (*Server)(nil)
