// Command oassis-serve runs the crowdsourcing platform: an HTTP service
// through which real crowd members receive the engine's questions and
// submit answers (the paper's prototype web UI, as a JSON API).
//
//	oassis-serve -ontology onto.txt -query query.oql -addr :8080 -min-members 5
//
// Protocol (see internal/server):
//
//	POST /join?member=<id>      register
//	POST /start                 launch the run
//	GET  /question?member=<id>  poll your next question
//	POST /answer                {"member","question","support","choice"}
//	GET  /results               answers discovered so far
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"oassis"
	"oassis/internal/server"
)

func main() {
	var queryPaths []string
	flag.Func("query", "OASSIS-QL query file (repeat to serve a query fleet; select per run with POST /start?query=<name>)",
		func(p string) error {
			queryPaths = append(queryPaths, p)
			return nil
		})
	var (
		ontologyPath = flag.String("ontology", "", "ontology file")
		addr         = flag.String("addr", ":8080", "listen address")
		minMembers   = flag.Int("min-members", 3, "members required before /start")
		k            = flag.Int("k", 0, "answers per assignment (default: min(5, members))")
		timeout      = flag.Duration("answer-timeout", 5*time.Minute, "per-question member timeout")
		seed         = flag.Int64("seed", 1, "random seed")
		metrics      = flag.Bool("metrics", false, "serve Prometheus metrics on GET /metrics")
		pprofFlag    = flag.Bool("pprof", false, "serve runtime profiles on /debug/pprof (off by default: profiles expose heap contents)")
		sharedStore  = flag.Bool("shared-store", false, "share a cross-query answer store: repeated questions are served from cached crowd answers instead of re-asked, across every run this process serves")
		storeTTL     = flag.Duration("store-ttl", 0, "shared-store answer freshness window; stale answers are re-asked (0 = answers never expire)")
		storeMax     = flag.Int("store-max", 0, "shared-store size bound with LRU eviction (0 = unbounded)")
		journalPath  = flag.String("journal", "", "write the journal (crowd-run events and program spans) as JSONL to this file (implies an observer; every observer serves GET /journal)")
		scorecards   = flag.Bool("scorecards", false, "track per-member scorecards, served on GET /members and as oassis_member_* metrics (implies an observer)")
	)
	flag.Parse()
	if *ontologyPath == "" || len(queryPaths) == 0 {
		flag.Usage()
		os.Exit(2)
	}
	cfg := serveConfig{
		minMembers: *minMembers, k: *k, timeout: *timeout, seed: *seed,
		metrics: *metrics, pprof: *pprofFlag,
		sharedStore: *sharedStore, storeTTL: *storeTTL, storeMax: *storeMax,
		journal: *journalPath, scorecards: *scorecards,
	}
	if err := run(*ontologyPath, queryPaths, *addr, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "oassis-serve:", err)
		os.Exit(1)
	}
}

// Connection timeouts: a client that trickles its headers or body, or
// parks an idle keep-alive connection, cannot hold a connection open
// indefinitely. Handlers answer from memory, so no write timeout is set.
const (
	readHeaderTimeout = 10 * time.Second
	readTimeout       = 30 * time.Second
	idleTimeout       = 2 * time.Minute
)

// serveConfig carries the flag-derived server parameters.
type serveConfig struct {
	minMembers  int
	k           int
	timeout     time.Duration
	seed        int64
	metrics     bool
	pprof       bool
	sharedStore bool
	storeTTL    time.Duration
	storeMax    int
	journal     string
	scorecards  bool
}

func run(ontologyPath string, queryPaths []string, addr string, cfg serveConfig) error {
	_, store, err := oassis.LoadOntologyFile(ontologyPath)
	if err != nil {
		return err
	}
	// One Observer serves both layers: the session feeds it kernel, sparql
	// and space metrics, the platform feeds it HTTP and lifecycle
	// counters, and GET /metrics exposes the union.
	var o *oassis.Observer
	if cfg.metrics || cfg.journal != "" || cfg.scorecards {
		// -journal and -scorecards imply an observer even without -metrics,
		// so the flags compose instead of silently no-opping.
		o = oassis.NewObserver()
	}
	if cfg.journal != "" {
		f, err := os.Create(cfg.journal)
		if err != nil {
			return err
		}
		defer f.Close()
		// The journal flushes its sink at every run end, so the JSONL file
		// is replayable after each completed run even though the process
		// normally exits via signal.
		o.JournalSet().SetSink(f)
	}
	if cfg.scorecards {
		o.EnableScorecards()
	}
	// Shared-store mode: a long-lived answer platform outlives any one
	// run, so a re-attached query (or one served concurrently elsewhere
	// in the process) reuses the crowd's answers instead of re-asking.
	// Its cross-query hit/miss counters land on the same obs registry.
	var answerStore *oassis.Platform
	if cfg.sharedStore {
		answerStore = oassis.NewPlatform(oassis.PlatformConfig{
			TTL:        cfg.storeTTL,
			MaxEntries: cfg.storeMax,
			Obs:        o,
		})
	}
	srv := server.New(server.Config{
		MinMembers:    cfg.minMembers,
		AnswerTimeout: cfg.timeout,
		Obs:           o,
		EnablePprof:   cfg.pprof,
	})
	// Build one session per query file, all over the same frozen store:
	// the store's shared plan cache means a repeated WHERE shape across the
	// fleet compiles exactly once, and every session's rows stream straight
	// into space construction. The first query is the default; each is
	// selectable per run with POST /start?query=<name>.
	names := fleetNames(queryPaths)
	for i, qp := range queryPaths {
		qb, err := os.ReadFile(qp)
		if err != nil {
			return err
		}
		q, err := oassis.ParseQuery(string(qb), store.Vocabulary())
		if err != nil {
			return fmt.Errorf("%s: %w", qp, err)
		}
		opts := []oassis.Option{
			oassis.WithSeed(cfg.seed),
		}
		if o != nil {
			opts = append(opts, oassis.WithObserver(o))
		}
		if answerStore != nil {
			opts = append(opts, oassis.WithPlatform(answerStore))
		}
		if cfg.k > 0 {
			opts = append(opts, oassis.WithAggregator(oassis.NewMeanAggregator(cfg.k, q.Satisfying.Support)))
		}
		var sess *oassis.Session
		opts = append(opts, oassis.WithOnMSP(func(a *oassis.Assignment) {
			fs := sess.FactSets([]*oassis.Assignment{a})[0]
			text := sess.DescribeAnswer(fs)
			srv.RecordAnswer(text)
			fmt.Println("answer:", text)
		}))
		sess, err = oassis.NewSession(store, q, opts...)
		if err != nil {
			return fmt.Errorf("%s: %w", qp, err)
		}
		srv.AttachNamed(names[i], sess)
		fmt.Printf("oassis-serve: query %q with %d valid assignments, threshold %.2f\n",
			names[i], sess.ValidAssignments(), sess.Theta())
	}
	fmt.Printf("oassis-serve: listening on %s (POST /join, then /start)\n", addr)
	if len(queryPaths) > 1 {
		fmt.Printf("oassis-serve: %d queries attached; select with POST /start?query=<name> (GET /queries lists them)\n",
			len(queryPaths))
	}
	if answerStore != nil {
		fmt.Printf("oassis-serve: shared answer store enabled (ttl=%v, max=%d)\n", cfg.storeTTL, cfg.storeMax)
	}
	if o != nil {
		// One line summarizing every live observability feature, so a
		// misremembered flag is visible at startup rather than as a 404.
		var feats []string
		if cfg.metrics {
			feats = append(feats, "metrics on /metrics")
		}
		feats = append(feats, "journal tail on /journal")
		if cfg.journal != "" {
			feats = append(feats, fmt.Sprintf("journal to %s", cfg.journal))
		}
		if cfg.scorecards {
			feats = append(feats, "member scorecards on /members")
		}
		fmt.Printf("oassis-serve: observability: %s; live run status on GET /status\n",
			strings.Join(feats, ", "))
	}
	if cfg.pprof {
		fmt.Printf("oassis-serve: profiling on %s/debug/pprof/\n", addr)
	}
	hs := &http.Server{
		Addr:              addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
	return hs.ListenAndServe()
}

// fleetNames derives a unique fleet name per query file: the file's base
// name without extension, suffixed with its position on collision.
func fleetNames(paths []string) []string {
	names := make([]string, len(paths))
	seen := make(map[string]bool, len(paths))
	for i, p := range paths {
		n := strings.TrimSuffix(filepath.Base(p), filepath.Ext(p))
		if n == "" || seen[n] {
			n = fmt.Sprintf("%s-%d", n, i)
		}
		seen[n] = true
		names[i] = n
	}
	return names
}
