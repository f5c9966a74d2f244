// Command oassis evaluates an OASSIS-QL query against an ontology with a
// simulated crowd, printing the maximal significant patterns (MSPs) the
// paper's engine would return.
//
// Usage:
//
//	oassis -ontology onto.txt -crowd crowd.txt -query query.oql [flags]
//
// The ontology file uses the textual triple format (see README), the crowd
// file holds one personal database per member, and the query file holds one
// OASSIS-QL query. Typical session:
//
//	oassis-gen -domain travel -members 60 -out ./data
//	oassis -ontology data/ontology.txt -crowd data/crowd.txt -query data/query.oql
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"

	"oassis"
)

// loadPool reads a MORE-fact pool file: one "subject predicate object" fact
// per line, # comments allowed.
func loadPool(path string, v *oassis.Vocabulary) (oassis.FactSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var facts []oassis.Fact
	scanner := bufio.NewScanner(f)
	for scanner.Scan() {
		line := strings.TrimSpace(scanner.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fact, err := oassis.ParseFact(line, v)
		if err != nil {
			return nil, err
		}
		facts = append(facts, fact)
	}
	if err := scanner.Err(); err != nil {
		return nil, err
	}
	return oassis.NewFactSet(facts...), nil
}

func main() {
	var (
		ontologyPath = flag.String("ontology", "", "ontology file (textual triple format)")
		crowdPath    = flag.String("crowd", "", "crowd file (personal databases)")
		queryPath    = flag.String("query", "", "OASSIS-QL query file")
		morePath     = flag.String("morepool", "", "optional MORE-fact pool file (one fact per line)")
		seed         = flag.Int64("seed", 1, "random seed")
		k            = flag.Int("k", 5, "answers required per assignment")
		specRatio    = flag.Float64("spec-ratio", 0.12, "specialization-question ratio")
		maxPer       = flag.Int("max-per-member", 0, "cap questions per member (0 = unlimited)")
		pruneRatio   = flag.Float64("prune-ratio", 0.25, "members' user-guided-pruning click probability")
		showAll      = flag.Bool("all", false, "also print non-valid MSPs")
		verbose      = flag.Bool("v", false, "print per-run statistics")
		interactive  = flag.Bool("interactive", false, "answer the crowd questions yourself on stdin (no crowd file needed)")
		cachePath    = flag.String("cache", "", "answer-cache snapshot: loaded if present, saved after the run")
	)
	flag.Parse()
	if *ontologyPath == "" || *queryPath == "" || (*crowdPath == "" && !*interactive) {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(runConfig{
		ontologyPath: *ontologyPath, crowdPath: *crowdPath, queryPath: *queryPath,
		morePath: *morePath, cachePath: *cachePath,
		seed: *seed, k: *k, specRatio: *specRatio, maxPer: *maxPer,
		pruneRatio: *pruneRatio, showAll: *showAll, verbose: *verbose,
		interactive: *interactive,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "oassis:", err)
		os.Exit(1)
	}
}

// runConfig gathers the command's flags.
type runConfig struct {
	ontologyPath, crowdPath, queryPath, morePath, cachePath string

	seed                  int64
	k, maxPer             int
	specRatio, pruneRatio float64
	showAll, verbose      bool
	interactive           bool
}

func run(cfg runConfig) error {
	v, store, err := oassis.LoadOntologyFile(cfg.ontologyPath)
	if err != nil {
		return err
	}
	var members []oassis.Member
	k := cfg.k
	if cfg.interactive {
		// You are the crowd: one console member, one answer per
		// assignment.
		members = []oassis.Member{newConsoleMember("you", v, os.Stdin, os.Stdout)}
		k = 1
	} else {
		cf, err := os.Open(cfg.crowdPath)
		if err != nil {
			return err
		}
		sims, err := oassis.LoadCrowdSim(cf, v, cfg.seed)
		cf.Close()
		if err != nil {
			return err
		}
		for _, m := range sims {
			m.PruneRatio = cfg.pruneRatio
			members = append(members, m)
		}
	}
	// The answer store survives across runs when -cache is given
	// (Section 6.3: re-evaluating with a different threshold replays
	// collected answers).
	var answers *oassis.Platform
	if cfg.cachePath != "" {
		if f, err := os.Open(cfg.cachePath); err == nil {
			answers, err = oassis.LoadPlatform(f, v, oassis.PlatformConfig{})
			f.Close()
			if err != nil {
				return err
			}
		} else {
			answers = oassis.NewPlatform(oassis.PlatformConfig{})
		}
	}
	qb, err := os.ReadFile(cfg.queryPath)
	if err != nil {
		return err
	}
	q, err := oassis.ParseQuery(string(qb), v)
	if err != nil {
		return err
	}
	opts := []oassis.Option{
		oassis.WithSeed(cfg.seed),
		oassis.WithSpecializationRatio(cfg.specRatio),
		oassis.WithMaxQuestionsPerMember(cfg.maxPer),
		oassis.WithAggregator(oassis.NewMeanAggregator(k, q.Satisfying.Support)),
	}
	if cfg.morePath != "" {
		pool, err := loadPool(cfg.morePath, v)
		if err != nil {
			return err
		}
		opts = append(opts, oassis.WithMorePool(pool))
	}
	if answers != nil {
		opts = append(opts, oassis.WithPlatform(answers))
	}
	session, err := oassis.NewSession(store, q, opts...)
	if err != nil {
		return err
	}
	fmt.Printf("query: threshold %.2f, %d valid assignments, %d crowd members\n",
		session.Theta(), session.ValidAssignments(), len(members))
	res, err := session.Run(members)
	if err != nil {
		return err
	}
	fmt.Printf("\n%d valid MSPs:\n", len(res.ValidMSPs))
	for _, m := range res.ValidMSPs {
		fmt.Printf("  • %s\n", session.DescribeAnswer(session.FactSets([]*oassis.Assignment{m})[0]))
	}
	if cfg.cachePath != "" {
		f, err := os.Create(cfg.cachePath)
		if err != nil {
			return err
		}
		if err := answers.Save(f, v); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if cfg.showAll {
		fmt.Printf("\n%d MSPs in total (including non-valid generalizations):\n", len(res.MSPs))
		for _, m := range res.MSPs {
			valid := " "
			if session.IsValid(m) {
				valid = "*"
			}
			fmt.Printf("  %s %s\n", valid, session.DescribeAssignment(m))
		}
	}
	if cfg.verbose {
		s := res.Stats
		fmt.Printf("\nstatistics:\n")
		fmt.Printf("  questions:       %d (%d concrete, %d specialization)\n",
			s.Questions, s.ConcreteQ, s.SpecialQ)
		fmt.Printf("  none-of-these:   %d\n", s.NoneOfThese)
		fmt.Printf("  pruning clicks:  %d\n", s.PruneClicks)
		fmt.Printf("  free answers:    %d\n", s.AutoAnswers)
		fmt.Printf("  lazily generated assignments: %d\n", s.Generated)
	}
	return nil
}
