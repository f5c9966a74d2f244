// Package rules implements association-rule mining on top of OASSIS mining
// results — the extension the paper's language guide describes and its
// Related Work connects to the authors' earlier crowd-mining system [3]:
// from the supports collected while mining significant fact-sets, derive
// rules "people who do X also do Y" with their confidence.
//
// A rule comes from an ordered pair of answered assignments a ≤ b: the
// antecedent is a's fact-set, the consequent the facts b adds beyond a, and
// the confidence supp(b)/supp(a) — the fraction of antecedent occasions
// that also realize the consequent. No extra crowd questions are needed:
// every support was already collected by the mining run.
package rules

import (
	"sort"

	"oassis/internal/assign"
	"oassis/internal/core"
	"oassis/internal/ontology"
)

// Rule is one mined association rule over fact-sets.
type Rule struct {
	// Antecedent and Consequent partition the rule: "when Antecedent
	// holds on an occasion, Consequent also holds".
	Antecedent ontology.FactSet
	Consequent ontology.FactSet
	// Support is the aggregated support of the full pattern
	// (antecedent ∪ consequent).
	Support float64
	// Confidence is supp(antecedent ∪ consequent) / supp(antecedent).
	Confidence float64

	// From and To are the assignments behind the rule.
	From, To *assign.Assignment
}

// Mine derives association rules from a mining result: every answered pair
// a < b with supp(b) ≥ theta and confidence ≥ minConfidence yields a rule.
// Rules are returned most-confident first (ties by support, then key).
func Mine(sp *assign.Space, res *core.Result, theta, minConfidence float64) []Rule {
	// Collect the answered significant assignments.
	type node struct {
		a       *assign.Assignment
		support float64
	}
	var nodes []node
	for _, a := range res.Significant {
		if s, ok := res.SupportOf(a); ok && s > 0 {
			nodes = append(nodes, node{a: a, support: s})
		}
	}
	var out []Rule
	for _, from := range nodes {
		for _, to := range nodes {
			if from.a.Key() == to.a.Key() || !sp.Leq(from.a, to.a) {
				continue
			}
			if to.support < theta {
				continue
			}
			conf := to.support / from.support
			if conf > 1 {
				// Crowd noise can report a specialization as more
				// frequent than its generalization; clamp.
				conf = 1
			}
			if conf < minConfidence {
				continue
			}
			ante := sp.Instantiate(from.a)
			full := sp.Instantiate(to.a)
			cons := consequent(ante, full)
			if len(cons) == 0 {
				continue // identical fact-sets (distinct MORE forms)
			}
			out = append(out, Rule{
				Antecedent: ante,
				Consequent: cons,
				Support:    to.support,
				Confidence: conf,
				From:       from.a,
				To:         to.a,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Confidence != out[j].Confidence {
			return out[i].Confidence > out[j].Confidence
		}
		if out[i].Support != out[j].Support {
			return out[i].Support > out[j].Support
		}
		return out[i].To.Key() < out[j].To.Key()
	})
	return out
}

// consequent returns the facts of full that the antecedent does not already
// state — the new content the rule promises.
func consequent(ante, full ontology.FactSet) ontology.FactSet {
	var out []ontology.Fact
	for _, f := range full {
		implied := false
		for _, g := range ante {
			if f == g {
				implied = true
				break
			}
		}
		if !implied {
			out = append(out, f)
		}
	}
	return ontology.NewFactSet(out...)
}
