package sparql_test

import (
	"fmt"
	"testing"

	"oassis/internal/ontology"
	"oassis/internal/paperdata"
	"oassis/internal/sparql"
	"oassis/internal/vocab"
)

func benchBGP(v *vocab.Vocabulary) sparql.BGP {
	rel := func(name string) vocab.TermID { return v.Relation(name) }
	el := func(name string) vocab.TermID { return v.Element(name) }
	return sparql.BGP{
		{S: sparql.VarTerm("w"), P: sparql.ConstTerm(rel("subClassOf")), O: sparql.ConstTerm(el("Attraction")), Star: true},
		{S: sparql.VarTerm("x"), P: sparql.ConstTerm(rel("instanceOf")), O: sparql.VarTerm("w")},
		{S: sparql.VarTerm("x"), P: sparql.ConstTerm(rel("inside")), O: sparql.ConstTerm(el("NYC"))},
		{S: sparql.VarTerm("x"), P: sparql.ConstTerm(rel("hasLabel")), O: sparql.LiteralTerm("child-friendly")},
		{S: sparql.VarTerm("y"), P: sparql.ConstTerm(rel("subClassOf")), O: sparql.ConstTerm(el("Activity")), Star: true},
		{S: sparql.VarTerm("z"), P: sparql.ConstTerm(rel("instanceOf")), O: sparql.ConstTerm(el("Restaurant"))},
		{S: sparql.VarTerm("z"), P: sparql.ConstTerm(rel("nearBy")), O: sparql.VarTerm("x")},
	}
}

// BenchmarkWhereEval runs the WHERE stage on the Figure 2 query over the
// Figure 1 ontology: compile plus a full Stream, and a full Stream of a
// pre-compiled reused plan.
func BenchmarkWhereEval(b *testing.B) {
	v, s := paperdata.Build()
	bgp := benchBGP(v)
	e := sparql.NewEvaluator(s)

	b.Run("compiled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			pl, err := e.Compile(bgp)
			if err != nil {
				b.Fatal(err)
			}
			if pl.Stream(nil, func([]vocab.TermID) bool { return true }) == 0 {
				b.Fatal("no rows")
			}
		}
	})
	b.Run("compiled-reused", func(b *testing.B) {
		pl, err := e.Compile(bgp)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if pl.Stream(nil, func([]vocab.TermID) bool { return true }) == 0 {
				b.Fatal("no rows")
			}
		}
	})
}

// BenchmarkPlanCache compares a cold Compile against a shared-cache hit:
// the hit path hashes the query shape, rebinds the cached plan to the
// caller's variable names and skips compilation entirely, which is what
// keeps repeated NewSession setup at the reused-plan level.
func BenchmarkPlanCache(b *testing.B) {
	v, s := paperdata.Build()
	bgp := benchBGP(v)

	b.Run("compile-cold", func(b *testing.B) {
		e := sparql.NewEvaluator(s)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := e.Compile(bgp); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cache-hit", func(b *testing.B) {
		e := sparql.NewEvaluator(s).UseSharedCache()
		if _, err := e.Compile(bgp); err != nil { // warm the shared entry
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := e.Compile(bgp); err != nil {
				b.Fatal(err)
			}
		}
		hits, _, _ := e.Cache.Stats()
		if hits < int64(b.N) {
			b.Fatalf("expected >= %d cache hits, got %d", b.N, hits)
		}
	})
}

// semStarStore builds a store sized past the semantic scan floor for star
// queries with a free subject: a place taxonomy (Place → 10 regions → 10
// cities each) and 2,000 items under 20 categories of one Item root, each
// item locatedIn one city and tagged with one of 8 tags under one Tag root.
func semStarStore() (*ontology.Store, func(string) vocab.TermID) {
	v := vocab.New()
	order := func(general, specific vocab.TermID) {
		if err := v.OrderElements(general, specific); err != nil {
			panic(err)
		}
	}
	place, item := v.MustElement("Place"), v.MustElement("Item")
	var cities, cats, tags []vocab.TermID
	for r := 0; r < 10; r++ {
		region := v.MustElement(fmt.Sprintf("region%d", r))
		order(place, region)
		for c := 0; c < 10; c++ {
			city := v.MustElement(fmt.Sprintf("city%d_%d", r, c))
			order(region, city)
			cities = append(cities, city)
		}
	}
	for c := 0; c < 20; c++ {
		cat := v.MustElement(fmt.Sprintf("cat%d", c))
		order(item, cat)
		cats = append(cats, cat)
	}
	tag := v.MustElement("Tag")
	for t := 0; t < 8; t++ {
		tags = append(tags, v.MustElement(fmt.Sprintf("tag%d", t)))
		order(tag, tags[t])
	}
	locatedIn, tagged := v.MustRelation("locatedIn"), v.MustRelation("tagged")
	items := make([]vocab.TermID, 2000)
	for i := range items {
		items[i] = v.MustElement(fmt.Sprintf("item%d", i))
		order(cats[i%len(cats)], items[i])
	}
	if err := v.Freeze(); err != nil {
		panic(err)
	}
	s := ontology.NewStore(v)
	for i, it := range items {
		s.MustAdd(ontology.Fact{S: it, P: locatedIn, O: cities[(i*37)%len(cities)]})
		s.MustAdd(ontology.Fact{S: it, P: tagged, O: tags[(i*11)%len(tags)]})
	}
	s.Freeze()
	return s, v.Element
}

// semStarBGP is the semantic star `$x locatedIn <anchor> . $x tagged $t`:
// $x is free in the first pattern, so it ranges over every generalization
// of each located item (item, category, Item); the tag pattern then runs
// with $x bound and $t ranging over each tag and Tag.
func semStarBGP(s *ontology.Store, anchor vocab.TermID) sparql.BGP {
	v := s.Vocabulary()
	return sparql.BGP{
		{S: sparql.VarTerm("x"), P: sparql.ConstTerm(v.Relation("locatedIn")), O: sparql.ConstTerm(anchor)},
		{S: sparql.VarTerm("x"), P: sparql.ConstTerm(v.Relation("tagged")), O: sparql.VarTerm("t")},
	}
}

// BenchmarkSemanticWhere streams a warm compiled semantic star with a free
// subject over a store past the scan floor: candidate cones come from the
// store's memo and generalizations from the vocabulary's Freeze-built
// lists, so the per-run allocation count stays flat however many rows
// stream.
func BenchmarkSemanticWhere(b *testing.B) {
	s, el := semStarStore()
	e := sparql.NewEvaluator(s)
	e.Semantic = true
	pl, err := e.Compile(semStarBGP(s, el("region3")))
	if err != nil {
		b.Fatal(err)
	}
	rows := pl.Stream(nil, func([]vocab.TermID) bool { return true })
	if rows == 0 {
		b.Fatal("no rows")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pl.Stream(nil, func([]vocab.TermID) bool { return true })
	}
	b.ReportMetric(float64(rows), "rows/op")
}
