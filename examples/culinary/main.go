// Culinary reproduces the paper's second application domain (Section 6.3):
// mining popular combinations of dishes and drinks, e.g. for composing new
// restaurant menus. It demonstrates threshold re-evaluation: the query runs
// at support 0.2, and then again at 0.4 with one answer platform replaying
// the collected answers instead of bothering the crowd again.
//
//	go run ./examples/culinary
package main

import (
	"fmt"
	"log"
	"strings"

	"oassis"
)

const ontologyText = `
Dish subClassOf Food
Drink subClassOf Food
Snack subClassOf Dish
"Health Food" subClassOf Dish
"Main Course" subClassOf Dish
Fries subClassOf Snack
Pretzel subClassOf Snack
Muesli subClassOf "Health Food"
Salad subClassOf "Health Food"
Steak subClassOf "Main Course"
Pizza subClassOf "Main Course"
Pasta subClassOf "Main Course"
Soda subClassOf Drink
Juice subClassOf Drink
Coke subClassOf Soda
Lemonade subClassOf Soda
"Apple Juice" subClassOf Juice
"Orange Juice" subClassOf Juice
Water subClassOf Drink

@relation servedWith
`

// The query: which dish classes are frequently had with which drinks?
const queryTemplate = `
SELECT FACT-SETS
WHERE
  $d subClassOf* Dish.
  $k subClassOf* Drink
SATISFYING
  $d+ servedWith $k
WITH SUPPORT = %g CONFIDENCE = 0.6
`

// The crowd: meal histories embedding the paper's two reported findings —
// steak with fries and a coke, and muesli with apple juice.
const crowdText = `
member diner-1
Steak servedWith Coke . Fries servedWith Coke
Steak servedWith Coke . Fries servedWith Coke
Muesli servedWith "Apple Juice"
Pizza servedWith Lemonade
Salad servedWith Water
member diner-2
Steak servedWith Coke . Fries servedWith Coke
Muesli servedWith "Apple Juice"
Muesli servedWith "Apple Juice"
Pasta servedWith Water
member diner-3
Steak servedWith Coke
Fries servedWith Coke
Muesli servedWith "Apple Juice"
Pizza servedWith Coke
member diner-4
Steak servedWith Coke . Fries servedWith Coke
Muesli servedWith "Apple Juice"
Salad servedWith "Orange Juice"
Pretzel servedWith Lemonade
`

func main() {
	v, store, err := oassis.LoadOntology(strings.NewReader(ontologyText))
	if err != nil {
		log.Fatal(err)
	}
	members, err := oassis.LoadCrowd(strings.NewReader(crowdText), v, 7)
	if err != nil {
		log.Fatal(err)
	}

	// One platform shared by both runs: the second run replays answers.
	answers := oassis.NewPlatform(oassis.PlatformConfig{})

	for _, theta := range []float64{0.2, 0.4} {
		missesBefore := answers.Stats().Misses
		q, err := oassis.ParseQuery(fmt.Sprintf(queryTemplate, theta), v)
		if err != nil {
			log.Fatal(err)
		}
		session, err := oassis.NewSession(store, q,
			oassis.WithSeed(2),
			oassis.WithAggregator(oassis.NewMeanAggregator(4, theta)),
			oassis.WithPlatform(answers),
		)
		if err != nil {
			log.Fatal(err)
		}
		res, err := session.Run(members)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("threshold %.1f — %d answers consumed, %d fresh crowd questions:\n",
			theta, res.Stats.Questions, answers.Stats().Misses-missesBefore)
		for _, fs := range session.FactSets(res.ValidMSPs) {
			fmt.Printf("  • %s\n", session.DescribeAnswer(fs))
		}
		// The CONFIDENCE clause requests association rules, derived from
		// the supports the run already collected.
		if rules := session.MineRules(res, 0); len(rules) > 0 {
			fmt.Println("  rules:")
			for i, r := range rules {
				if i >= 3 {
					break
				}
				fmt.Printf("    - %s\n", session.DescribeRule(r))
			}
		}
		fmt.Println()
	}
	stats := answers.Stats()
	fmt.Printf("platform: %d stored answers, %d hits overall\n", stats.Entries, stats.Hits)
}
