// Package synth generates the synthetic workloads of the OASSIS evaluation:
// layered assignment DAGs of configurable width and depth with planted MSPs
// (Section 6.4 — uniform/near/far distributions, multiplicity MSPs, oracle
// crowd members), and the three "real crowd" application domains (travel,
// culinary, self-treatment — Section 6.3) with simulated crowds whose
// personal databases embed ground-truth popular patterns.
package synth

import (
	"fmt"
	"math/rand"

	"oassis/internal/assign"
	"oassis/internal/crowd"
	"oassis/internal/oassisql"
	"oassis/internal/obs"
	"oassis/internal/ontology"
	"oassis/internal/sparql"
	"oassis/internal/vocab"
)

// Distribution selects how planted MSPs spread over the DAG (Section 6.4).
type Distribution uint8

const (
	// Uniform plants MSPs uniformly at random (kept incomparable).
	Uniform Distribution = iota
	// Near biases toward MSPs within 4 DAG hops of each other.
	Near
	// Far biases toward MSPs at least 6 DAG hops apart.
	Far
)

func (d Distribution) String() string {
	switch d {
	case Near:
		return "near"
	case Far:
		return "far"
	default:
		return "uniform"
	}
}

// DAGConfig parameterizes a synthetic assignment DAG.
type DAGConfig struct {
	// Width is the maximum layer width (500–2000 in the paper).
	Width int
	// Depth is the number of layers below the cap (4–7 in the paper).
	Depth int
	// MSPPercent is the fraction of DAG nodes planted as MSPs
	// (0.01–0.10 in the paper).
	MSPPercent float64
	// Distribution spreads the MSPs (uniform/near/far).
	Distribution Distribution
	// MultiMSPPercent plants additional MSPs with multiplicities
	// (value sets), as a fraction of nodes (0–0.05 in the paper).
	MultiMSPPercent float64
	// MultiMSPSize is the value-set size of multiplicity MSPs (1–4).
	MultiMSPSize int
	// Places sizes the second mining dimension: the DAG mirrors the
	// travel query's two variables (an item taxonomy and a small place
	// taxonomy), which is what gives user-guided pruning its bite.
	// 0 means the default of 3.
	Places int
	// Seed drives all randomness.
	Seed int64
	// Obs, when set, observes the DAG's query pipeline (WHERE compile /
	// eval metrics, the space_build span in its journal).
	Obs *obs.Observer
}

// DAG is a generated synthetic workload: the assignment space, the planted
// ground truth and an answer oracle.
type DAG struct {
	Space *assign.Space
	Query *oassisql.Query
	// Plan is the compiled WHERE plan behind Space; with DAGConfig.Obs
	// set, Plan.Explain reports actual per-operator cardinalities.
	Plan    *sparql.Plan
	Vocab   *vocab.Vocabulary
	Store   *ontology.Store
	Planted []*assign.Assignment
	// Nodes is the number of single-value assignments in the DAG
	// (the eager size without multiplicities).
	Nodes int

	elements []vocab.TermID // item-taxonomy node elements, topo order
	places   []vocab.TermID // place-taxonomy leaves
}

// The DAG mirrors the travel query's two mining variables: an item from the
// big layered taxonomy and a place from a small one (Section 6.4 built its
// DAGs "similar to the one generated in our crowd experiments with the
// travel query"). dagQueryMult allows multiplicities on the item variable.
const (
	dagQueryMult = "SELECT FACT-SETS WHERE $y subClassOf* Stuff. $p subClassOf* Somewhere SATISFYING $y+ doAt $p WITH SUPPORT = 0.5"
	dagQuery     = "SELECT FACT-SETS WHERE $y subClassOf* Stuff. $p subClassOf* Somewhere SATISFYING $y doAt $p WITH SUPPORT = 0.5"
)

// NewDAG generates a synthetic DAG per the config.
func NewDAG(cfg DAGConfig) (*DAG, error) {
	if cfg.Width < 2 || cfg.Depth < 2 {
		return nil, fmt.Errorf("synth: width %d / depth %d too small", cfg.Width, cfg.Depth)
	}
	if cfg.Places == 0 {
		cfg.Places = 3
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	v := vocab.New()
	root := v.MustElement("Stuff")
	placeRoot := v.MustElement("Somewhere")
	v.MustRelation("doAt")
	sub := v.MustRelation(ontology.RelSubClassOf)

	// Layer widths grow geometrically toward cfg.Width at the last layer.
	widths := layerWidths(cfg.Width, cfg.Depth)
	store := ontology.NewStore(v)
	var all []vocab.TermID
	prev := []vocab.TermID{root}
	for l, w := range widths {
		cur := make([]vocab.TermID, 0, w)
		for i := 0; i < w; i++ {
			id := v.MustElement(fmt.Sprintf("n%d_%d", l, i))
			cur = append(cur, id)
			all = append(all, id)
			nParents := 1 + rng.Intn(2)
			seen := map[vocab.TermID]bool{}
			for p := 0; p < nParents; p++ {
				parent := prev[rng.Intn(len(prev))]
				if seen[parent] {
					continue
				}
				seen[parent] = true
				if err := v.OrderElements(parent, id); err != nil {
					return nil, err
				}
				store.MustAdd(ontology.Fact{S: id, P: sub, O: parent})
			}
		}
		prev = cur
	}
	var places []vocab.TermID
	for i := 0; i < cfg.Places; i++ {
		id := v.MustElement(fmt.Sprintf("place_%d", i))
		if err := v.OrderElements(placeRoot, id); err != nil {
			return nil, err
		}
		store.MustAdd(ontology.Fact{S: id, P: sub, O: placeRoot})
		places = append(places, id)
	}
	if err := v.Freeze(); err != nil {
		return nil, err
	}
	store.Freeze()

	queryText := dagQuery
	if cfg.MultiMSPPercent > 0 {
		queryText = dagQueryMult
	}
	q, err := oassisql.Parse(queryText, v)
	if err != nil {
		return nil, err
	}
	space, plan, err := assign.BuildSpace(store, q, false, nil, cfg.Obs)
	if err != nil {
		return nil, err
	}
	d := &DAG{
		Space: space,
		Query: q,
		Plan:  plan,
		Vocab: v,
		Store: store,
		// Item nodes (+ the Stuff cap) times place nodes (+ cap).
		Nodes:    (len(all) + 1) * (cfg.Places + 1),
		elements: all,
		places:   places,
	}
	d.plant(cfg, rng)
	return d, nil
}

// layerWidths produces cfg.Depth layer sizes growing geometrically to width.
func layerWidths(width, depth int) []int {
	ws := make([]int, depth)
	// ratio r with first layer ~max(4, width / r^(depth-1)).
	r := 1.0
	for {
		first := float64(width)
		for i := 1; i < depth; i++ {
			first /= r
		}
		if first <= 8 || r > 4 {
			break
		}
		r += 0.25
	}
	cur := float64(width)
	for i := depth - 1; i >= 0; i-- {
		w := int(cur)
		if w < 2 {
			w = 2
		}
		ws[i] = w
		cur /= r
	}
	ws[depth-1] = width
	return ws
}

// assignmentOf wraps a place and an item-node set as an assignment for the
// DAG's query.
func (d *DAG) assignmentOf(place vocab.TermID, nodes ...vocab.TermID) *assign.Assignment {
	return assign.New(d.Vocab, d.Space.Kinds(), map[string][]vocab.TermID{
		"y": nodes,
		"p": {place},
	}, nil)
}

// randomPlace picks a place leaf most of the time, occasionally the root
// (so some MSPs generalize over the place dimension).
func (d *DAG) randomPlace(rng *rand.Rand) vocab.TermID {
	if rng.Float64() < 0.25 {
		return d.Vocab.Element("Somewhere")
	}
	return d.places[rng.Intn(len(d.places))]
}

// plant selects the ground-truth MSPs.
func (d *DAG) plant(cfg DAGConfig, rng *rand.Rand) {
	want := int(cfg.MSPPercent * float64(d.Nodes))
	if want < 1 {
		want = 1
	}
	candidates := append([]vocab.TermID{}, d.elements...)
	rng.Shuffle(len(candidates), func(i, j int) { candidates[i], candidates[j] = candidates[j], candidates[i] })

	antichain := func(cand *assign.Assignment) bool {
		for _, p := range d.Planted {
			if d.Space.Leq(p, cand) || d.Space.Leq(cand, p) {
				return false
			}
		}
		return true
	}
	var chosenItems []vocab.TermID
	distOK := func(t vocab.TermID) bool {
		if len(chosenItems) == 0 || cfg.Distribution == Uniform {
			return true
		}
		dist := d.hopDistance(t, chosenItems)
		if cfg.Distribution == Near {
			return dist <= 4
		}
		return dist >= 6
	}
	// First pass honours the distribution bias; a relaxed second pass
	// tops up if the bias is unsatisfiable. Candidates cycle through the
	// item nodes, pairing each with a random place.
	for _, pass := range []bool{true, false} {
		for _, t := range candidates {
			if len(d.Planted) >= want {
				break
			}
			if pass && !distOK(t) {
				continue
			}
			cand := d.assignmentOf(d.randomPlace(rng), t)
			if antichain(cand) {
				d.Planted = append(d.Planted, cand)
				chosenItems = append(chosenItems, t)
			}
		}
		if len(d.Planted) >= want {
			break
		}
	}
	// Multiplicity MSPs: incomparable item tuples at one place, kept
	// incomparable to the singleton MSPs as assignments.
	if cfg.MultiMSPPercent > 0 && cfg.MultiMSPSize > 1 {
		wantMulti := int(cfg.MultiMSPPercent * float64(d.Nodes))
		for tries := 0; tries < wantMulti*50 && wantMulti > 0; tries++ {
			var set []vocab.TermID
			for len(set) < cfg.MultiMSPSize {
				t := d.elements[rng.Intn(len(d.elements))]
				ok := true
				for _, s := range set {
					if d.Vocab.LeqE(t, s) || d.Vocab.LeqE(s, t) {
						ok = false
						break
					}
				}
				if !ok {
					break
				}
				set = append(set, t)
			}
			if len(set) != cfg.MultiMSPSize {
				continue
			}
			cand := d.assignmentOf(d.randomPlace(rng), set...)
			if antichain(cand) {
				d.Planted = append(d.Planted, cand)
				wantMulti--
			}
		}
	}
}

// hopDistance is the minimum undirected BFS distance from t to any node in
// targets over the subClassOf edges.
func (d *DAG) hopDistance(t vocab.TermID, targets []vocab.TermID) int {
	goal := map[vocab.TermID]bool{}
	for _, g := range targets {
		goal[g] = true
	}
	type qi struct {
		id   vocab.TermID
		dist int
	}
	seen := map[vocab.TermID]bool{t: true}
	queue := []qi{{t, 0}}
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		if goal[x.id] {
			return x.dist
		}
		if x.dist > 8 {
			continue // beyond any bias threshold
		}
		for _, n := range d.Vocab.ElementParents(x.id) {
			if !seen[n] {
				seen[n] = true
				queue = append(queue, qi{n, x.dist + 1})
			}
		}
		for _, n := range d.Vocab.ElementChildren(x.id) {
			if !seen[n] {
				seen[n] = true
				queue = append(queue, qi{n, x.dist + 1})
			}
		}
	}
	return 1 << 20
}

// Oracle returns a crowd member whose answers realize exactly the planted
// ground truth: support 1 for every assignment below a planted MSP, 0
// otherwise. PruneRatio simulates user-guided pruning clicks on irrelevant
// values (Figure 4f).
func (d *DAG) Oracle(pruneRatio float64, seed int64) *Oracle {
	o := &Oracle{
		v:          d.Vocab,
		PruneRatio: pruneRatio,
		rng:        rand.New(rand.NewSource(seed)),
		relevantE:  make(map[vocab.TermID]bool),
	}
	for _, p := range d.Planted {
		o.planted = append(o.planted, d.Space.Instantiate(p))
	}
	// Terms relevant to the ground truth (a planted component or one of
	// its generalizations) must never be pruned.
	var markUp func(e vocab.TermID)
	markUp = func(e vocab.TermID) {
		if e == ontology.Any || o.relevantE[e] {
			return
		}
		o.relevantE[e] = true
		for _, p := range d.Vocab.ElementParents(e) {
			markUp(p)
		}
	}
	for _, fs := range o.planted {
		for _, f := range fs {
			markUp(f.S)
			markUp(f.O)
		}
	}
	return o
}

// Oracle is the deterministic ground-truth member used by the synthetic
// experiments ("a simulation of a single user", Section 6.4).
type Oracle struct {
	v          *vocab.Vocabulary
	planted    []ontology.FactSet
	PruneRatio float64
	rng        *rand.Rand
	relevantE  map[vocab.TermID]bool
}

// ID implements crowd.Member.
func (o *Oracle) ID() string { return "oracle" }

// significant reports whether the fact-set generalizes a planted pattern.
func (o *Oracle) significant(fs ontology.FactSet) bool {
	for _, p := range o.planted {
		if ontology.LeqFactSet(o.v, fs, p) {
			return true
		}
	}
	return false
}

// AskConcrete implements crowd.Member.
func (o *Oracle) AskConcrete(fs ontology.FactSet) crowd.Response {
	if o.significant(fs) {
		return crowd.Response{Support: 1}
	}
	resp := crowd.Response{Support: 0}
	if o.PruneRatio > 0 && o.rng.Float64() < o.PruneRatio {
		for _, f := range fs {
			for _, e := range []vocab.TermID{f.S, f.O} {
				if e != ontology.Any && !o.relevantE[e] {
					resp.Pruned = []vocab.TermID{e}
					return resp
				}
			}
		}
	}
	return resp
}

// AskSpecialize implements crowd.Member: the oracle names a significant
// refinement when one exists.
func (o *Oracle) AskSpecialize(_ ontology.FactSet, candidates []ontology.FactSet) (int, crowd.Response) {
	for i, c := range candidates {
		if o.significant(c) {
			return i, crowd.Response{Support: 1}
		}
	}
	return -1, crowd.Response{}
}

var _ crowd.Member = (*Oracle)(nil)
