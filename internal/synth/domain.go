package synth

import (
	"fmt"
	"math/rand"
	"strings"

	"oassis/internal/assign"
	"oassis/internal/crowd"
	"oassis/internal/oassisql"
	"oassis/internal/obs"
	"oassis/internal/ontology"
	"oassis/internal/sparql"
	"oassis/internal/vocab"
)

// DomainConfig sizes a generated application domain (Section 6.3's travel /
// culinary / self-treatment experiments). The paper recruited 248 real
// members; here each member gets a generated personal database embedding
// planted popular patterns, so the engine answers come from real support
// computations over concrete transactions (see DESIGN.md, substitutions).
type DomainConfig struct {
	// Name tags the domain ("travel", "culinary", "self-treatment").
	Name string
	// SubjectBranch gives children per level of the subject taxonomy
	// (e.g. activities / dishes / remedies).
	SubjectBranch []int
	// ObjectBranch gives children per level of the object taxonomy
	// (attractions / drinks / symptoms).
	ObjectBranch []int
	// ObjectInstances attaches instance leaves to the object taxonomy
	// (the travel query asks about concrete places, so some MSPs can be
	// invalid class-level assignments — Section 6.3).
	ObjectInstances int
	// Relation is the linking relation mined by the query.
	Relation string
	// Multiplicity adds `+` to the subject variable.
	Multiplicity bool
	// More enables MORE mining with a tip pool.
	More bool
	// Patterns is the number of planted popular (subject, object) pairs.
	Patterns int
	// Members and Transactions size the simulated crowd.
	Members      int
	Transactions int
	// Seed drives all randomness.
	Seed int64
	// Obs, when set, observes the domain's query pipeline: the WHERE
	// compile and eval land in the sparql metric family and the fused
	// eval / space-construction stage is journaled as one space_build
	// span. Nil disables observation.
	Obs *obs.Observer
}

// Travel returns the travel-domain configuration: object instances make
// some discovered MSPs invalid, as in the paper's running-example query.
func Travel(members int, seed int64) DomainConfig {
	return DomainConfig{
		Name:            "travel",
		SubjectBranch:   []int{6, 5, 4},
		ObjectBranch:    []int{3, 3},
		ObjectInstances: 2,
		Relation:        "doAt",
		Multiplicity:    true,
		More:            true,
		Patterns:        14,
		Members:         members,
		Transactions:    40,
		Seed:            seed,
	}
}

// Culinary returns the culinary-domain configuration — the largest DAG of
// the three, all of whose MSPs are valid (a class-level query).
func Culinary(members int, seed int64) DomainConfig {
	return DomainConfig{
		Name:          "culinary",
		SubjectBranch: []int{7, 5, 4},
		ObjectBranch:  []int{8, 6},
		Relation:      "servedWith",
		Multiplicity:  false,
		Patterns:      18,
		Members:       members,
		Transactions:  40,
		Seed:          seed,
	}
}

// SelfTreatment returns the self-treatment configuration — the smallest DAG
// and the fewest questions to completion.
func SelfTreatment(members int, seed int64) DomainConfig {
	return DomainConfig{
		Name:          "self-treatment",
		SubjectBranch: []int{5, 4, 3},
		ObjectBranch:  []int{5, 4},
		Relation:      "takenFor",
		Multiplicity:  false,
		Patterns:      8,
		Members:       members,
		Transactions:  40,
		Seed:          seed,
	}
}

// Domain is a generated application domain: ontology, query, crowd and
// ground truth.
type Domain struct {
	Name  string
	Vocab *vocab.Vocabulary
	Store *ontology.Store
	Query *oassisql.Query
	Space *assign.Space
	// Plan is the compiled WHERE plan the space was built from; with
	// DomainConfig.Obs set, Plan.Explain reports actual cardinalities.
	Plan *sparql.Plan
	// Members are the simulated crowd members (exact-scale answers are
	// bucketed to the UI scale like the real crowd's).
	Members []crowd.Member
	// Patterns are the planted popular (subject, object) leaf pairs with
	// their target popularity.
	Patterns []PlantedPattern
	// MorePool is the tip-fact candidate pool (empty unless More).
	MorePool ontology.FactSet

	subjectLeaves []vocab.TermID
	objectLeaves  []vocab.TermID
	relation      vocab.TermID
	tipByPattern  map[int]ontology.Fact
}

// PlantedPattern is one ground-truth popular habit.
type PlantedPattern struct {
	Subject    vocab.TermID
	Object     vocab.TermID
	Popularity float64 // probability a transaction realizes the pattern
	HasTip     bool
}

// NewDomain generates a domain per the config.
func NewDomain(cfg DomainConfig) (*Domain, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	v := vocab.New()
	store := ontology.NewStore(v)
	sub := v.MustRelation(ontology.RelSubClassOf)
	inst := v.MustRelation(ontology.RelInstanceOf)
	rel := v.MustRelation(cfg.Relation)

	d := &Domain{Name: cfg.Name, Vocab: v, Store: store, relation: rel,
		tipByPattern: make(map[int]ontology.Fact)}

	subjRoot := v.MustElement(title(cfg.Name) + "Subject")
	d.subjectLeaves = growTaxonomy(v, store, sub, subjRoot, cfg.SubjectBranch, cfg.Name+"-s")
	objRoot := v.MustElement(title(cfg.Name) + "Object")
	objLeaves := growTaxonomy(v, store, sub, objRoot, cfg.ObjectBranch, cfg.Name+"-o")
	if cfg.ObjectInstances > 0 {
		var instances []vocab.TermID
		for _, leaf := range objLeaves {
			for i := 0; i < cfg.ObjectInstances; i++ {
				id := v.MustElement(fmt.Sprintf("%s @%d", v.ElementName(leaf), i))
				if err := v.OrderElements(leaf, id); err != nil {
					return nil, err
				}
				store.MustAdd(ontology.Fact{S: id, P: inst, O: leaf})
				instances = append(instances, id)
			}
		}
		d.objectLeaves = instances
	} else {
		d.objectLeaves = objLeaves
	}
	// Tip vocabulary for MORE mining.
	var tips []vocab.TermID
	if cfg.More {
		tipRoot := v.MustElement("Tip")
		tipAt := v.MustRelation("tipAt")
		_ = tipAt
		for i := 0; i < cfg.Patterns; i++ {
			id := v.MustElement(fmt.Sprintf("Tip %d", i))
			if err := v.OrderElements(tipRoot, id); err != nil {
				return nil, err
			}
			store.MustAdd(ontology.Fact{S: id, P: sub, O: tipRoot})
			tips = append(tips, id)
		}
	}
	if err := v.Freeze(); err != nil {
		return nil, err
	}
	store.Freeze()

	// Plant popular patterns over leaf pairs.
	seenPair := map[[2]vocab.TermID]bool{}
	for i := 0; i < cfg.Patterns; i++ {
		var s, o vocab.TermID
		for {
			s = d.subjectLeaves[rng.Intn(len(d.subjectLeaves))]
			o = d.objectLeaves[rng.Intn(len(d.objectLeaves))]
			if !seenPair[[2]vocab.TermID{s, o}] {
				seenPair[[2]vocab.TermID{s, o}] = true
				break
			}
		}
		p := PlantedPattern{
			Subject:    s,
			Object:     o,
			Popularity: 0.15 + 0.5*rng.Float64(),
			HasTip:     cfg.More && rng.Intn(2) == 0,
		}
		if p.HasTip {
			tip := tips[i%len(tips)]
			d.tipByPattern[i] = ontology.Fact{S: tip, P: rel, O: p.Object}
		}
		d.Patterns = append(d.Patterns, p)
	}

	// Build the crowd: each member favours a random subset of patterns.
	for m := 0; m < cfg.Members; m++ {
		db := d.generatePersonalDB(cfg, rng)
		sm := crowd.NewSimMember(fmt.Sprintf("%s-u%03d", cfg.Name, m), v, db, rng.Int63())
		sm.PruneRatio = 0.25
		d.Members = append(d.Members, sm)
	}

	// MORE pool: the tip facts that actually occur in histories.
	if cfg.More {
		var pool []ontology.Fact
		for _, f := range d.tipByPattern {
			pool = append(pool, f)
		}
		d.MorePool = ontology.NewFactSet(pool...)
	}

	// The query.
	if err := d.buildQuery(cfg); err != nil {
		return nil, err
	}
	return d, nil
}

// growTaxonomy adds a tree below root with the given per-level branching,
// returning the leaves.
func growTaxonomy(v *vocab.Vocabulary, store *ontology.Store, sub vocab.TermID, root vocab.TermID, branch []int, prefix string) []vocab.TermID {
	level := []vocab.TermID{root}
	for li, b := range branch {
		var next []vocab.TermID
		for pi, parent := range level {
			for c := 0; c < b; c++ {
				id := v.MustElement(fmt.Sprintf("%s-%d-%d-%d", prefix, li, pi, c))
				if err := v.OrderElements(parent, id); err != nil {
					panic(err)
				}
				store.MustAdd(ontology.Fact{S: id, P: sub, O: parent})
				next = append(next, id)
			}
		}
		level = next
	}
	return level
}

// generatePersonalDB samples one member's transactions: each realizes a
// favoured pattern (possibly with its tip) or random noise.
func (d *Domain) generatePersonalDB(cfg DomainConfig, rng *rand.Rand) []ontology.FactSet {
	// Member-specific affinity per pattern.
	affinity := make([]float64, len(d.Patterns))
	for i, p := range d.Patterns {
		a := p.Popularity * (0.5 + rng.Float64())
		if a > 1 {
			a = 1
		}
		affinity[i] = a
	}
	var db []ontology.FactSet
	for t := 0; t < cfg.Transactions; t++ {
		var facts []ontology.Fact
		for i, p := range d.Patterns {
			if rng.Float64() < affinity[i]*0.35 {
				facts = append(facts, ontology.Fact{S: p.Subject, P: d.relation, O: p.Object})
				if tip, ok := d.tipByPattern[i]; ok && p.HasTip && rng.Float64() < 0.8 {
					facts = append(facts, tip)
				}
			}
		}
		// Noise: 1–2 random leaf pairs.
		for n := 0; n < 1+rng.Intn(2); n++ {
			facts = append(facts, ontology.Fact{
				S: d.subjectLeaves[rng.Intn(len(d.subjectLeaves))],
				P: d.relation,
				O: d.objectLeaves[rng.Intn(len(d.objectLeaves))],
			})
		}
		db = append(db, ontology.NewFactSet(facts...))
	}
	return db
}

// buildQuery assembles and parses the domain's OASSIS-QL query, then builds
// the assignment space.
func (d *Domain) buildQuery(cfg DomainConfig) error {
	v := d.Vocab
	subjRoot := v.Element(title(cfg.Name) + "Subject")
	objRoot := v.Element(title(cfg.Name) + "Object")
	mult := ""
	if cfg.Multiplicity {
		mult = "+"
	}
	var b strings.Builder
	b.WriteString("SELECT FACT-SETS\nWHERE\n")
	fmt.Fprintf(&b, "  $s subClassOf* %q.\n", v.ElementName(subjRoot))
	if cfg.ObjectInstances > 0 {
		fmt.Fprintf(&b, "  $w subClassOf* %q.\n", v.ElementName(objRoot))
		b.WriteString("  $o instanceOf $w\n")
	} else {
		fmt.Fprintf(&b, "  $o subClassOf* %q\n", v.ElementName(objRoot))
	}
	b.WriteString("SATISFYING\n")
	fmt.Fprintf(&b, "  $s%s %s $o", mult, cfg.Relation)
	if cfg.More {
		b.WriteString(".\n  MORE")
	}
	b.WriteString("\nWITH SUPPORT = 0.2\n")

	q, err := oassisql.Parse(b.String(), v)
	if err != nil {
		return fmt.Errorf("synth: domain query: %w", err)
	}
	space, plan, err := assign.BuildSpace(d.Store, q, false, d.MorePool, cfg.Obs)
	if err != nil {
		return err
	}
	d.Query = q
	d.Space = space
	d.Plan = plan
	return nil
}

func title(s string) string {
	if s == "" {
		return s
	}
	return strings.ToUpper(s[:1]) + s[1:]
}
