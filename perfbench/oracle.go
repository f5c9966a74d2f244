package main

import (
	"fmt"
	"regexp"
	"sync"
	"time"

	"oassis/internal/assign"
	"oassis/internal/crowd"
	"oassis/internal/ontology"
	"oassis/internal/synth"
	"oassis/internal/vocab"
)

// oracle is the benchmark's simulated crowd knowledge over a synthetic DAG:
// a fact-set's support is 1 when it generalizes a strong planted MSP, 0.6
// when it generalizes only a weak one, and 0 otherwise. With no weak plants
// it answers exactly like synth.DAG's ground-truth oracle.
type oracle struct {
	v            *vocab.Vocabulary
	doAt         vocab.TermID
	strong, weak []ontology.FactSet
}

// weakSupport is a weak plant's support: significant at the base threshold
// of 0.5, insignificant at the raised threshold the serve workload re-runs
// with.
const weakSupport = 0.6

// newOracle plants d's MSPs; every weakEvery-th one is weak (none when
// weakEvery is 0).
func newOracle(d *synth.DAG, weakEvery int) *oracle {
	o := &oracle{v: d.Vocab, doAt: d.Vocab.Relation("doAt")}
	for i, p := range d.Planted {
		fs := d.Space.Instantiate(p)
		if weakEvery > 0 && i%weakEvery == weakEvery-1 {
			o.weak = append(o.weak, fs)
		} else {
			o.strong = append(o.strong, fs)
		}
	}
	return o
}

func (o *oracle) support(fs ontology.FactSet) float64 {
	for _, p := range o.strong {
		if ontology.LeqFactSet(o.v, fs, p) {
			return 1
		}
	}
	for _, p := range o.weak {
		if ontology.LeqFactSet(o.v, fs, p) {
			return weakSupport
		}
	}
	return 0
}

// choose answers a specialization question: the best-supported candidate,
// or -1 (none of these) when none is supported.
func (o *oracle) choose(candidates []ontology.FactSet) (int, float64) {
	best, bestS := -1, 0.0
	for i, c := range candidates {
		if s := o.support(c); s > bestS {
			best, bestS = i, s
		}
	}
	return best, bestS
}

// plantedKeys returns the assignment keys of the MSPs a run at threshold
// theta must find: every plant whose support reaches theta.
func plantedKeys(d *synth.DAG, weakEvery int, theta float64) map[string]bool {
	keys := map[string]bool{}
	for i, p := range d.Planted {
		s := 1.0
		if weakEvery > 0 && i%weakEvery == weakEvery-1 {
			s = weakSupport
		}
		if s >= theta {
			keys[p.Key()] = true
		}
	}
	return keys
}

// sameKeys reports whether the assignments' keys are exactly want.
func sameKeys(got []*assign.Assignment, want map[string]bool) bool {
	if len(got) != len(want) {
		return false
	}
	for _, a := range got {
		if !want[a.Key()] {
			return false
		}
	}
	return true
}

// factRE matches one fact of a rendered DAG question; the DAG's element
// names carry no spaces.
var factRE = regexp.MustCompile(`engage in (\S+) at ([^\s?]+)`)

// parseQuestion maps question text rendered by nlgen back to the fact-set
// it asks about, the way a member reads the question on screen.
func (o *oracle) parseQuestion(text string) (ontology.FactSet, error) {
	ms := factRE.FindAllStringSubmatch(text, -1)
	if len(ms) == 0 {
		return nil, fmt.Errorf("unrecognized question %q", text)
	}
	facts := make([]ontology.Fact, len(ms))
	for i, m := range ms {
		s, err := o.element(m[1])
		if err != nil {
			return nil, err
		}
		obj, err := o.element(m[2])
		if err != nil {
			return nil, err
		}
		facts[i] = ontology.Fact{S: s, P: o.doAt, O: obj}
	}
	return ontology.NewFactSet(facts...), nil
}

func (o *oracle) element(name string) (vocab.TermID, error) {
	if name == "anything" {
		return ontology.Any, nil
	}
	id := o.v.Element(name)
	if id == vocab.NoTerm {
		return id, fmt.Errorf("unknown element %q in question", name)
	}
	return id, nil
}

// probe times the simulated crowd from outside the engine: the time spent
// inside member calls (a "crowd.answer" span each, when traced) and the
// engine's think time between an answer returning and the next question.
// Members of one run are called from one goroutine at a time.
type probe struct {
	mu     sync.Mutex
	ot     *opTrace
	parent int32
	// lastEnd is when the previous answer returned (zero before the first
	// question of a run); lastIdx is the member index that gave it.
	lastEnd time.Time
	lastIdx int
	// roundGaps records think time only across round boundaries (the
	// multi-user kernel asks members in index order within a round);
	// otherwise every gap is think time.
	roundGaps bool
	think     []time.Duration
	inCrowd   time.Duration
}

// reset starts a new run traced under parent.
func (p *probe) reset(ot *opTrace, parent int32) {
	p.mu.Lock()
	p.ot, p.parent, p.lastEnd, p.lastIdx = ot, parent, time.Time{}, -1
	p.mu.Unlock()
}

func (p *probe) enter(idx int) (time.Time, int32) {
	now := time.Now()
	p.mu.Lock()
	if !p.lastEnd.IsZero() && (!p.roundGaps || idx <= p.lastIdx) {
		p.think = append(p.think, now.Sub(p.lastEnd))
	}
	ot, parent := p.ot, p.parent
	p.mu.Unlock()
	return now, ot.begin(parent, "crowd.answer")
}

func (p *probe) leave(idx int, start time.Time, s int32) {
	p.mu.Lock()
	p.ot.end(s)
	now := time.Now()
	p.inCrowd += now.Sub(start)
	p.lastEnd, p.lastIdx = now, idx
	p.mu.Unlock()
}

// member is one simulated crowd member answering from the oracle.
type member struct {
	id  string
	idx int
	o   *oracle
	p   *probe
}

func newMembers(n int, o *oracle, p *probe) []crowd.Member {
	out := make([]crowd.Member, n)
	for i := range out {
		out[i] = &member{id: fmt.Sprintf("m%03d", i), idx: i, o: o, p: p}
	}
	return out
}

func (m *member) ID() string { return m.id }

func (m *member) AskConcrete(fs ontology.FactSet) crowd.Response {
	start, s := m.p.enter(m.idx)
	r := crowd.Response{Support: m.o.support(fs)}
	m.p.leave(m.idx, start, s)
	return r
}

func (m *member) AskSpecialize(_ ontology.FactSet, candidates []ontology.FactSet) (int, crowd.Response) {
	start, s := m.p.enter(m.idx)
	i, sup := m.o.choose(candidates)
	m.p.leave(m.idx, start, s)
	return i, crowd.Response{Support: sup}
}
