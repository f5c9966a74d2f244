package platform

import (
	"container/list"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"

	"oassis/internal/crowd"
	"oassis/internal/ontology"
	"oassis/internal/vocab"
)

// The paper's prototype kept its crowd answers in MySQL so they survive
// across query executions (Section 6.1). Save and Load are the equivalent:
// a JSON snapshot of the store. Question keys are built from interned term
// IDs, so a snapshot is only valid under the vocabulary it was written
// with; it carries that vocabulary's fingerprint, and Rekey migrates a
// store to an evolved vocabulary.

// snapshotVersion is the format Save writes and Load reads: one answer
// list keyed by crowd.QuestionKey. Version 1 (two lists with unprefixed
// keys) is not read.
const snapshotVersion = 2

type snapshot struct {
	Version     int           `json:"version"`
	Fingerprint string        `json:"vocabulary_fingerprint"`
	Answers     []savedAnswer `json:"answers"`
}

// savedAnswer is one stored entry. Choice is the canonical-order option a
// specialization answer picked, -1 for none of these and for every
// concrete answer.
type savedAnswer struct {
	Member   string         `json:"member"`
	Question string         `json:"question"`
	Support  float64        `json:"support"`
	Choice   int            `json:"choice"`
	Pruned   []vocab.TermID `json:"pruned,omitempty"`
}

// Save writes every stored answer as a JSON snapshot tied to v, sorted by
// member and question so equal stores write equal bytes.
func (p *Platform) Save(w io.Writer, v *vocab.Vocabulary) error {
	snap := snapshot{Version: snapshotVersion, Fingerprint: fingerprint(v)}
	p.mu.Lock()
	snap.Answers = make([]savedAnswer, 0, len(p.entries))
	for k, e := range p.entries {
		snap.Answers = append(snap.Answers, savedAnswer{
			Member: k.member, Question: k.question,
			Support: e.support, Choice: e.choice, Pruned: e.pruned,
		})
	}
	p.mu.Unlock()
	sort.Slice(snap.Answers, func(i, j int) bool {
		a, b := snap.Answers[i], snap.Answers[j]
		if a.Member != b.Member {
			return a.Member < b.Member
		}
		return a.Question < b.Question
	})
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(snap)
}

// Load builds a platform from a snapshot written by Save under the same
// vocabulary. Every answer is checked before it is stored — a non-empty
// member, a canonical question key, a choice in [-1, #options) — so a bad
// file is an error here rather than a panic when a run replays it. Loaded
// answers count as fresh at load time for cfg.TTL.
func Load(r io.Reader, v *vocab.Vocabulary, cfg Config) (*Platform, error) {
	var snap snapshot
	if err := json.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("platform: snapshot: %w", err)
	}
	if snap.Version != snapshotVersion {
		return nil, fmt.Errorf("platform: snapshot version %d is not supported (want %d)",
			snap.Version, snapshotVersion)
	}
	if snap.Fingerprint != fingerprint(v) {
		return nil, fmt.Errorf("platform: snapshot was collected under a different vocabulary")
	}
	p := New(cfg)
	now := p.clock.Now()
	evicted := 0
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, a := range snap.Answers {
		if a.Member == "" {
			return nil, fmt.Errorf("platform: snapshot answer %d has no member", i)
		}
		ask, err := crowd.ParseQuestionKey(a.Question)
		if err != nil {
			return nil, fmt.Errorf("platform: snapshot answer %d: %w", i, err)
		}
		if a.Choice < -1 || a.Choice >= len(ask.Options) {
			return nil, fmt.Errorf("platform: snapshot answer %d: choice %d outside [-1, %d)",
				i, a.Choice, len(ask.Options))
		}
		evicted += p.storeLocked(askKey{member: a.Member, question: a.Question}, &entry{
			kind: ask.Kind, support: a.Support, choice: a.Choice,
			pruned: a.Pruned, storedAt: now,
		})
	}
	p.pm.Evicted.Add(int64(evicted))
	p.pm.Entries.Add(int64(len(p.entries)))
	return p, nil
}

// Rekey moves every stored answer from oldV's term IDs to newV's, matching
// terms by name — the migration behind ontology evolution (Section 8):
// answers collected before the ontology grew keep replaying afterwards.
// Answers that mention a term newV lacks are dropped, since their questions
// can no longer be posed. Facts and options are re-sorted under the new
// IDs and a stored choice follows its option to its new canonical
// position. Recency order is kept. Rekey fails while a session is
// attached or a question is in flight.
func (p *Platform) Rekey(oldV, newV *vocab.Vocabulary) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.sessions > 0 || len(p.flights) > 0 {
		return fmt.Errorf("platform: rekey with %d sessions attached and %d questions in flight",
			p.sessions, len(p.flights))
	}
	oldEntries, oldRecency := p.entries, p.recency
	p.entries, p.recency = make(map[askKey]*entry, len(oldEntries)), list.New()
	for el := oldRecency.Back(); el != nil; el = el.Prev() {
		k := el.Value.(askKey)
		e := oldEntries[k]
		q, choice, ok := rekeyQuestion(k.question, e.choice, oldV, newV)
		if !ok {
			continue
		}
		k.question, e.choice = q, choice
		e.pruned = rekeyPruned(e.pruned, oldV, newV)
		e.lru = p.recency.PushFront(k)
		p.entries[k] = e
	}
	p.pm.Entries.Add(int64(len(p.entries) - len(oldEntries)))
	return nil
}

// rekeyQuestion translates one question key and its canonical choice. ok
// is false when a term is missing from newV.
func rekeyQuestion(key string, choice int, oldV, newV *vocab.Vocabulary) (string, int, bool) {
	a, err := crowd.ParseQuestionKey(key)
	if err != nil {
		return "", 0, false
	}
	ok := true
	move := func(fs ontology.FactSet) ontology.FactSet {
		facts := make([]ontology.Fact, len(fs))
		for i, f := range fs {
			s, okS := rekeyTerm(f.S, vocab.Element, oldV, newV)
			p, okP := rekeyTerm(f.P, vocab.Relation, oldV, newV)
			o, okO := rekeyTerm(f.O, vocab.Element, oldV, newV)
			ok = ok && okS && okP && okO
			facts[i] = ontology.Fact{S: s, P: p, O: o}
		}
		return ontology.NewFactSet(facts...)
	}
	a.Target, a.Base = move(a.Target), move(a.Base)
	for i, o := range a.Options {
		a.Options[i] = move(o)
	}
	if !ok {
		return "", 0, false
	}
	// The parsed options are in the old canonical order, which the stored
	// choice indexes; perm places each of them in the new one.
	q, perm := crowd.QuestionKey(a)
	if choice >= 0 {
		choice = slices.Index(perm, choice)
	}
	return q, choice, true
}

func rekeyPruned(pruned []vocab.TermID, oldV, newV *vocab.Vocabulary) []vocab.TermID {
	var out []vocab.TermID
	for _, t := range pruned {
		if nt, ok := rekeyTerm(t, vocab.Element, oldV, newV); ok {
			out = append(out, nt)
		}
	}
	return out
}

func rekeyTerm(id vocab.TermID, k vocab.Kind, oldV, newV *vocab.Vocabulary) (vocab.TermID, bool) {
	if id == ontology.Any {
		return id, true
	}
	name, lookup := oldV.ElementName(id), newV.Element
	if k == vocab.Relation {
		name, lookup = oldV.RelationName(id), newV.Relation
	}
	if name == "" {
		return 0, false
	}
	id = lookup(name)
	return id, id != vocab.NoTerm
}

// fingerprint hashes the vocabulary's interned names in ID order (FNV-1a);
// two vocabularies sharing a fingerprint assign identical IDs to identical
// names.
func fingerprint(v *vocab.Vocabulary) string {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(s string) {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= prime64
		}
		h ^= 0xff
		h *= prime64
	}
	for i := 0; i < v.NumElements(); i++ {
		mix(v.ElementName(vocab.TermID(i)))
	}
	mix("|")
	for i := 0; i < v.NumRelations(); i++ {
		mix(v.RelationName(vocab.TermID(i)))
	}
	return fmt.Sprintf("%016x", h)
}
