package platform_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"

	"oassis/internal/crowd"
	"oassis/internal/ontology"
	"oassis/internal/paperdata"
	"oassis/internal/platform"
	"oassis/internal/vocab"
)

// brokerFunc adapts a function to crowd.Broker.
type brokerFunc func(*crowd.Ask, func(crowd.Reply))

func (f brokerFunc) Post(a *crowd.Ask, deliver func(crowd.Reply)) { f(a, deliver) }

// offline fails the test on any forward: a replay must never reach the
// crowd.
func offline(t testing.TB) crowd.Broker {
	return brokerFunc(func(a *crowd.Ask, deliver func(crowd.Reply)) {
		t.Errorf("live question on a replay: %+v", a)
		deliver(crowd.Reply{Ask: a, Outcome: crowd.Departed, Choice: -1})
	})
}

// ask posts one question through c and returns its reply.
func ask(c *platform.Conn, a *crowd.Ask) crowd.Reply {
	var mu sync.Mutex
	var rs []crowd.Reply
	c.Post(a, collect(&mu, &rs))
	return rs[0]
}

// paperAnswers fills a platform with one concrete answer carrying a
// pruning click, one plain concrete answer and one specialization answer
// over the Figure 1 vocabulary.
func paperAnswers(t testing.TB, v *vocab.Vocabulary) (*platform.Platform, []*crowd.Ask) {
	fs1 := ontology.NewFactSet(paperdata.Fact(v, "Biking", "doAt", "Central Park"))
	fs2 := ontology.NewFactSet(paperdata.Fact(v, "Pasta", "eatAt", "Pine"))
	fs3 := ontology.NewFactSet(paperdata.Fact(v, "Biking", "doAt", "Bronx Zoo"))
	pruned := []vocab.TermID{v.Element("Pasta")}
	p := platform.New(platform.Config{})
	c := p.Attach(brokerFunc(func(a *crowd.Ask, deliver func(crowd.Reply)) {
		r := crowd.Reply{Ask: a, Support: 0.25, Choice: -1}
		switch {
		case a.Kind == crowd.SpecializeAsk:
			r.Support, r.Choice = 0.75, 1
		case a.Target.Equal(fs1):
			r.Support, r.Pruned = 0.5, pruned
		}
		deliver(r)
	}))
	defer c.Detach()
	asks := []*crowd.Ask{
		concreteAsk("u1", fs1),
		concreteAsk("u1", fs2),
		specializeAsk("u2", fs1, fs2, fs3),
	}
	for _, a := range asks {
		ask(c, a)
	}
	return p, asks
}

func save(t testing.TB, p *platform.Platform, v *vocab.Vocabulary) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := p.Save(&buf, v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestPlatformSnapshotRoundTrip(t *testing.T) {
	v, _ := paperdata.Build()
	p, asks := paperAnswers(t, v)
	snap := save(t, p, v)
	loaded, err := platform.Load(bytes.NewReader(snap), v, platform.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != p.Len() {
		t.Fatalf("round trip kept %d answers, want %d", loaded.Len(), p.Len())
	}
	if again := save(t, loaded, v); !bytes.Equal(again, snap) {
		t.Fatalf("re-saved snapshot differs:\n%s\nvs\n%s", again, snap)
	}

	// Every answer replays without reaching the crowd, the specialization
	// one under a scrambled option order.
	c := loaded.Attach(offline(t))
	defer c.Detach()
	r := ask(c, concreteAsk("u1", asks[0].Target))
	if r.Support != 0.5 || len(r.Pruned) != 1 || r.Pruned[0] != v.Element("Pasta") {
		t.Errorf("replayed concrete answer = support %v pruned %v", r.Support, r.Pruned)
	}
	if r := ask(c, concreteAsk("u1", asks[1].Target)); r.Support != 0.25 {
		t.Errorf("replayed support %v, want 0.25", r.Support)
	}
	spec := asks[2]
	scrambled := specializeAsk("u2", spec.Base, spec.Options[1], spec.Options[0])
	r = ask(c, scrambled)
	if r.Choice != 0 || r.Support != 0.75 {
		t.Errorf("replayed specialization = choice %d support %v, want 0 / 0.75", r.Choice, r.Support)
	}
	if st := loaded.Stats(); st.Hits != 3 || st.Misses != 0 {
		t.Errorf("replay stats = %+v, want 3 hits / 0 misses", st)
	}
}

func TestPlatformSnapshotVocabularyMismatch(t *testing.T) {
	v, _ := paperdata.Build()
	p, _ := paperAnswers(t, v)
	snap := save(t, p, v)
	v2, _, err := ontology.Load(strings.NewReader("a subClassOf b\n"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := platform.Load(bytes.NewReader(snap), v2, platform.Config{}); err == nil {
		t.Fatal("snapshot accepted under a different vocabulary")
	}
}

// snapshotWith builds a snapshot over v holding the given answers.
func snapshotWith(t testing.TB, v *vocab.Vocabulary, answers ...map[string]any) []byte {
	t.Helper()
	var snap map[string]any
	if err := json.Unmarshal(save(t, platform.New(platform.Config{}), v), &snap); err != nil {
		t.Fatal(err)
	}
	snap["answers"] = answers
	b, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func answer(member, question string, choice int) map[string]any {
	return map[string]any{"member": member, "question": question, "support": 0.5, "choice": choice}
}

// loadErr loads a snapshot and returns the error text, failing the test
// when the snapshot is accepted.
func loadErr(t *testing.T, v *vocab.Vocabulary, snap []byte) string {
	t.Helper()
	_, err := platform.Load(bytes.NewReader(snap), v, platform.Config{})
	if err == nil {
		t.Fatalf("snapshot accepted: %s", snap)
	}
	return err.Error()
}

func TestPlatformLoadMalformed(t *testing.T) {
	v, _ := paperdata.Build()
	loadErr(t, v, []byte("not json"))
	if msg := loadErr(t, v, []byte(`{"version": 9}`)); !strings.Contains(msg, "version 9") {
		t.Errorf("future version error %q does not name the version", msg)
	}
	// The per-run cache format that preceded version 2.
	v1 := fmt.Sprintf(`{"version": 1, "vocabulary_fingerprint": %q, "concrete": [], "specialization": []}`,
		fingerprintOf(t, v))
	if msg := loadErr(t, v, []byte(v1)); !strings.Contains(msg, "version 1") {
		t.Errorf("version-1 error %q does not name the version", msg)
	}
}

func fingerprintOf(t testing.TB, v *vocab.Vocabulary) string {
	var snap struct {
		Fingerprint string `json:"vocabulary_fingerprint"`
	}
	if err := json.Unmarshal(save(t, platform.New(platform.Config{}), v), &snap); err != nil {
		t.Fatal(err)
	}
	return snap.Fingerprint
}

// TestPlatformLoadRejectsChoiceOutOfRange pins that a stored choice must
// index the question's options: a specialization choice of 99 over one
// option used to load and then crash the replay.
func TestPlatformLoadRejectsChoiceOutOfRange(t *testing.T) {
	v, _ := paperdata.Build()
	spec := "s|1.2.3,|4.2.3,;"
	for _, a := range []map[string]any{
		answer("u1", spec, 99),
		answer("u1", spec, 1),
		answer("u1", spec, -2),
		answer("u1", "c|1.2.3,", 0),
	} {
		if msg := loadErr(t, v, snapshotWith(t, v, a)); !strings.Contains(msg, "choice") {
			t.Errorf("choice %v on %q: error %q does not name the choice", a["choice"], a["question"], msg)
		}
	}
	for _, choice := range []int{-1, 0} {
		if _, err := platform.Load(bytes.NewReader(snapshotWith(t, v, answer("u1", spec, choice))), v, platform.Config{}); err != nil {
			t.Errorf("choice %d rejected: %v", choice, err)
		}
	}
}

func TestPlatformLoadRejectsMalformedKey(t *testing.T) {
	v, _ := paperdata.Build()
	for _, q := range []string{
		"1.2.3,",                  // no prefix
		"x|1.2.3,",                // unknown prefix
		"c|1.2,",                  // two terms
		"c|1.2.3.4,",              // four terms
		"c|1.2.3",                 // unterminated fact
		"c|a.2.3,",                // not a number
		"c|-1.2.3,",               // signed
		"c|4294967296.2.3,",       // beyond a term ID
		"c|01.2.3,",               // not canonical: leading zero
		"c|4.2.3,1.2.3,",          // not canonical: unsorted facts
		"s|1.2.3,",                // no option list
		"s|1.2.3,|4.2.3,",         // unterminated option
		"s|1.2.3,|5.2.3,;4.2.3,;", // not canonical: unsorted options
		"s|1.2.3,|4.2.3|;",        // stray separator
	} {
		loadErr(t, v, snapshotWith(t, v, answer("u1", q, -1)))
	}
}

func TestPlatformLoadRejectsEmptyMember(t *testing.T) {
	v, _ := paperdata.Build()
	if msg := loadErr(t, v, snapshotWith(t, v, answer("", "c|1.2.3,", -1))); !strings.Contains(msg, "member") {
		t.Errorf("error %q does not name the member", msg)
	}
}

// TestPlatformRekeySpecializationOrder migrates answers to a vocabulary
// that numbers the same terms differently: facts and options must be
// re-sorted under the new IDs, and a specialization's stored choice must
// follow its option, or the migrated answers are never hit again.
func TestPlatformRekeySpecializationOrder(t *testing.T) {
	oldV, _, err := ontology.Load(strings.NewReader("Y subClassOf Base\nX subClassOf Base\n@relation likes\n"))
	if err != nil {
		t.Fatal(err)
	}
	newV, _, err := ontology.Load(strings.NewReader("X subClassOf Base\nY subClassOf Base\nZ subClassOf Base\n@relation likes\n"))
	if err != nil {
		t.Fatal(err)
	}
	fact := func(v *vocab.Vocabulary, s string) ontology.Fact {
		return ontology.Fact{S: v.Element(s), P: v.Relation("likes"), O: v.Element("Base")}
	}
	if (oldV.Element("X") < oldV.Element("Y")) == (newV.Element("X") < newV.Element("Y")) {
		t.Fatal("fixture does not swap the order of X and Y")
	}

	// Under oldV: a two-fact concrete answer and a specialization whose
	// member picked the X option.
	p := platform.New(platform.Config{})
	c := p.Attach(brokerFunc(func(a *crowd.Ask, deliver func(crowd.Reply)) {
		r := crowd.Reply{Ask: a, Support: 0.5, Choice: -1}
		if a.Kind == crowd.SpecializeAsk {
			r.Choice = 1
		}
		deliver(r)
	}))
	both := func(v *vocab.Vocabulary) ontology.FactSet { return ontology.NewFactSet(fact(v, "X"), fact(v, "Y")) }
	one := func(v *vocab.Vocabulary, s string) ontology.FactSet { return ontology.NewFactSet(fact(v, s)) }
	ask(c, concreteAsk("u1", both(oldV)))
	ask(c, specializeAsk("u1", one(oldV, "Base"), one(oldV, "Y"), one(oldV, "X")))
	if err := p.Rekey(oldV, newV); err == nil {
		t.Fatal("rekey accepted with a session attached")
	}
	c.Detach()
	if err := p.Rekey(oldV, newV); err != nil {
		t.Fatal(err)
	}

	// Under newV, both questions replay in either option order.
	c = p.Attach(offline(t))
	defer c.Detach()
	if r := ask(c, concreteAsk("u1", both(newV))); r.Support != 0.5 {
		t.Errorf("migrated concrete answer support %v, want 0.5", r.Support)
	}
	for _, opts := range [][]string{{"X", "Y"}, {"Y", "X"}} {
		a := specializeAsk("u1", one(newV, "Base"), one(newV, opts[0]), one(newV, opts[1]))
		r := ask(c, a)
		if r.Choice < 0 || !a.Options[r.Choice].Equal(one(newV, "X")) {
			t.Errorf("options %v: migrated choice %d does not name X", opts, r.Choice)
		}
	}
	if st := p.Stats(); st.Hits != 3 {
		t.Errorf("migrated answers: %d hits, want 3 (stats %+v)", st.Hits, st)
	}
}

// FuzzPlatformLoad feeds arbitrary bytes to the snapshot loader. Load may
// reject them but never panic, and every answer it accepts must replay
// from the store with a choice that indexes the question's options.
func FuzzPlatformLoad(f *testing.F) {
	v, _ := paperdata.Build()
	p, _ := paperAnswers(f, v)
	f.Add(save(f, p, v))
	f.Add(snapshotWith(f, v, answer("u1", "s|1.2.3,|4.2.3,;", 99)))
	f.Add([]byte(`{"version": 2}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		loaded, err := platform.Load(bytes.NewReader(data), v, platform.Config{})
		if err != nil {
			return
		}
		var snap struct {
			Answers []struct {
				Member   string `json:"member"`
				Question string `json:"question"`
			} `json:"answers"`
		}
		if err := json.Unmarshal(save(t, loaded, v), &snap); err != nil {
			t.Fatal(err)
		}
		c := loaded.Attach(offline(t))
		defer c.Detach()
		for _, a := range snap.Answers {
			q, err := crowd.ParseQuestionKey(a.Question)
			if err != nil {
				t.Fatalf("stored key %q does not parse: %v", a.Question, err)
			}
			q.Member = a.Member
			if r := ask(c, q); r.Choice < -1 || r.Choice >= len(q.Options) {
				t.Fatalf("replayed choice %d outside [-1, %d)", r.Choice, len(q.Options))
			}
		}
	})
}
