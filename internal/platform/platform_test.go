package platform_test

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"oassis/internal/chaos"
	"oassis/internal/crowd"
	"oassis/internal/obs"
	"oassis/internal/ontology"
	"oassis/internal/platform"
	"oassis/internal/vocab"
)

// fs builds a one-fact question over raw interned IDs (the platform only
// ever compares keys, never resolves names).
func fs(s, p, o int) ontology.FactSet {
	return ontology.NewFactSet(ontology.Fact{S: vocab.TermID(s), P: vocab.TermID(p), O: vocab.TermID(o)})
}

var nextAskID atomic.Int64

func concreteAsk(member string, target ontology.FactSet) *crowd.Ask {
	return &crowd.Ask{ID: nextAskID.Add(1), Member: member, Kind: crowd.ConcreteAsk, Target: target}
}

func specializeAsk(member string, base ontology.FactSet, options ...ontology.FactSet) *crowd.Ask {
	return &crowd.Ask{ID: nextAskID.Add(1), Member: member, Kind: crowd.SpecializeAsk, Base: base, Options: options}
}

// scriptBroker is a controllable underlying broker: it answers every
// forwarded ask with the scripted reply, or parks the delivery for the
// test to release when hold is set.
type scriptBroker struct {
	mu      sync.Mutex
	posts   []*crowd.Ask
	hold    bool
	held    []func(crowd.Reply)
	heldAsk []*crowd.Ask

	support float64
	choice  int
	outcome crowd.Outcome
	elapsed time.Duration
}

func (b *scriptBroker) Post(ask *crowd.Ask, deliver func(crowd.Reply)) {
	b.mu.Lock()
	b.posts = append(b.posts, ask)
	if b.hold {
		b.held = append(b.held, deliver)
		b.heldAsk = append(b.heldAsk, ask)
		b.mu.Unlock()
		return
	}
	r := b.replyFor(ask)
	b.mu.Unlock()
	deliver(r)
}

func (b *scriptBroker) replyFor(ask *crowd.Ask) crowd.Reply {
	return crowd.Reply{
		Ask:     ask,
		Outcome: b.outcome,
		Support: b.support,
		Choice:  b.choice,
		Elapsed: b.elapsed,
	}
}

// release resolves every held delivery in hold order.
func (b *scriptBroker) release() {
	b.mu.Lock()
	held, asks := b.held, b.heldAsk
	b.held, b.heldAsk = nil, nil
	b.mu.Unlock()
	for i, d := range held {
		d(b.replyFor(asks[i]))
	}
}

func (b *scriptBroker) forwarded() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.posts)
}

// collect returns a deliver continuation appending into out.
func collect(mu *sync.Mutex, out *[]crowd.Reply) func(crowd.Reply) {
	return func(r crowd.Reply) {
		mu.Lock()
		*out = append(*out, r)
		mu.Unlock()
	}
}

func TestPlatformHitMissAccounting(t *testing.T) {
	b := &scriptBroker{support: 0.8, choice: -1}
	p := platform.New(platform.Config{})
	c1 := p.Attach(b)
	c2 := p.Attach(b)
	defer c1.Detach()
	defer c2.Detach()

	var mu sync.Mutex
	var replies []crowd.Reply

	// Session 1 asks two distinct questions: both forwarded.
	c1.Post(concreteAsk("m0", fs(1, 2, 3)), collect(&mu, &replies))
	c1.Post(concreteAsk("m0", fs(4, 2, 3)), collect(&mu, &replies))
	before := p.Stats()
	// Session 2 repeats one of them and adds the same question to a
	// different member: one hit, one forward (dedup is per member).
	c2.Post(concreteAsk("m0", fs(1, 2, 3)), collect(&mu, &replies))
	c2.Post(concreteAsk("m1", fs(1, 2, 3)), collect(&mu, &replies))

	if got := b.forwarded(); got != 3 {
		t.Fatalf("forwarded %d asks, want 3", got)
	}
	if len(replies) != 4 {
		t.Fatalf("delivered %d replies, want 4", len(replies))
	}
	for i, r := range replies {
		if r.Outcome != crowd.Answered || r.Support != 0.8 {
			t.Fatalf("reply %d: outcome %v support %v", i, r.Outcome, r.Support)
		}
	}
	st := p.Stats()
	if st.Hits != 1 || st.Misses != 3 || st.Joins != 0 {
		t.Fatalf("stats = %+v, want 1 hit / 3 misses / 0 joins", st)
	}
	if st.Entries != 3 {
		t.Fatalf("entries = %d, want 3", st.Entries)
	}
	if hits, misses := st.Hits-before.Hits, st.Misses-before.Misses; hits != 1 || misses != 1 {
		t.Fatalf("session 2 drew %d hits / %d misses, want 1 / 1", hits, misses)
	}
	// Each reply's Ask pointer must be the consumer's own ask, not the
	// ask that populated the store — kernels match replies by identity.
	for i, r := range replies {
		if r.Ask == nil {
			t.Fatalf("reply %d lost its ask", i)
		}
	}
}

func TestPlatformDedupJoinsInFlight(t *testing.T) {
	b := &scriptBroker{support: 1, choice: -1, hold: true, elapsed: 7 * time.Millisecond}
	p := platform.New(platform.Config{})
	c1 := p.Attach(b)
	c2 := p.Attach(b)

	var mu sync.Mutex
	var r1, r2 []crowd.Reply
	c1.Post(concreteAsk("m0", fs(1, 2, 3)), collect(&mu, &r1))
	c2.Post(concreteAsk("m0", fs(1, 2, 3)), collect(&mu, &r2)) // joins the flight

	if got := b.forwarded(); got != 1 {
		t.Fatalf("forwarded %d asks while in flight, want 1", got)
	}
	if len(r1)+len(r2) != 0 {
		t.Fatal("replies delivered before the member answered")
	}
	b.release()
	if len(r1) != 1 || len(r2) != 1 {
		t.Fatalf("deliveries after release: owner %d, waiter %d (want 1 each)", len(r1), len(r2))
	}
	if r2[0].Support != 1 || r2[0].Outcome != crowd.Answered {
		t.Fatalf("waiter reply = %+v", r2[0])
	}
	// The waiter genuinely waited for the member: it sees the member's
	// round trip, not a zero-cost cache hit.
	if r2[0].Elapsed != 7*time.Millisecond {
		t.Fatalf("waiter elapsed = %v, want the member's 7ms", r2[0].Elapsed)
	}
	st := p.Stats()
	if st.Misses != 1 || st.Joins != 1 || st.Hits != 0 {
		t.Fatalf("stats = %+v, want 1 miss / 1 join", st)
	}
	// The answer is now stored: a third ask is a plain hit.
	var r3 []crowd.Reply
	c1.Post(concreteAsk("m0", fs(1, 2, 3)), collect(&mu, &r3))
	if len(r3) != 1 || b.forwarded() != 1 {
		t.Fatal("post-flight ask was not served from the store")
	}
	if r3[0].Elapsed != 0 {
		t.Fatalf("store hit elapsed = %v, want 0", r3[0].Elapsed)
	}
}

// TestPlatformSpecializeChoiceTranslation pins the canonical-order choice
// protocol: queries that enumerate the same candidate set in different
// orders must each receive the choice pointing at the same fact-set.
func TestPlatformSpecializeChoiceTranslation(t *testing.T) {
	base := fs(1, 2, 3)
	optA, optB, optC := fs(10, 2, 3), fs(11, 2, 3), fs(12, 2, 3)

	b := &scriptBroker{support: 0.9, choice: 1} // owner picks its options[1] = optB
	p := platform.New(platform.Config{})
	c1 := p.Attach(b)
	c2 := p.Attach(b)

	var mu sync.Mutex
	var r1, r2 []crowd.Reply
	ask1 := specializeAsk("m0", base, optA, optB, optC)
	c1.Post(ask1, collect(&mu, &r1))
	if len(r1) != 1 || r1[0].Choice != 1 {
		t.Fatalf("owner reply choice = %d, want 1 (its own order)", r1[0].Choice)
	}
	// Same question, options scrambled: the hit must point at optB.
	ask2 := specializeAsk("m0", base, optC, optB, optA)
	c2.Post(ask2, collect(&mu, &r2))
	if b.forwarded() != 1 {
		t.Fatalf("scrambled-order repeat was forwarded (%d posts)", b.forwarded())
	}
	if len(r2) != 1 {
		t.Fatal("no hit delivered")
	}
	got := ask2.Options[r2[0].Choice]
	if !got.Equal(optB) {
		t.Fatalf("translated choice %d names %v, want optB", r2[0].Choice, got)
	}
}

// TestPlatformSpecializeNoneOfThese pins that a "none of these" answer
// (choice -1) replays as -1 regardless of the consumer's option order.
func TestPlatformSpecializeNoneOfThese(t *testing.T) {
	b := &scriptBroker{support: 0, choice: -1}
	p := platform.New(platform.Config{})
	c := p.Attach(b)
	var mu sync.Mutex
	var rs []crowd.Reply
	c.Post(specializeAsk("m0", fs(1, 2, 3), fs(4, 2, 3), fs(5, 2, 3)), collect(&mu, &rs))
	c.Post(specializeAsk("m0", fs(1, 2, 3), fs(5, 2, 3), fs(4, 2, 3)), collect(&mu, &rs))
	if b.forwarded() != 1 {
		t.Fatalf("forwarded %d, want 1", b.forwarded())
	}
	if len(rs) != 2 || rs[1].Choice != -1 {
		t.Fatalf("replayed none-of-these choice = %d, want -1", rs[1].Choice)
	}
}

func TestPlatformTTLExpiry(t *testing.T) {
	clock := chaos.NewVirtualClock()
	b := &scriptBroker{support: 0.6, choice: -1}
	p := platform.New(platform.Config{TTL: time.Minute, Clock: clock})
	c := p.Attach(b)
	var mu sync.Mutex
	var rs []crowd.Reply

	c.Post(concreteAsk("m0", fs(1, 2, 3)), collect(&mu, &rs)) // miss, stored
	clock.Advance(30 * time.Second)
	c.Post(concreteAsk("m0", fs(1, 2, 3)), collect(&mu, &rs)) // still fresh: hit
	clock.Advance(31 * time.Second)                           // 61s old now
	c.Post(concreteAsk("m0", fs(1, 2, 3)), collect(&mu, &rs)) // stale: re-asked
	clock.Advance(10 * time.Second)
	c.Post(concreteAsk("m0", fs(1, 2, 3)), collect(&mu, &rs)) // refreshed: hit

	if got := b.forwarded(); got != 2 {
		t.Fatalf("member asked %d times, want 2 (initial + refresh)", got)
	}
	st := p.Stats()
	if st.Hits != 2 || st.Misses != 2 || st.Expired != 1 {
		t.Fatalf("stats = %+v, want 2 hits / 2 misses / 1 expired", st)
	}
	if len(rs) != 4 {
		t.Fatalf("delivered %d replies, want 4", len(rs))
	}
}

func TestPlatformLRUEviction(t *testing.T) {
	b := &scriptBroker{support: 0.5, choice: -1}
	p := platform.New(platform.Config{MaxEntries: 2})
	c := p.Attach(b)
	var mu sync.Mutex
	var rs []crowd.Reply

	q1, q2, q3 := fs(1, 2, 3), fs(4, 2, 3), fs(5, 2, 3)
	c.Post(concreteAsk("m0", q1), collect(&mu, &rs))
	c.Post(concreteAsk("m0", q2), collect(&mu, &rs))
	c.Post(concreteAsk("m0", q1), collect(&mu, &rs)) // touch q1: q2 becomes LRU
	c.Post(concreteAsk("m0", q3), collect(&mu, &rs)) // evicts q2

	st := p.Stats()
	if st.Evicted != 1 || st.Entries != 2 {
		t.Fatalf("stats = %+v, want 1 evicted / 2 entries", st)
	}
	// q1 survived (hit), q2 was evicted (re-asked).
	before := b.forwarded()
	c.Post(concreteAsk("m0", q1), collect(&mu, &rs))
	if b.forwarded() != before {
		t.Fatal("recently-used q1 was evicted")
	}
	c.Post(concreteAsk("m0", q2), collect(&mu, &rs))
	if b.forwarded() != before+1 {
		t.Fatal("least-recently-used q2 was not evicted")
	}
}

// TestPlatformFailureNotCached pins that departures and timeouts are
// absences, not answers: every joined session sees the failure, nothing is
// stored, and the next ask reaches the crowd again.
func TestPlatformFailureNotCached(t *testing.T) {
	for _, outcome := range []crowd.Outcome{crowd.Departed, crowd.TimedOut} {
		b := &scriptBroker{outcome: outcome, choice: -1, hold: true}
		p := platform.New(platform.Config{})
		c1, c2 := p.Attach(b), p.Attach(b)
		var mu sync.Mutex
		var r1, r2 []crowd.Reply
		c1.Post(concreteAsk("m0", fs(1, 2, 3)), collect(&mu, &r1))
		c2.Post(concreteAsk("m0", fs(1, 2, 3)), collect(&mu, &r2))
		b.release()
		if len(r1) != 1 || len(r2) != 1 {
			t.Fatalf("outcome %v: owner %d waiter %d deliveries", outcome, len(r1), len(r2))
		}
		if r2[0].Outcome != outcome || r2[0].Choice != -1 {
			t.Fatalf("outcome %v: waiter reply = %+v", outcome, r2[0])
		}
		if p.Len() != 0 {
			t.Fatalf("outcome %v was cached", outcome)
		}
		b.hold = false
		c1.Post(concreteAsk("m0", fs(1, 2, 3)), collect(&mu, &r1))
		if b.forwarded() != 2 {
			t.Fatalf("outcome %v: retry was not re-forwarded", outcome)
		}
	}
}

// TestPlatformSingleflightRace hammers one question key from many
// goroutines against a slow broker: exactly one forward may happen, every
// poster gets the answer, and the counters reconcile. Run under -race.
func TestPlatformSingleflightRace(t *testing.T) {
	b := &scriptBroker{support: 1, choice: -1, hold: true}
	p := platform.New(platform.Config{})

	const posters = 32
	var wg sync.WaitGroup
	var mu sync.Mutex
	var replies []crowd.Reply
	start := make(chan struct{})
	for i := 0; i < posters; i++ {
		conn := p.Attach(b)
		wg.Add(1)
		go func(c *platform.Conn, i int) {
			defer wg.Done()
			defer c.Detach()
			<-start
			// Half hammer the shared key, half post distinct keys.
			target := fs(1, 2, 3)
			if i%2 == 1 {
				target = fs(100+i, 2, 3)
			}
			c.Post(concreteAsk("m0", target), collect(&mu, &replies))
		}(conn, i)
	}
	close(start)
	// Wait for every poster to have resolved AND for every miss's forward
	// to have reached the held broker (forwards happen outside the store
	// lock, after the miss is counted), then release the member answers.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := p.Stats()
		if st.Misses+st.Joins+st.Hits == posters && b.forwarded() == st.Misses {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("posters stuck: %+v (forwarded %d)", st, b.forwarded())
		}
		time.Sleep(time.Millisecond)
	}
	b.release()
	wg.Wait()

	st := p.Stats()
	if st.Misses != 1+posters/2 {
		t.Fatalf("misses = %d, want %d (1 shared + %d distinct)", st.Misses, 1+posters/2, posters/2)
	}
	if st.Hits+st.Misses+st.Joins != posters {
		t.Fatalf("lookup outcomes %+v do not sum to %d posts", st, posters)
	}
	if got := b.forwarded(); got != st.Misses {
		t.Fatalf("member saw %d asks, misses say %d", got, st.Misses)
	}
	if len(replies) != posters {
		t.Fatalf("delivered %d replies, want %d", len(replies), posters)
	}
	if st.Sessions != 0 {
		t.Fatalf("sessions = %d after detach, want 0", st.Sessions)
	}
}

// TestPlatformKeyIsolation pins that distinct questions, members and ask
// kinds never collide in the store.
func TestPlatformKeyIsolation(t *testing.T) {
	b := &scriptBroker{support: 1, choice: 0}
	p := platform.New(platform.Config{})
	c := p.Attach(b)
	var mu sync.Mutex
	var rs []crowd.Reply

	shared := fs(1, 2, 3)
	c.Post(concreteAsk("m0", shared), collect(&mu, &rs))
	// A specialization whose base equals the concrete target must not
	// collide with it.
	c.Post(specializeAsk("m0", shared, fs(4, 2, 3), fs(5, 2, 3)), collect(&mu, &rs))
	// Same question, another member: separate.
	c.Post(concreteAsk("m1", shared), collect(&mu, &rs))
	if got := b.forwarded(); got != 3 {
		t.Fatalf("forwarded %d, want 3 distinct keys", got)
	}
	if p.Len() != 3 {
		t.Fatalf("store holds %d entries, want 3", p.Len())
	}
}

// TestQuestionKeyStability pins the canonical key: option order must not
// change a specialization's identity, and concrete/specialize keys are
// disjoint namespaces.
func TestQuestionKeyStability(t *testing.T) {
	base := fs(1, 2, 3)
	a, bb, cc := fs(4, 2, 3), fs(5, 2, 3), fs(6, 2, 3)
	k1, p1 := crowd.QuestionKey(specializeAsk("x", base, a, bb, cc))
	k2, p2 := crowd.QuestionKey(specializeAsk("y", base, cc, a, bb))
	if k1 != k2 {
		t.Fatalf("option order changed the key:\n%q\n%q", k1, k2)
	}
	if len(p1) != 3 || len(p2) != 3 {
		t.Fatalf("perms %v / %v", p1, p2)
	}
	kc, pc := crowd.QuestionKey(concreteAsk("x", base))
	if pc != nil {
		t.Fatalf("concrete perm = %v, want nil", pc)
	}
	if kc == k1 {
		t.Fatal("concrete and specialize keys collide")
	}
	// The two permutations must agree on which fact-set each canonical
	// slot names.
	ask1 := specializeAsk("x", base, a, bb, cc)
	ask2 := specializeAsk("y", base, cc, a, bb)
	_, p1 = crowd.QuestionKey(ask1)
	_, p2 = crowd.QuestionKey(ask2)
	for j := range p1 {
		if !ask1.Options[p1[j]].Equal(ask2.Options[p2[j]]) {
			t.Fatalf("canonical slot %d disagrees", j)
		}
	}
}

func TestPlatformStatsString(t *testing.T) {
	// Smoke: Stats is a plain value usable in test diagnostics.
	st := platform.Stats{Hits: 1, Misses: 2}
	if fmt.Sprintf("%+v", st) == "" {
		t.Fatal("unprintable stats")
	}
}

// TestPlatformStoreJournalEvents wires an observer journal into the
// platform and checks each store outcome lands as its own flight-recorder
// event — hit, miss and in-flight join — carrying the asking member and
// the canonical question key.
func TestPlatformStoreJournalEvents(t *testing.T) {
	o := obs.New()
	j := o.JournalSet()
	b := &scriptBroker{support: 0.8, choice: -1, hold: true}
	p := platform.New(platform.Config{Obs: o})
	c := p.Attach(b)
	defer c.Detach()

	var mu sync.Mutex
	var replies []crowd.Reply

	// First ask: a miss, parked in flight.
	a1 := concreteAsk("m0", fs(1, 2, 3))
	c.Post(a1, collect(&mu, &replies))
	// Same question again while still in flight: a join.
	c.Post(concreteAsk("m0", fs(1, 2, 3)), collect(&mu, &replies))
	b.release()
	// Now it is cached: a hit.
	c.Post(concreteAsk("m0", fs(1, 2, 3)), collect(&mu, &replies))
	if len(replies) != 3 {
		t.Fatalf("delivered %d replies, want 3", len(replies))
	}

	wantKey, _ := crowd.QuestionKey(a1)
	counts := map[string]int{}
	for _, e := range j.Events() {
		counts[e.Kind]++
		if e.Member != "m0" {
			t.Errorf("%s event from member %q, want m0", e.Kind, e.Member)
		}
		if e.Key != wantKey {
			t.Errorf("%s event key %q, want %q", e.Kind, e.Key, wantKey)
		}
	}
	want := map[string]int{obs.EvStoreMiss: 1, obs.EvStoreJoin: 1, obs.EvStoreHit: 1}
	for kind, n := range want {
		if counts[kind] != n {
			t.Errorf("%d %s events, want %d (all: %v)", counts[kind], kind, n, counts)
		}
	}
	if got := len(j.Events()); got != 3 {
		t.Errorf("journal holds %d events, want 3", got)
	}
}
