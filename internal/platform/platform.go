// Package platform implements the answer store: a long-lived, concurrent
// store of crowd answers shared by every query session a process serves.
// It serves Section 6.3's "the crowd answers are independent of the
// threshold" both for one query re-run at another threshold and for a
// whole multi-tenant fleet:
//
//   - A member's answer to a question is stored once and replayed to every
//     later query that poses the same question to the same member, so the
//     crowd is a shared resource instead of a per-run one.
//   - Identical questions posed by concurrent queries are deduplicated
//     in flight: the first ask is forwarded to the crowd, later asks join
//     a waiter list on the same key, and the one crowd answer fans out to
//     every waiting kernel (a singleflight over (member, question)).
//   - Answers carry freshness metadata: a configurable TTL expires stale
//     answers (they are re-asked on next use) and an LRU bound caps the
//     store, so the platform can run indefinitely.
//   - The store persists as a JSON snapshot (Save, Load) and migrates to
//     an evolved ontology (Rekey); see snapshot.go.
//
// The platform sits at the broker layer. Each session attaches with
// Attach, receiving a Conn — a crowd.Broker that serves hits from the
// store and forwards misses to the session's own underlying broker (an
// in-process MemberBroker, the HTTP server, a chaos wrapper...). Because
// the store replays the member's own answers verbatim, a kernel driven
// through a Conn folds exactly the replies it would have collected alone:
// shared-store runs produce MSP sets identical to standalone runs, which
// the differential suite pins across randomized query pairs.
//
// Thresholds never enter the store: it holds raw member supports, and each
// attached kernel aggregates them against its own query's theta — cached
// supports are re-evaluated without re-asking, exactly as Section 6.3
// prescribes.
//
// Sharing contract: every session attached to one Platform must draw its
// questions from the same vocabulary (question keys are interned term
// IDs) and its crowd answers must be functions of the question content —
// the assumption every replay makes.
package platform

import (
	"container/list"
	"sync"
	"time"

	"oassis/internal/chaos"
	"oassis/internal/crowd"
	"oassis/internal/obs"
	"oassis/internal/vocab"
)

// Config parameterizes a Platform.
type Config struct {
	// TTL is the answer freshness window: a stored answer older than TTL
	// is discarded on lookup and the question re-asked. 0 means answers
	// never expire (the pure Section 6.3 regime).
	TTL time.Duration
	// MaxEntries bounds the store; beyond it the least recently used
	// answer is evicted. 0 means unbounded.
	MaxEntries int
	// Clock supplies the freshness timestamps; nil uses the wall clock.
	// Tests inject a chaos.VirtualClock to age answers deterministically.
	Clock chaos.Clock
	// Obs, when set, exports the store's hit/miss/join/expired/evicted
	// counters and the entry/session gauges on the observer's registry —
	// the cross-query serving dashboard.
	Obs *obs.Observer
}

// Stats is a consistent snapshot of the platform's lifetime counters.
// Every Conn.Post resolves to exactly one of Hits, Misses or Joins, so for
// sessions routed entirely through the platform
//
//	sum over sessions of Stats.Asked == Hits + Misses + Joins
//
// which the property suite verifies under the race detector.
type Stats struct {
	// Hits counts questions answered from the store.
	Hits int
	// Misses counts questions forwarded to the crowd.
	Misses int
	// Joins counts questions deduplicated onto an identical in-flight
	// ask posed by another session.
	Joins int
	// Expired counts stored answers discarded as stale (each also counts
	// the triggering lookup in Misses).
	Expired int
	// Evicted counts answers evicted by the MaxEntries LRU bound.
	Evicted int
	// Entries is the current store size; Sessions the attached conns.
	Entries  int
	Sessions int
}

// askKey identifies one storable answer: a question posed to a member.
// Dedup is deliberately per member — the aggregation semantics of
// Section 4.2 need K answers from K distinct members, so only repeats of
// the same (member, question) pair are redundant.
type askKey struct {
	member   string
	question string
}

// entry is one stored crowd answer with its freshness metadata.
type entry struct {
	kind    crowd.AskKind
	support float64
	// choice is the canonical-order option index of a specialization
	// answer (-1 = none of these); consumers translate it through their
	// own option permutation.
	choice   int
	pruned   []vocab.TermID
	storedAt time.Time
	// lru is the entry's position in the platform's recency list; the
	// element value is the entry's askKey.
	lru *list.Element
}

// waiter is one deduplicated ask parked on an in-flight question: the
// session's own Ask event, its option permutation and its delivery
// continuation.
type waiter struct {
	ask     *crowd.Ask
	perm    []int
	deliver func(crowd.Reply)
}

// flight is the waiter list of one in-flight question key.
type flight struct {
	waiters []waiter
}

// Platform is the shared answer store. The zero value is not usable; build
// one with New. All methods are safe for concurrent use by any number of
// attached sessions.
type Platform struct {
	cfg   Config
	clock chaos.Clock
	pm    *obs.PlatformMetrics // non-nil; writes only Evicted and the gauges
	jr    *obs.Journal         // the observer's journal; nil when unobserved

	mu       sync.Mutex
	entries  map[askKey]*entry
	recency  *list.List // front = most recently used
	flights  map[askKey]*flight
	stats    Stats
	sessions int
}

// New builds an empty platform.
func New(cfg Config) *Platform {
	clock := cfg.Clock
	if clock == nil {
		clock = chaos.Real()
	}
	return &Platform{
		cfg:     cfg,
		clock:   clock,
		pm:      cfg.Obs.PlatformSet().OrNop(),
		jr:      cfg.Obs.JournalSet(),
		entries: make(map[askKey]*entry),
		recency: list.New(),
		flights: make(map[askKey]*flight),
	}
}

// Attach connects one query session to the platform: the returned Conn is
// a crowd.Broker that serves the session's asks from the shared store,
// joins identical in-flight asks, and forwards genuine misses to next (the
// session's own broker — in-process members, the HTTP platform, ...).
// Call Detach when the session's run completes; a detached Conn's pending
// forwards still resolve and still feed the store.
func (p *Platform) Attach(next crowd.Broker) *Conn {
	p.mu.Lock()
	p.sessions++
	p.stats.Sessions = p.sessions
	p.mu.Unlock()
	p.pm.Sessions.Add(1)
	return &Conn{p: p, next: next}
}

// Stats snapshots the platform counters.
func (p *Platform) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := p.stats
	s.Entries = len(p.entries)
	s.Sessions = p.sessions
	return s
}

// Len returns the current number of stored answers.
func (p *Platform) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.entries)
}

// detach records one session leaving.
func (p *Platform) detach() {
	p.mu.Lock()
	p.sessions--
	p.stats.Sessions = p.sessions
	p.mu.Unlock()
	p.pm.Sessions.Add(-1)
}

// removeLocked drops one entry; the caller holds p.mu and accounts the
// reason (expiry or eviction) itself.
func (p *Platform) removeLocked(k askKey, e *entry) {
	delete(p.entries, k)
	p.recency.Remove(e.lru)
}

// storeLocked inserts a resolved answer, evicting over the LRU bound. The
// caller holds p.mu. evicted returns how many entries the insert displaced
// so the metric increment can happen outside the lock.
func (p *Platform) storeLocked(k askKey, e *entry) (evicted int) {
	if old, ok := p.entries[k]; ok {
		// A re-ask after expiry (or a racing refresh) replaces in place.
		p.removeLocked(k, old)
	}
	if p.cfg.MaxEntries > 0 {
		for len(p.entries) >= p.cfg.MaxEntries {
			back := p.recency.Back()
			if back == nil {
				break
			}
			p.removeLocked(back.Value.(askKey), p.entries[back.Value.(askKey)])
			p.stats.Evicted++
			evicted++
		}
	}
	e.lru = p.recency.PushFront(k)
	p.entries[k] = e
	return evicted
}

// replyFor materializes a stored answer as a Reply addressed to the given
// ask, translating the canonical option choice through the ask's own
// permutation. elapsed is the round trip the consumer experienced: ~0 for
// a store hit, the member's actual latency for a deduplicated join.
func (e *entry) replyFor(ask *crowd.Ask, perm []int, elapsed time.Duration) crowd.Reply {
	r := crowd.Reply{
		Ask:     ask,
		Outcome: crowd.Answered,
		Support: e.support,
		Choice:  -1,
		Pruned:  e.pruned,
		Elapsed: elapsed,
	}
	if e.kind == crowd.SpecializeAsk && e.choice >= 0 && e.choice < len(perm) {
		r.Choice = perm[e.choice]
	}
	return r
}

// Conn is one session's connection to the platform: a crowd.Broker that
// multiplexes the session's ask stream over the shared store.
type Conn struct {
	p    *Platform
	next crowd.Broker
}

// Detach disconnects the session. Pending forwards owned by this Conn
// resolve normally (their waiters may belong to other sessions); only the
// session count changes.
func (c *Conn) Detach() { c.p.detach() }

// Post implements crowd.Broker. Exactly one of three things happens:
// the ask is answered from the store (hit), parked on an identical
// in-flight ask (join — resolved when the one forwarded copy is), or
// forwarded to the session's underlying broker (miss — the reply, if
// answered, is stored and fanned out to every waiter that joined).
func (c *Conn) Post(ask *crowd.Ask, deliver func(crowd.Reply)) {
	p := c.p
	q, perm := crowd.QuestionKey(ask)
	k := askKey{member: ask.Member, question: q}
	now := p.clock.Now()

	expired := false
	p.mu.Lock()
	if e, ok := p.entries[k]; ok {
		if p.cfg.TTL > 0 && now.Sub(e.storedAt) > p.cfg.TTL {
			// Stale: drop it and fall through to the miss path so the
			// crowd refreshes the answer.
			p.removeLocked(k, e)
			p.stats.Expired++
			expired = true
		} else {
			p.stats.Hits++
			p.recency.MoveToFront(e.lru)
			r := e.replyFor(ask, perm, 0)
			p.mu.Unlock()
			p.jr.StoreEvent(obs.EvStoreHit, ask.Member, q)
			deliver(r)
			return
		}
	}
	f, joined := p.flights[k]
	if joined {
		f.waiters = append(f.waiters, waiter{ask: ask, perm: perm, deliver: deliver})
		p.stats.Joins++
	} else {
		p.flights[k] = &flight{}
		p.stats.Misses++
	}
	p.mu.Unlock()
	if expired {
		p.pm.Entries.Add(-1)
		p.jr.StoreEvent(obs.EvStoreExpired, ask.Member, q)
	}
	if joined {
		p.jr.StoreEvent(obs.EvStoreJoin, ask.Member, q)
		return
	}
	p.jr.StoreEvent(obs.EvStoreMiss, ask.Member, q)

	c.next.Post(ask, func(r crowd.Reply) {
		p.resolve(k, perm, r, deliver)
	})
}

// resolve completes one forwarded ask: it stores an answered reply (a
// departure or timeout is an absence, not an answer — caching it would
// replay the failure forever), delivers the owner's reply verbatim, and
// fans the answer out to every waiter in join order, each addressed with
// its own Ask and option permutation.
func (p *Platform) resolve(k askKey, ownerPerm []int, r crowd.Reply, ownerDeliver func(crowd.Reply)) {
	var stored *entry
	var evicted, added int

	p.mu.Lock()
	f := p.flights[k]
	delete(p.flights, k)
	if r.Outcome == crowd.Answered {
		stored = &entry{
			kind:     r.Ask.Kind,
			support:  r.Support,
			choice:   -1,
			pruned:   r.Pruned,
			storedAt: p.clock.Now(),
		}
		if r.Ask.Kind == crowd.SpecializeAsk {
			for canon, orig := range ownerPerm {
				if orig == r.Choice {
					stored.choice = canon
					break
				}
			}
		}
		evicted = p.storeLocked(k, stored)
		added = 1
	}
	var waiters []waiter
	if f != nil {
		waiters = f.waiters
	}
	p.mu.Unlock()

	if evicted > 0 {
		p.pm.Evicted.Add(int64(evicted))
	}
	p.pm.Entries.Add(int64(added - evicted))

	ownerDeliver(r)
	for _, w := range waiters {
		if stored != nil {
			w.deliver(stored.replyFor(w.ask, w.perm, r.Elapsed))
			continue
		}
		// The forward failed; every joined session sees the same
		// outcome and its kernel re-poses the question on the member's
		// next turn (where it will miss again and be re-forwarded).
		w.deliver(crowd.Reply{Ask: w.ask, Outcome: r.Outcome, Choice: -1, Elapsed: r.Elapsed})
	}
}

var _ crowd.Broker = (*Conn)(nil)
