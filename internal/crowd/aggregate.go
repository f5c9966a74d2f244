package crowd

import "oassis/internal/assign"

// Decision is the black-box aggregator's verdict for one assignment
// (Section 4.2: "yes, no, and undecided").
type Decision uint8

const (
	// Undecided means not enough answers have been collected.
	Undecided Decision = iota
	// OverallSignificant means the aggregated support meets the threshold.
	OverallSignificant
	// OverallInsignificant means it does not.
	OverallInsignificant
)

func (d Decision) String() string {
	switch d {
	case OverallSignificant:
		return "significant"
	case OverallInsignificant:
		return "insignificant"
	default:
		return "undecided"
	}
}

// Aggregator is the black-box of Section 4.2: it decides (i) whether enough
// answers have been gathered for an assignment and (ii) whether the
// assignment is overall significant. Implementations are keyed by the
// assignment's interned NodeID — an integer, so the per-answer hot path
// never hashes canonical key strings. String-keyed wire formats (the HTTP
// platform, the crowd-answer cache) translate at the edges.
type Aggregator interface {
	// Add records one member's support answer for the assignment.
	Add(id assign.NodeID, memberID string, support float64)
	// Decide returns the current verdict for the assignment.
	Decide(id assign.NodeID) Decision
	// Answers returns how many answers were recorded for the assignment.
	Answers(id assign.NodeID) int
	// Support returns the aggregated support (0 when undecided).
	Support(id assign.NodeID) float64
}

// MeanAggregator is the paper's experimental decision mechanism
// (Section 6.3): K answers are required; the assignment is significant when
// the mean support reaches Theta.
type MeanAggregator struct {
	// K is the number of answers required per assignment (5 in the
	// paper's crowd experiments; 1 reduces to the single-user setting).
	K int
	// Theta is the support threshold of the query.
	Theta float64

	answers map[assign.NodeID][]answer
}

type answer struct {
	member  string
	support float64
}

// NewMeanAggregator builds the paper's K-answers-mean aggregator.
func NewMeanAggregator(k int, theta float64) *MeanAggregator {
	return &MeanAggregator{K: k, Theta: theta, answers: make(map[assign.NodeID][]answer)}
}

// Add implements Aggregator. A member's repeated answer for the same
// assignment replaces the earlier one (cache replays keep the first).
func (m *MeanAggregator) Add(key assign.NodeID, memberID string, support float64) {
	for i, a := range m.answers[key] {
		if a.member == memberID {
			m.answers[key][i].support = support
			return
		}
	}
	m.answers[key] = append(m.answers[key], answer{member: memberID, support: support})
}

// Decide implements Aggregator.
func (m *MeanAggregator) Decide(key assign.NodeID) Decision {
	as := m.answers[key]
	if len(as) < m.K {
		return Undecided
	}
	if m.mean(as) >= m.Theta {
		return OverallSignificant
	}
	return OverallInsignificant
}

// Answers implements Aggregator.
func (m *MeanAggregator) Answers(key assign.NodeID) int { return len(m.answers[key]) }

// Support implements Aggregator.
func (m *MeanAggregator) Support(key assign.NodeID) float64 {
	return m.mean(m.answers[key])
}

func (m *MeanAggregator) mean(as []answer) float64 {
	if len(as) == 0 {
		return 0
	}
	sum := 0.0
	for _, a := range as {
		sum += a.support
	}
	return sum / float64(len(as))
}

// MajorityAggregator decides by vote: each answer is a yes (support ≥ Theta)
// or no; K answers required; majority wins, ties are insignificant. It is an
// alternate black-box showing the Section 4.2 interface is genuinely
// pluggable.
type MajorityAggregator struct {
	K     int
	Theta float64

	votes map[assign.NodeID][]answer
}

// NewMajorityAggregator builds a majority-vote aggregator.
func NewMajorityAggregator(k int, theta float64) *MajorityAggregator {
	return &MajorityAggregator{K: k, Theta: theta, votes: make(map[assign.NodeID][]answer)}
}

// Add implements Aggregator.
func (m *MajorityAggregator) Add(key assign.NodeID, memberID string, support float64) {
	for i, a := range m.votes[key] {
		if a.member == memberID {
			m.votes[key][i].support = support
			return
		}
	}
	m.votes[key] = append(m.votes[key], answer{member: memberID, support: support})
}

// Decide implements Aggregator.
func (m *MajorityAggregator) Decide(key assign.NodeID) Decision {
	as := m.votes[key]
	if len(as) < m.K {
		return Undecided
	}
	yes := 0
	for _, a := range as {
		if a.support >= m.Theta {
			yes++
		}
	}
	if 2*yes > len(as) {
		return OverallSignificant
	}
	return OverallInsignificant
}

// Answers implements Aggregator.
func (m *MajorityAggregator) Answers(key assign.NodeID) int { return len(m.votes[key]) }

// Support implements Aggregator: the fraction of yes votes.
func (m *MajorityAggregator) Support(key assign.NodeID) float64 {
	as := m.votes[key]
	if len(as) == 0 {
		return 0
	}
	yes := 0
	for _, a := range as {
		if a.support >= m.Theta {
			yes++
		}
	}
	return float64(yes) / float64(len(as))
}

// TrustWeightedAggregator computes a trust-weighted mean (the "average
// weighted by trust" alternative mentioned in Section 4.2). Weights default
// to 1 and can be adjusted as spammers are detected.
type TrustWeightedAggregator struct {
	K     int
	Theta float64

	weights map[string]float64
	answers map[assign.NodeID][]answer
}

// NewTrustWeightedAggregator builds a trust-weighted mean aggregator.
func NewTrustWeightedAggregator(k int, theta float64) *TrustWeightedAggregator {
	return &TrustWeightedAggregator{
		K: k, Theta: theta,
		weights: make(map[string]float64),
		answers: make(map[assign.NodeID][]answer),
	}
}

// SetTrust adjusts a member's weight (0 disables their answers).
func (t *TrustWeightedAggregator) SetTrust(memberID string, w float64) {
	t.weights[memberID] = w
}

func (t *TrustWeightedAggregator) trust(memberID string) float64 {
	if w, ok := t.weights[memberID]; ok {
		return w
	}
	return 1
}

// Add implements Aggregator.
func (t *TrustWeightedAggregator) Add(key assign.NodeID, memberID string, support float64) {
	for i, a := range t.answers[key] {
		if a.member == memberID {
			t.answers[key][i].support = support
			return
		}
	}
	t.answers[key] = append(t.answers[key], answer{member: memberID, support: support})
}

// Decide implements Aggregator.
func (t *TrustWeightedAggregator) Decide(key assign.NodeID) Decision {
	as := t.answers[key]
	n := 0
	for _, a := range as {
		if t.trust(a.member) > 0 {
			n++
		}
	}
	if n < t.K {
		return Undecided
	}
	if t.Support(key) >= t.Theta {
		return OverallSignificant
	}
	return OverallInsignificant
}

// Answers implements Aggregator (only trusted answers count).
func (t *TrustWeightedAggregator) Answers(key assign.NodeID) int {
	n := 0
	for _, a := range t.answers[key] {
		if t.trust(a.member) > 0 {
			n++
		}
	}
	return n
}

// Support implements Aggregator.
func (t *TrustWeightedAggregator) Support(key assign.NodeID) float64 {
	var sum, wsum float64
	for _, a := range t.answers[key] {
		w := t.trust(a.member)
		sum += w * a.support
		wsum += w
	}
	if wsum == 0 {
		return 0
	}
	return sum / wsum
}

// Resetter is an optional Aggregator extension: Reset discards every
// recorded answer so the next run starts fresh. Session drivers reset
// their aggregator at the start of each run, making a Session re-runnable
// (a long-lived server restarts the same query against the same crowd —
// often behind a shared answer store — and must get an independent run,
// not one pre-decided by the previous run's answers).
type Resetter interface {
	Reset()
}

// Reset implements Resetter.
func (m *MeanAggregator) Reset() { clear(m.answers) }

// Reset implements Resetter.
func (m *MajorityAggregator) Reset() { clear(m.votes) }

// Reset implements Resetter. Member trust weights are kept — trust is
// crowd state, not run state.
func (t *TrustWeightedAggregator) Reset() { clear(t.answers) }

// QuotaCarrier is an optional Aggregator extension exposing how many
// answers the aggregator wants per assignment before it decides. The
// mining kernel uses it to stop over-assigning one assignment within a
// round: once enough answers are scheduled to reach the quota, the rest
// of the crowd is routed to other open questions. Aggregators without a
// fixed quota simply don't implement it.
type QuotaCarrier interface {
	Quota() int
}

// Quota implements QuotaCarrier.
func (m *MeanAggregator) Quota() int { return m.K }

// Quota implements QuotaCarrier.
func (m *MajorityAggregator) Quota() int { return m.K }

// Quota implements QuotaCarrier.
func (t *TrustWeightedAggregator) Quota() int { return t.K }
