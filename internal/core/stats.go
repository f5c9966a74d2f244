// Package core implements the OASSIS query evaluation engine: one
// event-driven mining kernel (kernel.go) that runs the multi-user
// evaluation of Section 4.2 with a pluggable black-box aggregator, and —
// with one member whose every answer is the verdict — the vertical
// algorithm of Section 4.1 (Algorithm 1) and the horizontal
// (Apriori-style) and naive baselines of Section 6.4. Those three are
// selection policies of the kernel (single.go), not separate engines.
// Answers are replayed across thresholds (Section 6.3) by
// internal/platform at the broker layer.
package core

import (
	"oassis/internal/assign"
	"oassis/internal/obs"
)

// QuestionKind distinguishes the interaction types of Sections 4.1 and 6.2.
type QuestionKind uint8

const (
	// Concrete asks for the support of one fact-set.
	Concrete QuestionKind = iota
	// Specialization asks the member to pick a significant refinement.
	Specialization
)

// Stats aggregates the cost measures the paper reports.
type Stats struct {
	// Questions is the total number of questions posed, including
	// repetitions across crowd members (Section 6.3's #questions).
	Questions int
	// ConcreteQ and SpecialQ split Questions by kind.
	ConcreteQ int
	SpecialQ  int
	// NoneOfThese counts specialization questions answered "none of
	// these" (each still counts once in Questions).
	NoneOfThese int
	// PruneClicks counts user-guided pruning interactions.
	PruneClicks int
	// AutoAnswers counts answers inferred at no user cost (pruned values
	// and none-of-these fan-outs).
	AutoAnswers int
	// Generated counts assignments materialized by the lazy generator;
	// comparing against the eager DAG size measures the Section 6.4
	// laziness claim.
	Generated int
	// Departures counts members who left mid-run (a Departed response or
	// exhausting the consecutive answer-deadline budget). Their recorded
	// answers are kept; the run degrades to the surviving crowd.
	Departures int
	// TimedOut counts answers discarded because they arrived after the
	// engine's AnswerDeadline; such questions do not count in Questions
	// (no usable answer was obtained) and are re-posed.
	TimedOut int

	// Asked counts Ask events emitted by the kernel — questions put to
	// the crowd, whether or not a usable answer came back (compare
	// Questions, which counts usable answers only).
	Asked int
	// Discarded counts replies the kernel received but could not use: a
	// deadline overrun, or an answer that arrived after a top-k run
	// already stopped.
	Discarded int
	// Rounds counts bulk-synchronous kernel rounds (each member is
	// asked at most one question per round).
	Rounds int
	// PeakInFlight is the largest number of questions simultaneously
	// outstanding — the broker queue depth at its deepest.
	PeakInFlight int

	// Progress samples one point per question for the pace-of-collection
	// curves (Figures 4d–4e).
	Progress []ProgressPoint

	// WatchDiscoveredAt records, for each watched ground-truth
	// assignment (see the runners' Watch option), the question count at
	// which it was classified significant; -1 means never.
	WatchDiscoveredAt []int
}

// ProgressPoint is one sample of the pace-of-data-collection curves: the
// state after the Questions-th question.
type ProgressPoint struct {
	Questions       int
	ClassifiedValid int // valid assignments classified either way
	MSPs            int // confirmed overall MSPs
	ValidMSPs       int // confirmed overall MSPs that are valid
}

// Result is the outcome of a mining run.
type Result struct {
	// MSPs are the maximal significant patterns among all explored
	// assignments (the set M of Algorithm 1).
	MSPs []*assign.Assignment
	// ValidMSPs is M ∩ 𝒜valid, the query's default output.
	ValidMSPs []*assign.Assignment
	// Significant lists every explored assignment classified significant
	// (returned when the query says SELECT ... ALL).
	Significant []*assign.Assignment
	// Supports maps assignment keys to their aggregated crowd support,
	// for every assignment that received answers. Downstream analyses
	// (association-rule confidence, ranking) read from here.
	Supports map[string]float64
	// Transcripts, when EngineConfig.RecordTranscript is set, holds the
	// per-member interview log: one line per usable answer, in the
	// order the kernel folded them in. Two runs over the same crowd are
	// behaviorally equivalent iff their transcripts match.
	Transcripts map[string][]string
	Stats       Stats
	// Trace, when the run carried an Observer, counts and totals every
	// span its journal recorded, by (phase, name) — where the time went.
	// Nil otherwise.
	Trace *obs.TraceSummary
	// Curve, when the run carried a journal, is the answer-arrival curve:
	// per-round new-MSP and new-distinct-answer discoveries against the
	// cumulative question spend. Nil otherwise.
	Curve []obs.CurvePoint
	// JournalRun, when the run carried a journal, is the run ID its
	// journal events were recorded under — the join key for post-hoc cost
	// attribution over a shared journal. 0 otherwise.
	JournalRun int64
}

// SupportOf returns the aggregated support recorded for an assignment
// (0, false when it was classified purely by inference).
func (r *Result) SupportOf(a *assign.Assignment) (float64, bool) {
	s, ok := r.Supports[a.Key()]
	return s, ok
}

// progressTracker incrementally maintains the counters behind
// Stats.Progress. The MSP count is the kernel's confirmed set; the tracker
// counts how many of those MSPs are valid.
type progressTracker struct {
	space     *assign.Space
	valid     *assign.ValidScan
	validMSPs int
}

func newProgressTracker(sp *assign.Space) *progressTracker {
	return &progressTracker{space: sp, valid: sp.NewValidScan()}
}

// onMark updates the classified-valid counter after a border change. sig
// says which border grew; a is the newly marked assignment.
func (t *progressTracker) onMark(a *assign.Assignment, sig bool) {
	t.valid.Mark(a, sig)
}

// onMSP records a newly confirmed MSP. witnessConfirm calls it once per
// MSP: settle marks each assignment at most once, and the border loop skips
// confirmed nodes.
func (t *progressTracker) onMSP(a *assign.Assignment) {
	if t.space.IsValid(a) {
		t.validMSPs++
	}
}

// sample appends one progress point for the given question count and
// number of confirmed MSPs.
func (t *progressTracker) sample(s *Stats, msps int) {
	s.Progress = append(s.Progress, ProgressPoint{
		Questions:       s.Questions,
		ClassifiedValid: t.valid.Classified(),
		MSPs:            msps,
		ValidMSPs:       t.validMSPs,
	})
}
