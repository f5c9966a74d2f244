package assign

// Status is the classification of an assignment during mining.
type Status uint8

const (
	// Unknown means no answer classifies the assignment yet.
	Unknown Status = iota
	// Significant means its support meets the threshold (directly or by
	// the inference of Observation 4.4 from a significant successor).
	Significant
	// Insignificant means its support is below the threshold (directly
	// or inferred from an insignificant predecessor).
	Insignificant
)

func (s Status) String() string {
	switch s {
	case Significant:
		return "significant"
	case Insignificant:
		return "insignificant"
	default:
		return "unknown"
	}
}

// Classifier realizes the inference scheme of Algorithm 1's ask(·): marking
// an assignment significant classifies all its predecessors, marking it
// insignificant classifies all its successors. Instead of materializing
// those (possibly lazily generated, unbounded) sets, the classifier keeps
// two borders à la Mannila–Toivonen: the maximal known-significant and the
// minimal known-insignificant assignments. Any assignment — including ones
// generated after the answers arrived — is classified by comparison against
// the borders.
//
// Because classifications are final (borders only ever grow), Status
// memoizes per NodeID in a dense slice: a classified verdict is cached
// forever and an Unknown verdict only re-examines marks added since the
// last check, through a per-node cursor into each mark log. Every (node,
// mark) pair therefore reaches Space.Leq at most once from Status, so there
// is no per-pair order memo: one could hit only on the Mark* border
// rescans. Measured on the perfbench mining workloads before it was
// removed, such a memo hit about one lookup in seven (0.69M of 4.96M on
// mine, 1.12M of 8.67M on single), and a hash probe cost several times the
// comparison it saved.
//
// Each entry also records the canonical node it belongs to, so a node the
// classifier has already seen is recognized by one pointer comparison
// instead of a Space.Canon call under the space's lock.
//
// A Classifier is not safe for concurrent use; each engine run owns one
// (the underlying Space, by contrast, is shared).
type Classifier struct {
	space *Space
	// sig is an antichain of known-significant assignments; everything
	// ≤ a member is significant.
	sig []*Assignment
	// insig is an antichain of known-insignificant assignments;
	// everything ≥ a member is insignificant.
	insig []*Assignment

	// sigLog and insigLog append every mark (no antichain pruning) so
	// cached Unknown verdicts can resume scanning incrementally.
	sigLog   []*Assignment
	insigLog []*Assignment
	// entries is indexed by NodeID; the zero entry (Unknown, log cursors
	// at 0, no node recorded yet) is the correct initial state for a
	// fresh node.
	entries []statusEntry
	// sigSize tracks len(sig) incrementally so the per-round border gauge
	// (core.Engine.drive) reads a plain counter instead of touching the
	// border slice at all.
	sigSize int
}

type statusEntry struct {
	// node is the canonical assignment this entry belongs to (nil until
	// the classifier first sees it). A caller holding exactly this pointer
	// skips Space.Canon; any other pointer with the same NodeID — built
	// outside the space, or interned by another space — does not.
	node     *Assignment
	status   Status
	sigIdx   int32 // next sigLog index to examine
	insigIdx int32 // next insigLog index to examine
}

// NewClassifier returns an empty classifier over the space.
func NewClassifier(s *Space) *Classifier {
	return &Classifier{space: s}
}

// entry returns a's canonical twin and its status entry, growing the dense
// table as the lazily generated lattice expands. A node whose entry already
// records it is canonical by construction and takes no lock.
func (c *Classifier) entry(a *Assignment) (*Assignment, *statusEntry) {
	if id := a.id; int(id) < len(c.entries) && c.entries[id].node == a {
		return a, &c.entries[id]
	}
	a = c.space.Canon(a)
	for int(a.id) >= len(c.entries) {
		c.entries = append(c.entries, statusEntry{})
	}
	e := &c.entries[a.id]
	e.node = a
	return a, e
}

// Status classifies the assignment against everything marked so far. When
// conflicting evidence exists (possible only with inconsistent answers),
// whichever mark is examined first wins; with monotone answers the two can
// never overlap.
func (c *Classifier) Status(a *Assignment) Status {
	a, e := c.entry(a)
	if e.status != Unknown {
		return e.status
	}
	for ; int(e.insigIdx) < len(c.insigLog); e.insigIdx++ {
		if c.space.Leq(c.insigLog[e.insigIdx], a) {
			e.status = Insignificant
			return e.status
		}
	}
	for ; int(e.sigIdx) < len(c.sigLog); e.sigIdx++ {
		if c.space.Leq(a, c.sigLog[e.sigIdx]) {
			e.status = Significant
			return e.status
		}
	}
	return Unknown
}

// MarkSignificant records that a's support meets the threshold; all
// predecessors of a become significant (Observation 4.4).
func (c *Classifier) MarkSignificant(a *Assignment) {
	a, e := c.entry(a)
	// Drop border members dominated by a; skip insertion if dominated.
	// Each direction of the order is evaluated once per border member.
	out := c.sig[:0]
	covered := false
	for _, b := range c.sig {
		ab := c.space.Leq(a, b)
		if ab {
			covered = true
		}
		if ab || !c.space.Leq(b, a) {
			out = append(out, b)
		}
	}
	c.sig = out
	if covered {
		c.sigSize = len(c.sig)
		return
	}
	c.sig = append(c.sig, a)
	c.sigLog = append(c.sigLog, a)
	e.status = Significant
	c.sigSize = len(c.sig)
}

// MarkInsignificant records that a's support is below the threshold; all
// successors of a become insignificant.
func (c *Classifier) MarkInsignificant(a *Assignment) {
	a, e := c.entry(a)
	out := c.insig[:0]
	covered := false
	for _, b := range c.insig {
		ba := c.space.Leq(b, a)
		if ba {
			covered = true
		}
		if ba || !c.space.Leq(a, b) {
			out = append(out, b)
		}
	}
	c.insig = out
	if covered {
		return
	}
	c.insig = append(c.insig, a)
	c.insigLog = append(c.insigLog, a)
	e.status = Insignificant
}

// SignificantBorder returns the current antichain of maximal significant
// assignments (shared slice; do not modify). When the traversal has
// classified the whole space these are exactly the MSPs among the explored
// assignments.
func (c *Classifier) SignificantBorder() []*Assignment { return c.sig }

// SignificantBorderSize returns the current significant-border antichain
// size. It is maintained incrementally by MarkSignificant, so per-round
// gauges read it in O(1) without materializing (or even touching) the
// border slice.
func (c *Classifier) SignificantBorderSize() int { return c.sigSize }

// InsignificantBorder returns the minimal insignificant antichain.
func (c *Classifier) InsignificantBorder() []*Assignment { return c.insig }

// CountClassified reports how many of the given assignments are classified.
func (c *Classifier) CountClassified(as []*Assignment) int {
	n := 0
	for _, a := range as {
		if c.Status(a) != Unknown {
			n++
		}
	}
	return n
}
