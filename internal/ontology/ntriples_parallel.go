package ontology

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"oassis/internal/obs"
	"oassis/internal/vocab"
)

// This file is the N-Triples ingestion pipeline. It produces exactly the
// vocabulary, store and stats of a serial line-by-line load (the tests
// keep such a loader, loadNTriplesSerial, as their differential oracle)
// while spreading the expensive work — tokenizing, escape decoding,
// IRI→name mapping and term interning — across every core. Stages:
//
//  1. A chunked reader splits the input into ~1 MiB chunks on line
//     boundaries and fans them to workers.
//  2. Per-core workers parse their chunk's lines with parseNTriple,
//     intern every derived name through a sharded read-mostly interner
//     (vocab.ShardedInterner) receiving *provisional* IDs, and emit a
//     compact op per line.
//  3. A serial merge replays the ops in input order, assigning final
//     vocab.TermIDs at first occurrence — the order a serial load interns
//     in — and replaying order edges and errors at their exact lines.
//     This phase touches only integer remap arrays plus one map lookup
//     per *unique* term, so it is cheap relative to parsing.
//  4. The merged fact slice goes to the store as it is: Store.Freeze
//     sorts it into the store's three permutations with counting sorts,
//     dropping duplicates, while the vocabulary freezes on the calling
//     goroutine.
//
// Determinism argument: provisional IDs are scheduling-dependent, but they
// are resolved to final IDs only by the merge, which walks ops strictly in
// input order and interns sub-line names in the exact sequence the serial
// oracle does. Order edges are replayed in the same sequence, so the
// vocabulary's topological order is identical. The store's layout is a
// function of the set of facts alone (every permutation is fully sorted,
// duplicates dropped), so neither the fact order nor duplicates change it.
// See DESIGN.md §12.

// maxNTripleLine caps a single input line at 16 MiB; a longer line fails
// with bufio.ErrTooLong, as a bufio.Scanner with that token limit would.
const maxNTripleLine = 16 * 1024 * 1024

// LoadNTriples parses N-Triples into a fresh vocabulary and store,
// freezing both, with GOMAXPROCS parse workers over 1 MiB chunks. The
// result (TermIDs, order edges, indexes, labels, stats, and error
// positions) is byte-identical to a serial line-by-line load's: TermIDs in
// first-occurrence order, errors at their input line. A non-nil observer
// receives the ingest counters and per-stage spans: ingest_parse,
// ingest_merge, then ingest_index (the store's counting sorts) overlapped
// with ingest_freeze (the vocabulary freeze).
func LoadNTriples(r io.Reader, o *obs.Observer) (*vocab.Vocabulary, *Store, *NTriplesStats, error) {
	return loadNTriples(r, runtime.GOMAXPROCS(0), 1<<20, o)
}

// loadNTriples is LoadNTriples with an explicit parse-worker count and
// reader chunk size; the tests sweep both to put lines on every chunk
// boundary.
func loadNTriples(r io.Reader, workers, chunkBytes int, o *obs.Observer) (*vocab.Vocabulary, *Store, *NTriplesStats, error) {
	jr := o.JournalSet()
	im := o.IngestSet()
	loadStart := time.Now()

	// Stage 1+2: chunk and parse concurrently.
	parseStart := jr.Begin()
	ei := vocab.NewShardedInterner()
	ri := vocab.NewShardedInterner()
	results := parseAllChunks(r, chunkBytes, workers, ei, ri)
	var totalLines int
	for _, cr := range results {
		totalLines += cr.lines
	}
	jr.End("ingest_parse", parseStart,
		obs.Attr{Key: "chunks", Val: int64(len(results))},
		obs.Attr{Key: "lines", Val: int64(totalLines)},
		obs.Attr{Key: "workers", Val: int64(workers)})

	// Stage 3: deterministic merge.
	mergeStart := jr.Begin()
	v := vocab.New()
	s := NewStore(v)
	stats := &NTriplesStats{}
	facts, err := mergeOps(results, v, s, stats, ei, ri)
	jr.End("ingest_merge", mergeStart, obs.Attr{Key: "facts", Val: int64(len(facts))})
	if err != nil {
		im.LoadFailed()
		return nil, nil, nil, err
	}

	// Stage 4: the store's counting sorts overlapped with the vocabulary
	// freeze. Store.Freeze reads only the vocabulary's term counts, which
	// the vocabulary freeze leaves alone.
	s.pending = facts
	buildStart := jr.Begin()
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Freeze()
		jr.End("ingest_index", buildStart, obs.Attr{Key: "unique_facts", Val: int64(s.Size())})
	}()
	freezeErr := v.Freeze()
	jr.End("ingest_freeze", buildStart)
	<-done
	if freezeErr != nil {
		im.LoadFailed()
		return nil, nil, nil, fmt.Errorf("ntriples: %w", freezeErr)
	}

	im.LoadDone(stats.Triples, stats.Facts, stats.Labels,
		stats.SkippedLiterals, stats.SkippedBlank, time.Since(loadStart).Seconds())
	return v, s, stats, nil
}

// --- stage 1+2: chunked reading and parallel parsing ---

type ntChunk struct {
	index int
	data  []byte
	err   error // reader-side failure attributed to this chunk position
}

// ingestOp is one parsed line, compact enough to stream millions through
// the merge. a/b/c are provisional interner IDs whose meaning depends on
// kind; line is 1-based within the chunk.
type ingestOp struct {
	lit     string // label literal (opLabel only)
	a, b, c uint32
	line    int32
	kind    uint8
}

const (
	opSkipBlank   uint8 = iota // blank-node triple: SkippedBlank++
	opSkipLiteral              // non-label literal object: Triples++, SkippedLiterals++
	opTripleNop                // rdfs:label with IRI object: Triples++ only
	opLabel                    // a=subject element, b=hasLabel relation, lit=label
	opSubProp                  // a=specific relation (subject), b=general relation (object)
	opFactPlain                // a=subject element, b=object element, c=relation
	opFactOrder                // opFactPlain + OrderElements(object, subject)
)

type chunkResult struct {
	ops     []ingestOp
	lines   int   // lines in this chunk (parse stops early on error)
	errLine int32 // 1-based line of err within the chunk; <= 0 means line-less
	err     error
}

// parseAllChunks runs the chunked reader and the worker pool to completion,
// returning per-chunk results in input order. Errors are carried inside the
// results so the merge can surface the first one in line order.
func parseAllChunks(r io.Reader, chunkBytes, workers int, ei, ri *vocab.ShardedInterner) []*chunkResult {
	chunks := make(chan ntChunk, workers)
	var (
		mu      sync.Mutex
		results []*chunkResult
	)
	put := func(idx int, cr *chunkResult) {
		mu.Lock()
		for len(results) <= idx {
			results = append(results, nil)
		}
		results[idx] = cr
		mu.Unlock()
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ch := range chunks {
				if ch.err != nil {
					put(ch.index, &chunkResult{err: ch.err, errLine: -1})
					continue
				}
				put(ch.index, parseChunk(ch.data, ei, ri))
			}
		}()
	}
	readChunks(r, chunkBytes, chunks)
	close(chunks)
	wg.Wait()
	return results
}

// readChunks slices r into line-aligned chunks of roughly chunkBytes each
// and sends them downstream. A read failure or an unterminated line beyond
// the 16 MiB cap is attributed to the chunk position where it occurred.
func readChunks(r io.Reader, chunkBytes int, out chan<- ntChunk) {
	var pending []byte
	index := 0
	for {
		buf := make([]byte, chunkBytes)
		n, err := io.ReadFull(r, buf)
		data := buf[:n]
		if n > 0 {
			if nl := bytes.LastIndexByte(data, '\n'); nl >= 0 {
				chunkData := make([]byte, 0, len(pending)+nl+1)
				chunkData = append(chunkData, pending...)
				chunkData = append(chunkData, data[:nl+1]...)
				pending = append(pending[:0], data[nl+1:]...)
				out <- ntChunk{index: index, data: chunkData}
				index++
			} else {
				pending = append(pending, data...)
			}
			if len(pending) > maxNTripleLine {
				out <- ntChunk{index: index, err: bufio.ErrTooLong}
				return
			}
		}
		if err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				if len(pending) > 0 {
					out <- ntChunk{index: index, data: pending}
				}
				return
			}
			out <- ntChunk{index: index, err: err}
			return
		}
	}
}

// parseChunk tokenizes one chunk with parseNTriple and interns every
// derived name, emitting one op per line. It stops at the chunk's first
// malformed line, mirroring a serial load's abort.
func parseChunk(data []byte, ei, ri *vocab.ShardedInterner) *chunkResult {
	res := &chunkResult{ops: make([]ingestOp, 0, bytes.Count(data, []byte{'\n'})+1)}
	for start := 0; start < len(data); {
		var lineBytes []byte
		if nl := bytes.IndexByte(data[start:], '\n'); nl >= 0 {
			lineBytes = data[start : start+nl]
			start += nl + 1
		} else {
			lineBytes = data[start:]
			start = len(data)
		}
		res.lines++
		if len(lineBytes) > maxNTripleLine {
			res.err = bufio.ErrTooLong
			res.errLine = -1
			return res
		}
		trimmed := bytes.TrimSpace(lineBytes)
		if len(trimmed) == 0 || trimmed[0] == '#' {
			continue
		}
		t, err := parseNTriple(string(trimmed))
		if err != nil {
			res.err = err
			res.errLine = int32(res.lines)
			return res
		}
		res.addOp(t, int32(res.lines), ei, ri)
	}
	return res
}

// addOp lowers one parsed triple to an op, interning names in the exact
// order the serial oracle does so the merge can replay first occurrences.
func (res *chunkResult) addOp(t ntriple, line int32, ei, ri *vocab.ShardedInterner) {
	if t.blank {
		res.ops = append(res.ops, ingestOp{kind: opSkipBlank, line: line})
		return
	}
	switch t.pred {
	case iriLabel:
		if !t.isLiteral {
			res.ops = append(res.ops, ingestOp{kind: opTripleNop, line: line})
			return
		}
		res.ops = append(res.ops, ingestOp{kind: opLabel, line: line,
			a: ei.Intern(localName(t.subj)), b: ri.Intern(RelHasLabel), lit: t.objLit})
		return
	case iriSubPropertyOf:
		if t.isLiteral {
			res.ops = append(res.ops, ingestOp{kind: opSkipLiteral, line: line})
			return
		}
		res.ops = append(res.ops, ingestOp{kind: opSubProp, line: line,
			a: ri.Intern(localName(t.subj)), b: ri.Intern(localName(t.objIRI))})
		return
	}
	if t.isLiteral {
		res.ops = append(res.ops, ingestOp{kind: opSkipLiteral, line: line})
		return
	}
	var rel string
	switch t.pred {
	case iriSubClassOf:
		rel = RelSubClassOf
	case iriType:
		rel = RelInstanceOf
	default:
		rel = localName(t.pred)
	}
	kind := opFactPlain
	// The ordering decision is keyed on the derived relation name, not
	// the predicate IRI, so any IRI whose local name collides with
	// subClassOf/instanceOf orders elements too.
	if rel == RelSubClassOf || rel == RelInstanceOf {
		kind = opFactOrder
	}
	res.ops = append(res.ops, ingestOp{kind: kind, line: line,
		a: ei.Intern(localName(t.subj)), b: ei.Intern(localName(t.objIRI)), c: ri.Intern(rel)})
}

// --- stage 3: deterministic merge ---

// mergeOps replays the per-chunk ops in input order against a fresh
// vocabulary, assigning final TermIDs in first-occurrence order, recording
// labels and order edges, and accumulating the (not yet deduplicated) fact
// stream. Errors — parse failures and vocabulary violations alike — surface
// at the same absolute line, with the same message, as a serial load's.
func mergeOps(results []*chunkResult, v *vocab.Vocabulary, s *Store, stats *NTriplesStats, ei, ri *vocab.ShardedInterner) ([]Fact, error) {
	remapE := newRemap(ei.ProvBound())
	remapR := newRemap(ri.ProvBound())
	elemID := func(prov uint32) (vocab.TermID, error) {
		if id := remapE[prov]; id != vocab.NoTerm {
			return id, nil
		}
		id, err := v.AddElement(ei.Name(prov))
		if err != nil {
			return vocab.NoTerm, err
		}
		remapE[prov] = id
		return id, nil
	}
	relID := func(prov uint32) (vocab.TermID, error) {
		if id := remapR[prov]; id != vocab.NoTerm {
			return id, nil
		}
		id, err := v.AddRelation(ri.Name(prov))
		if err != nil {
			return vocab.NoTerm, err
		}
		remapR[prov] = id
		return id, nil
	}

	nFacts := 0
	for _, cr := range results {
		for i := range cr.ops {
			if k := cr.ops[i].kind; k == opFactPlain || k == opFactOrder {
				nFacts++
			}
		}
	}
	facts := make([]Fact, 0, nFacts)

	base := 0
	for _, cr := range results {
		if cr == nil {
			continue
		}
		for i := range cr.ops {
			op := &cr.ops[i]
			lineErr := func(err error) error {
				return fmt.Errorf("ntriples: line %d: %w", base+int(op.line), err)
			}
			switch op.kind {
			case opSkipBlank:
				stats.SkippedBlank++
			case opSkipLiteral:
				stats.Triples++
				stats.SkippedLiterals++
			case opTripleNop:
				stats.Triples++
			case opLabel:
				stats.Triples++
				e, err := elemID(op.a)
				if err != nil {
					return nil, lineErr(err)
				}
				if _, err := relID(op.b); err != nil {
					return nil, lineErr(err)
				}
				stats.Labels++
				if err := s.AddLabel(e, op.lit); err != nil {
					return nil, lineErr(err)
				}
			case opSubProp:
				stats.Triples++
				spec, err := relID(op.a)
				if err != nil {
					return nil, lineErr(err)
				}
				gen, err := relID(op.b)
				if err != nil {
					return nil, lineErr(err)
				}
				if err := v.OrderRelations(gen, spec); err != nil {
					return nil, lineErr(err)
				}
			case opFactPlain, opFactOrder:
				stats.Triples++
				se, err := elemID(op.a)
				if err != nil {
					return nil, lineErr(err)
				}
				oe, err := elemID(op.b)
				if err != nil {
					return nil, lineErr(err)
				}
				p, err := relID(op.c)
				if err != nil {
					return nil, lineErr(err)
				}
				if op.kind == opFactOrder {
					if err := v.OrderElements(oe, se); err != nil {
						return nil, lineErr(err)
					}
				}
				stats.Facts++
				facts = append(facts, Fact{S: se, P: p, O: oe})
			}
		}
		if cr.err != nil {
			if cr.errLine <= 0 {
				return nil, fmt.Errorf("ntriples: %w", cr.err)
			}
			return nil, fmt.Errorf("ntriples: line %d: %w", base+int(cr.errLine), cr.err)
		}
		base += cr.lines
	}
	return facts, nil
}

func newRemap(bound uint32) []vocab.TermID {
	m := make([]vocab.TermID, bound)
	for i := range m {
		m[i] = vocab.NoTerm
	}
	return m
}
