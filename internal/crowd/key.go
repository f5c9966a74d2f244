package crowd

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"oassis/internal/ontology"
	"oassis/internal/vocab"
)

// QuestionKey returns a canonical identity for the question content of an
// Ask — what is being asked, independent of the addressed member, the ask
// ID and (for specializations) the order the candidate options happened to
// be enumerated in. Two Asks with equal keys pose the same question, so a
// crowd answer to one is a crowd answer to the other; this is the identity
// the cross-query answer platform dedupes on.
//
// For a SpecializeAsk the returned permutation maps canonical option
// positions back to the ask's own: perm[j] is the index into a.Options of
// the j-th option in canonical (sorted-key) order. A stored choice is kept
// in canonical terms and translated through each consumer's permutation,
// so queries that enumerate the same candidate set in different orders
// still exchange answers. The permutation is nil for a ConcreteAsk.
func QuestionKey(a *Ask) (string, []int) {
	switch a.Kind {
	case SpecializeAsk:
		keys := make([]string, len(a.Options))
		for i, c := range a.Options {
			keys[i] = factSetKey(c)
		}
		perm := make([]int, len(keys))
		for i := range perm {
			perm[i] = i
		}
		sort.Slice(perm, func(i, j int) bool { return keys[perm[i]] < keys[perm[j]] })
		var sb strings.Builder
		sb.WriteString("s|")
		sb.WriteString(factSetKey(a.Base))
		sb.WriteByte('|')
		for _, i := range perm {
			sb.WriteString(keys[i])
			sb.WriteByte(';')
		}
		return sb.String(), perm
	default:
		return "c|" + factSetKey(a.Target), nil
	}
}

// factSetKey renders a canonical fact-set (NewFactSet sorts and dedupes)
// as a compact string identity over interned term IDs. Keys are only
// comparable between fact-sets drawn from the same vocabulary.
func factSetKey(fs ontology.FactSet) string {
	var sb strings.Builder
	for _, f := range fs {
		sb.WriteString(strconv.FormatUint(uint64(f.S), 10))
		sb.WriteByte('.')
		sb.WriteString(strconv.FormatUint(uint64(f.P), 10))
		sb.WriteByte('.')
		sb.WriteString(strconv.FormatUint(uint64(f.O), 10))
		sb.WriteByte(',')
	}
	return sb.String()
}

// ParseQuestionKey inverts QuestionKey: it rebuilds the question content
// of a key — the Kind and Target of a concrete question, or the Kind, Base
// and canonically ordered Options of a specialization — and leaves the
// addressing fields zero. Any string QuestionKey could not have produced
// is rejected, so a stored canonical choice always indexes the Options.
func ParseQuestionKey(key string) (*Ask, error) {
	a := &Ask{}
	var err error
	switch {
	case strings.HasPrefix(key, "c|"):
		a.Target, err = parseFactSetKey(key[2:])
	case strings.HasPrefix(key, "s|"):
		a.Kind = SpecializeAsk
		base, opts, ok := strings.Cut(key[2:], "|")
		if !ok {
			return nil, fmt.Errorf("crowd: question key %q has no option list", key)
		}
		a.Base, err = parseFactSetKey(base)
		for err == nil && opts != "" {
			var opt string
			if opt, opts, ok = strings.Cut(opts, ";"); !ok {
				return nil, fmt.Errorf("crowd: question key %q has an unterminated option", key)
			}
			var fs ontology.FactSet
			fs, err = parseFactSetKey(opt)
			a.Options = append(a.Options, fs)
		}
	default:
		return nil, fmt.Errorf("crowd: question key %q lacks a c| or s| prefix", key)
	}
	if err != nil {
		return nil, fmt.Errorf("crowd: question key %q: %w", key, err)
	}
	if canon, _ := QuestionKey(a); canon != key {
		return nil, fmt.Errorf("crowd: question key %q is not canonical", key)
	}
	return a, nil
}

// parseFactSetKey inverts factSetKey: "s.p.o," repeated, each term the
// decimal rendering of an interned ID (ontology.Any included).
func parseFactSetKey(s string) (ontology.FactSet, error) {
	var facts []ontology.Fact
	for s != "" {
		triple, rest, ok := strings.Cut(s, ",")
		parts := strings.Split(triple, ".")
		if !ok || len(parts) != 3 {
			return nil, fmt.Errorf("malformed fact %q", triple)
		}
		var ids [3]vocab.TermID
		for i, part := range parts {
			n, err := strconv.ParseUint(part, 10, 64)
			if err != nil || uint64(vocab.TermID(n)) != n {
				return nil, fmt.Errorf("malformed term %q in fact %q", part, triple)
			}
			ids[i] = vocab.TermID(n)
		}
		facts = append(facts, ontology.Fact{S: ids[0], P: ids[1], O: ids[2]})
		s = rest
	}
	return ontology.NewFactSet(facts...), nil
}
