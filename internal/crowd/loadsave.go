package crowd

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"oassis/internal/ontology"
	"oassis/internal/vocab"
)

// LoadCrowd parses the textual crowd format into simulated members. The
// format is line-oriented:
//
//	# comment
//	member <id>
//	<subject> <predicate> <object> . <subject> <predicate> <object> ...
//
// Each line after a `member` header is one transaction: facts separated by
// " . " (names may be double-quoted to include spaces). Every term must
// exist in the vocabulary. Seeds derive deterministically from baseSeed and
// the member's position.
func LoadCrowd(r io.Reader, v *vocab.Vocabulary, baseSeed int64) ([]*SimMember, error) {
	scanner := bufio.NewScanner(r)
	scanner.Buffer(make([]byte, 64*1024), 1024*1024)
	var members []*SimMember
	var curID string
	var curDB []ontology.FactSet
	lineNo := 0
	flush := func() {
		if curID != "" {
			members = append(members, NewSimMember(curID, v, curDB,
				baseSeed+int64(len(members))))
		}
		curID, curDB = "", nil
	}
	for scanner.Scan() {
		lineNo++
		line := strings.TrimSpace(scanner.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "member "); ok {
			flush()
			curID = strings.TrimSpace(rest)
			if curID == "" {
				return nil, fmt.Errorf("crowd: line %d: empty member id", lineNo)
			}
			continue
		}
		if curID == "" {
			return nil, fmt.Errorf("crowd: line %d: transaction before any member header", lineNo)
		}
		fs, err := parseTransaction(line, v)
		if err != nil {
			return nil, fmt.Errorf("crowd: line %d: %w", lineNo, err)
		}
		curDB = append(curDB, fs)
	}
	if err := scanner.Err(); err != nil {
		return nil, fmt.Errorf("crowd: %w", err)
	}
	flush()
	return members, nil
}

// parseTransaction parses "s p o . s p o . ..." into a fact-set.
func parseTransaction(line string, v *vocab.Vocabulary) (ontology.FactSet, error) {
	toks, err := tokenizeTransaction(line)
	if err != nil {
		return nil, err
	}
	var facts []ontology.Fact
	for i := 0; i < len(toks); {
		if toks[i] == "." {
			i++
			continue
		}
		if i+2 >= len(toks) {
			return nil, fmt.Errorf("incomplete fact near %q", strings.Join(toks[i:], " "))
		}
		s := v.Element(toks[i])
		p := v.Relation(toks[i+1])
		o := v.Element(toks[i+2])
		if s == vocab.NoTerm {
			return nil, fmt.Errorf("unknown element %q", toks[i])
		}
		if p == vocab.NoTerm {
			return nil, fmt.Errorf("unknown relation %q", toks[i+1])
		}
		if o == vocab.NoTerm {
			return nil, fmt.Errorf("unknown element %q", toks[i+2])
		}
		facts = append(facts, ontology.Fact{S: s, P: p, O: o})
		i += 3
	}
	if len(facts) == 0 {
		return nil, fmt.Errorf("empty transaction")
	}
	return ontology.NewFactSet(facts...), nil
}

// tokenizeTransaction splits on whitespace, honouring quotes, keeping "."
// separators as tokens.
func tokenizeTransaction(line string) ([]string, error) {
	var toks []string
	i := 0
	for i < len(line) {
		switch {
		case line[i] == ' ' || line[i] == '\t':
			i++
		case line[i] == '"':
			j := strings.IndexByte(line[i+1:], '"')
			if j < 0 {
				return nil, fmt.Errorf("unterminated quote")
			}
			toks = append(toks, line[i+1:i+1+j])
			i += j + 2
		case line[i] == '.' && (i+1 == len(line) || line[i+1] == ' '):
			toks = append(toks, ".")
			i++
		default:
			j := i
			for j < len(line) && line[j] != ' ' && line[j] != '\t' {
				j++
			}
			toks = append(toks, line[i:j])
			i = j
		}
	}
	return toks, nil
}

// WriteCrowd serializes simulated members (their personal databases) in the
// format accepted by LoadCrowd.
func WriteCrowd(w io.Writer, v *vocab.Vocabulary, members []*SimMember) error {
	bw := bufio.NewWriter(w)
	for _, m := range members {
		if _, err := fmt.Fprintf(bw, "member %s\n", m.ID()); err != nil {
			return err
		}
		for _, tx := range m.db {
			parts := make([]string, len(tx))
			for i, f := range tx {
				parts[i] = quoteName(v.ElementName(f.S)) + " " +
					quoteName(v.RelationName(f.P)) + " " +
					quoteName(v.ElementName(f.O))
			}
			if _, err := fmt.Fprintf(bw, "%s\n", strings.Join(parts, " . ")); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

func quoteName(name string) string {
	if strings.ContainsAny(name, " \t") {
		return `"` + name + `"`
	}
	return name
}
