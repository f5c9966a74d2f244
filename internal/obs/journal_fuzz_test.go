package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// recordedJournal is the JSONL stream TestJournalJSONLDeterminism records:
// every fixture event through the journal's sink.
func recordedJournal(t testing.TB) []byte {
	j := newJournal(64)
	var sink bytes.Buffer
	j.SetSink(&sink)
	for _, e := range journalFixtureEvents() {
		j.record(e)
	}
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	return sink.Bytes()
}

var journalLineErr = regexp.MustCompile(`^journal line (\d+): `)

// checkJournalDecode is the robustness contract of ReadJournalJSONL: it
// never panics, and either decodes one event per non-blank line, which
// fold into a fresh scoreboard and fresh kernel and platform sets without
// panicking, or returns an error naming a line of the input that does not
// decode on its own.
func checkJournalDecode(t *testing.T, input []byte) {
	t.Helper()
	events, err := ReadJournalJSONL(bytes.NewReader(input))
	lines := strings.Split(string(input), "\n")
	if err == nil {
		n := 0
		for _, l := range lines {
			if len(bytes.TrimSpace([]byte(l))) > 0 {
				n++
			}
		}
		if len(events) != n {
			t.Fatalf("decoded %d events from %d non-blank lines", len(events), n)
		}
		r := NewRegistry()
		FoldScoreboard(r, events).Snapshot()
		FoldMetrics(r, events)
		r.WritePrometheus(io.Discard)
		return
	}
	m := journalLineErr.FindStringSubmatch(err.Error())
	if m == nil {
		t.Fatalf("error does not name a line: %v", err)
	}
	line, _ := strconv.Atoi(m[1])
	if line < 1 || line > len(lines) {
		t.Fatalf("error names line %d of a %d-line input: %v", line, len(lines), err)
	}
	if errors.Is(err, bufio.ErrTooLong) {
		return
	}
	var e Event
	if json.Unmarshal(bytes.TrimSpace([]byte(lines[line-1])), &e) == nil {
		t.Fatalf("error names line %d, which decodes on its own: %v", line, err)
	}
}

// TestReadJournalTruncated cuts the recorded journal at every byte and
// corrupts every byte in turn: each prefix and each corrupted copy must
// decode cleanly or fail naming the broken line.
func TestReadJournalTruncated(t *testing.T) {
	rec := recordedJournal(t)
	for i := 0; i <= len(rec); i++ {
		checkJournalDecode(t, rec[:i])
	}
	for i := range rec {
		for _, c := range []byte{'{', '}', '"', '\n', 0, 0xff} {
			bad := bytes.Clone(rec)
			bad[i] = c
			checkJournalDecode(t, bad)
		}
	}
}

// FuzzReadJournalJSONL drives ReadJournalJSONL, and the scoreboard and
// counter folds of what it decodes, with arbitrary input seeded from a
// recorded journal (ban and settle events included), whole, truncated and
// corrupted, with hostile member events and with hostile barriers (run
// with `go test -fuzz=FuzzReadJournalJSONL ./internal/obs`).
func FuzzReadJournalJSONL(f *testing.F) {
	rec := recordedJournal(f)
	f.Add(rec)
	f.Add(rec[:len(rec)/2])
	f.Add(rec[:len(rec)-2])
	bad := bytes.Clone(rec)
	bad[len(bad)/3] = '}'
	f.Add(bad)
	f.Add([]byte("\n\n{}\n"))
	f.Add([]byte(`{"kind":"ask","pruned":[1,2`))
	f.Add([]byte(`{"seq":0,"run":1,"at_ns":5,"kind":"span","key":"round","elapsed_ns":9,"phase":"5a","attrs":[{"k":"asks","v":4}]}` + "\n"))
	f.Add([]byte(`{"kind":"ban","member":"m"}` + "\n" + `{"kind":"ask","member":"m"}` + "\n" +
		`{"kind":"reply","member":"m","support":-1e308,"elapsed_ns":-5}` + "\n" +
		`{"kind":"reply","member":"m","support":1e308,"elapsed_ns":-9223372036854775808}` + "\n" +
		`{"kind":"reply","member":"m","support":1e308}` + "\n" +
		`{"kind":"settle","agreed":["ghost",""],"disagreed":["m","ghost"]}` + "\n" +
		`{"kind":"timeout","struck":true}` + "\n"))
	f.Add([]byte(`{"kind":"reply","member":"m","support":NaN}`))
	f.Add([]byte(`{"kind":"round_end","asks":-5,"replies":-1,"border":-9223372036854775808,"inferred":9223372036854775807,"elapsed_ns":-9223372036854775808}` + "\n" +
		`{"kind":"round_end","asks":9223372036854775807,"inferred":9223372036854775807}` + "\n" +
		`{"kind":"run_end","inferred":-9223372036854775808,"new_msps":-3}` + "\n" +
		`{"kind":"reply","disp":"bogus"}` + "\n" + `{"kind":"departure"}` + "\n" +
		`{"kind":"store_expired"}` + "\n" + `{"kind":"store_join","member":""}` + "\n"))
	f.Fuzz(func(t *testing.T, input []byte) {
		checkJournalDecode(t, input)
	})
}
