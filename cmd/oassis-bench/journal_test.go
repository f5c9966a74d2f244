package main

import (
	"bytes"
	"os"
	"testing"

	"oassis/internal/exp"
	"oassis/internal/obs"
)

// TestQuickAllJournalTimestamps journals `oassis-bench -quick -fig all`,
// which mixes wall-clock engines with the chaos figure's virtual-clock
// ones in one journal, and checks the time base: every at_ns is
// non-negative, and within each run it never decreases in seq order. The
// figures themselves must come out as without a journal.
func TestQuickAllJournalTimestamps(t *testing.T) {
	want, err := os.ReadFile("testdata/quick_all.golden")
	if err != nil {
		t.Fatal(err)
	}
	o := obs.New()
	var sink bytes.Buffer
	o.JournalSet().SetSink(&sink)
	exp.SetObserver(o)
	defer exp.SetObserver(nil)
	got := captureStdout(t, func() error { return run("all", newConfig(true, 1), o, false) })
	if !bytes.Equal(got, want) {
		t.Errorf("journaled -quick -fig all output differs from testdata/quick_all.golden\n%s", firstDiff(got, want))
	}
	if err := o.JournalSet().Flush(); err != nil {
		t.Fatal(err)
	}
	events, err := obs.ReadJournalJSONL(&sink)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(events)) != o.JournalSet().Total() {
		t.Fatalf("sink holds %d events, journal recorded %d", len(events), o.JournalSet().Total())
	}
	last := map[int64]obs.Event{}
	for _, e := range events {
		if e.At < 0 {
			t.Fatalf("negative at_ns: %+v", e)
		}
		if e.Run == 0 {
			continue
		}
		if prev, ok := last[e.Run]; ok && e.At < prev.At {
			t.Fatalf("run %d goes back in time:\n  %+v\n  %+v", e.Run, prev, e)
		}
		last[e.Run] = e
	}
	if len(last) == 0 {
		t.Fatal("journal recorded no runs")
	}
}
