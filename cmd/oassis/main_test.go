package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"oassis"
	"oassis/internal/crowd"
	"oassis/internal/paperdata"
)

// writeFixture writes the Figure 1 ontology, the Table 3 crowd and the
// simple query at each threshold into dir, returning the run config for
// the first threshold's query and the query paths.
func writeFixture(t *testing.T, dir string, thetas ...string) (runConfig, []string) {
	t.Helper()
	v, store := paperdata.Build()
	var onto, members bytes.Buffer
	if err := oassis.WriteOntology(&onto, store); err != nil {
		t.Fatal(err)
	}
	du1, du2 := paperdata.Table3(v)
	sims := []*crowd.SimMember{crowd.NewSimMember("u1", v, du1, 1), crowd.NewSimMember("u2", v, du2, 2)}
	if err := crowd.WriteCrowd(&members, v, sims); err != nil {
		t.Fatal(err)
	}
	cfg := runConfig{
		ontologyPath: filepath.Join(dir, "ontology.txt"),
		crowdPath:    filepath.Join(dir, "crowd.txt"),
		cachePath:    filepath.Join(dir, "answers.json"),
		seed:         1, k: 2, specRatio: 0.12, pruneRatio: 0.25,
	}
	write(t, cfg.ontologyPath, onto.Bytes())
	write(t, cfg.crowdPath, members.Bytes())
	var queries []string
	for _, theta := range thetas {
		path := filepath.Join(dir, "query-"+theta+".oql")
		write(t, path, []byte(strings.Replace(paperdata.SimpleQueryText, "SUPPORT = 0.4", "SUPPORT = "+theta, 1)))
		queries = append(queries, path)
	}
	return cfg, queries
}

func write(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// quiet sends the command's report to /dev/null for the test's duration.
func quiet(t *testing.T) {
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = devnull
	t.Cleanup(func() {
		os.Stdout = stdout
		devnull.Close()
	})
}

// storedAnswers reads the -cache snapshot back and counts its answers.
func storedAnswers(t *testing.T, cfg runConfig) int {
	t.Helper()
	v, _, err := oassis.LoadOntologyFile(cfg.ontologyPath)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(cfg.cachePath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	p, err := oassis.LoadPlatform(f, v, oassis.PlatformConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return p.Len()
}

// TestCacheReplaysAcrossThresholds runs the tool at θ=0.2 and then at
// θ=0.4 on one -cache snapshot: the second run replays the first run's
// answers, so it sends fewer questions to live members than the first run
// and than a θ=0.4 run on an empty snapshot.
func TestCacheReplaysAcrossThresholds(t *testing.T) {
	quiet(t)
	cfg, queries := writeFixture(t, t.TempDir(), "0.2", "0.4")
	cfg.queryPath = queries[0]
	if err := run(cfg); err != nil {
		t.Fatal(err)
	}
	first := storedAnswers(t, cfg)
	if first == 0 {
		t.Fatal("first run saved no answers")
	}
	cfg.queryPath = queries[1]
	if err := run(cfg); err != nil {
		t.Fatal(err)
	}
	// Every live question stores one answer (the simulated members never
	// depart), so the snapshot's growth counts the second run's.
	second := storedAnswers(t, cfg) - first
	cfg.cachePath += ".fresh"
	if err := run(cfg); err != nil {
		t.Fatal(err)
	}
	fresh := storedAnswers(t, cfg)
	t.Logf("live questions: %d at θ=0.2, then %d at θ=0.4 (%d on an empty snapshot)", first, second, fresh)
	if second >= first || second >= fresh {
		t.Errorf("θ=0.4 re-run asked %d live questions, θ=0.2 asked %d and a fresh θ=0.4 run %d; want fewer than both",
			second, first, fresh)
	}
}

// TestCacheRejectsCorruptSnapshot corrupts the snapshot two ways — cut
// short, and with an answer choice no question has — and expects an
// error from the run, not a panic.
func TestCacheRejectsCorruptSnapshot(t *testing.T) {
	quiet(t)
	cfg, queries := writeFixture(t, t.TempDir(), "0.4")
	cfg.queryPath = queries[0]
	if err := run(cfg); err != nil {
		t.Fatal(err)
	}
	snap, err := os.ReadFile(cfg.cachePath)
	if err != nil {
		t.Fatal(err)
	}
	badChoice := bytes.Replace(snap, []byte(`"choice": -1`), []byte(`"choice": 99`), 1)
	if bytes.Equal(badChoice, snap) {
		t.Fatal("snapshot holds no answer to corrupt")
	}
	for name, data := range map[string][]byte{"truncated": snap[:len(snap)/2], "bad choice": badChoice} {
		write(t, cfg.cachePath, data)
		if err := run(cfg); err == nil {
			t.Errorf("%s snapshot accepted", name)
		}
	}
}
