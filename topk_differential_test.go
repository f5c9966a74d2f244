package oassis_test

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"oassis"
	"oassis/internal/core"
	"oassis/internal/server"
	"oassis/internal/synth"
)

// TestParallelSelectionTopKDifferential pins the top-k mid-flight stop
// path: when MaxMSPs halts the run with replies still in flight, the
// discarded-reply accounting and the confirmed-only MSP border must be
// identical across the sequential driver, the concurrent RunParallel
// driver and the HTTP platform. The stop flips kernel state mid-barrier,
// so later replies' outcomes depend on earlier ones; this scenario gets
// its own differential suite on top of the full-run one.
func TestParallelSelectionTopKDifferential(t *testing.T) {
	d := diffDAG(t)
	const topK = 2

	topCfg := func() core.EngineConfig {
		cfg := diffEngineConfig(d)
		cfg.MaxMSPs = topK
		return cfg
	}
	// The session driver truncates to LIMIT in confirm order; apply the
	// same cut to the raw engine results so the borders are comparable.
	trunc := func(res *oassis.Result) *oassis.Result {
		if len(res.MSPs) > topK {
			res.MSPs = res.MSPs[:topK]
		}
		if len(res.ValidMSPs) > topK {
			res.ValidMSPs = res.ValidMSPs[:topK]
		}
		return res
	}

	type leg struct {
		name string
		run  func(t *testing.T) *oassis.Result
	}
	legs := []leg{
		{"run", func(t *testing.T) *oassis.Result {
			return trunc(core.NewEngine(d.Space, diffCrowd(d), topCfg()).Run())
		}},
		{"runparallel4", func(t *testing.T) *oassis.Result {
			return trunc(core.NewEngine(d.Space, diffCrowd(d), topCfg()).RunParallel(4))
		}},
		{"http", func(t *testing.T) *oassis.Result {
			return runServerTopKLeg(t, d, topK)
		}},
	}

	refKeys, refTrans, refDiscarded, refQuestions := "", map[string][]string(nil), 0, 0
	for i, l := range legs {
		res := l.run(t)
		if res == nil {
			t.Fatalf("%s: no result", l.name)
		}
		if len(res.MSPs) != topK {
			t.Fatalf("%s: top-%d run returned %d MSPs", l.name, topK, len(res.MSPs))
		}
		keys, trans := diffFingerprint(res)
		if i == 0 {
			refKeys, refTrans = keys, trans
			refDiscarded, refQuestions = res.Stats.Discarded, res.Stats.Questions
			// The scenario must actually exercise the mid-flight stop:
			// replies discarded because the run was already over.
			if refDiscarded == 0 {
				t.Fatal("top-k stop discarded no in-flight replies — scenario is degenerate")
			}
			continue
		}
		if keys != refKeys {
			t.Errorf("%s: confirmed MSP border diverged from %s:\n%s\nvs\n%s",
				l.name, legs[0].name, keys, refKeys)
		}
		if !reflect.DeepEqual(trans, refTrans) {
			t.Errorf("%s: transcripts diverged from %s", l.name, legs[0].name)
		}
		if res.Stats.Discarded != refDiscarded {
			t.Errorf("%s: Discarded = %d, want %d", l.name, res.Stats.Discarded, refDiscarded)
		}
		if res.Stats.Questions != refQuestions {
			t.Errorf("%s: Questions = %d, want %d", l.name, res.Stats.Questions, refQuestions)
		}
	}
}

// runServerTopKLeg drives the top-k scenario through the HTTP platform: the
// DAG's query with a LIMIT clause on a serial session, and the same
// scripted oracle clients as the full-run differential test.
func runServerTopKLeg(t *testing.T, d *synth.DAG, topK int) *oassis.Result {
	t.Helper()
	theta := d.Query.Satisfying.Support
	q, err := oassis.ParseQuery(strings.Replace(d.Query.String(),
		"SELECT FACT-SETS", fmt.Sprintf("SELECT FACT-SETS LIMIT %d", topK), 1), d.Vocab)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(server.Config{MinMembers: diffMembers, AnswerTimeout: 30 * time.Second})
	sess, err := oassis.NewSession(d.Store, q,
		oassis.WithSeed(diffSeed),
		oassis.WithAggregator(oassis.NewMeanAggregator(diffQuorum, theta)),
		oassis.WithSpecializationRatio(diffSpecRatio),
		oassis.WithTranscript(),
	)
	if err != nil {
		t.Fatal(err)
	}
	srv.Attach(sess)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	oracle := d.Oracle(0, 1)
	var wg sync.WaitGroup
	for i := 0; i < diffMembers; i++ {
		id := fmt.Sprintf("m%d", i)
		if resp := httpDo(t, ts.URL, "POST", "/join?member="+id, nil); resp != http.StatusOK {
			t.Fatalf("join %s: %d", id, resp)
		}
		wg.Add(1)
		go diffClient(t, &wg, ts.URL, id, d, oracle)
	}
	if resp := httpDo(t, ts.URL, "POST", "/start", nil); resp != http.StatusOK {
		t.Fatalf("start: %d", resp)
	}
	deadline := time.Now().Add(60 * time.Second)
	for srv.Result() == nil {
		if time.Now().After(deadline) {
			t.Fatal("server top-k run did not complete in time")
		}
		time.Sleep(2 * time.Millisecond)
	}
	wg.Wait()
	return srv.Result()
}
