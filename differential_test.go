package oassis_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"oassis"
	"oassis/internal/core"
	"oassis/internal/crowd"
	"oassis/internal/server"
	"oassis/internal/synth"
)

// The differential test pins the invariant of the engine: sequential Run,
// a concurrent broker (two jitter seeds) and the HTTP server are brokers
// over one round loop and one mining kernel, so on the same seeded
// synthetic DAG with the same deterministic crowd they must produce
// identical MSP sets AND identical per-member question transcripts — not
// just statistically similar results.

// namedOracle gives each clone of the shared ground-truth oracle a
// distinct member ID.
type namedOracle struct {
	crowd.Member
	id string
}

func (n namedOracle) ID() string { return n.id }

// concurrentBroker stands in for a crowd reached over the network: every
// ask is answered on its own goroutine through the engine's MemberBroker,
// after a number of scheduler yields drawn from jitter and the ask ID, so
// each round's members are served concurrently and their replies reach
// the engine in a scrambled order.
type concurrentBroker struct {
	inner  crowd.Broker
	jitter int64
}

func (b concurrentBroker) Post(ask *crowd.Ask, deliver func(crowd.Reply)) {
	h := (uint64(b.jitter) ^ uint64(ask.ID)*0x9E3779B97F4A7C15) * 0xBF58476D1CE4E5B9
	yields := int(h >> 60)
	go func() {
		for i := 0; i < yields; i++ {
			runtime.Gosched()
		}
		b.inner.Post(ask, deliver)
	}()
}

// runConcurrent drives e through a concurrentBroker over its members.
func runConcurrent(e *core.Engine, jitter int64) *oassis.Result {
	return e.RunWith(concurrentBroker{inner: e.MemberBroker(), jitter: jitter})
}

// runSessionConcurrent mines members through sess.RunBroker over a
// concurrentBroker whose member broker times answers on now.
func runSessionConcurrent(sess *oassis.Session, members []oassis.Member, now func() time.Time, jitter int64) (*oassis.Result, error) {
	ids := make([]string, len(members))
	for i, m := range members {
		ids[i] = m.ID()
	}
	return sess.RunBroker(ids, concurrentBroker{inner: crowd.NewMemberBroker(members, now), jitter: jitter})
}

const (
	diffSeed      = 7
	diffMembers   = 4
	diffQuorum    = 3
	diffSpecRatio = 0.15
)

func diffDAG(t *testing.T) *synth.DAG {
	t.Helper()
	d, err := synth.NewDAG(synth.DAGConfig{
		Width:      24,
		Depth:      3,
		MSPPercent: 0.08,
		Places:     2,
		Seed:       5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func diffCrowd(d *synth.DAG) []crowd.Member {
	members := make([]crowd.Member, diffMembers)
	for i := range members {
		// PruneRatio 0 makes the oracle a pure function of the question,
		// so every driver sees the same answers regardless of scheduling.
		members[i] = namedOracle{Member: d.Oracle(0, int64(i+1)), id: fmt.Sprintf("m%d", i)}
	}
	return members
}

func diffEngineConfig(d *synth.DAG) core.EngineConfig {
	theta := d.Query.Satisfying.Support
	return core.EngineConfig{
		Theta:               theta,
		Aggregator:          crowd.NewMeanAggregator(diffQuorum, theta),
		SpecializationRatio: diffSpecRatio,
		Seed:                diffSeed,
		RecordTranscript:    true,
	}
}

// diffFingerprint reduces a result to the comparable pair: the sorted MSP
// key set and the per-member transcripts.
func diffFingerprint(res *oassis.Result) (string, map[string][]string) {
	keys := make([]string, len(res.MSPs))
	for i, m := range res.MSPs {
		keys[i] = m.Key()
	}
	sort.Strings(keys)
	return strings.Join(keys, "\n"), res.Transcripts
}

func TestDifferentialDriversAgree(t *testing.T) {
	d := diffDAG(t)

	type leg struct {
		name string
		run  func(t *testing.T) *oassis.Result
	}
	legs := []leg{
		{"sequential", func(t *testing.T) *oassis.Result {
			return core.NewEngine(d.Space, diffCrowd(d), diffEngineConfig(d)).Run()
		}},
		{"concurrent-1", func(t *testing.T) *oassis.Result {
			return runConcurrent(core.NewEngine(d.Space, diffCrowd(d), diffEngineConfig(d)), 1)
		}},
		{"concurrent-2", func(t *testing.T) *oassis.Result {
			return runConcurrent(core.NewEngine(d.Space, diffCrowd(d), diffEngineConfig(d)), 2)
		}},
		{"http-server", func(t *testing.T) *oassis.Result {
			return runServerLeg(t, d)
		}},
	}

	refKeys, refTrans := "", map[string][]string(nil)
	for i, l := range legs {
		res := l.run(t)
		if res == nil {
			t.Fatalf("%s: no result", l.name)
		}
		keys, trans := diffFingerprint(res)
		if keys == "" {
			t.Fatalf("%s: found no MSPs — the DAG config is degenerate", l.name)
		}
		if len(trans) != diffMembers {
			t.Fatalf("%s: transcripts for %d members, want %d", l.name, len(trans), diffMembers)
		}
		if i == 0 {
			refKeys, refTrans = keys, trans
			continue
		}
		if keys != refKeys {
			t.Errorf("%s: MSP set diverged from %s:\n%s\nvs\n%s",
				l.name, legs[0].name, keys, refKeys)
		}
		if !reflect.DeepEqual(trans, refTrans) {
			t.Errorf("%s: per-member transcripts diverged from %s:\n%v\nvs\n%v",
				l.name, legs[0].name, trans, refTrans)
		}
	}
}

// runServerLeg drives the same mining run through the HTTP platform:
// scripted clients poll /question, parse the rendered text back into
// fact-sets and answer exactly as the ground-truth oracle would.
func runServerLeg(t *testing.T, d *synth.DAG) *oassis.Result {
	t.Helper()
	theta := d.Query.Satisfying.Support
	srv := server.New(server.Config{MinMembers: diffMembers, AnswerTimeout: 30 * time.Second})
	sess, err := oassis.NewSession(d.Store, d.Query,
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

	oracle := d.Oracle(0, 1) // pure at PruneRatio 0, shared by all clients
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
			t.Fatal("server run did not complete in time")
		}
		time.Sleep(2 * time.Millisecond)
	}
	wg.Wait()
	return srv.Result()
}

func httpDo(t *testing.T, base, method, path string, body any) int {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, base+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// diffClient polls for questions and answers them with the oracle's truth
// until the run completes (410) — a scripted stand-in for a diligent
// human reading the web UI.
func diffClient(t *testing.T, wg *sync.WaitGroup, base, id string, d *synth.DAG, o *synth.Oracle) {
	defer wg.Done()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		req, _ := http.NewRequest("GET", base+"/question?member="+id, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Errorf("%s: %v", id, err)
			return
		}
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusGone:
			return
		case http.StatusNotFound:
			time.Sleep(time.Millisecond)
			continue
		case http.StatusOK:
		default:
			t.Errorf("%s: unexpected status %d: %s", id, resp.StatusCode, buf.String())
			return
		}
		var q struct {
			ID      int64    `json:"id"`
			Kind    string   `json:"kind"`
			Text    string   `json:"text"`
			Options []string `json:"options"`
		}
		if err := json.Unmarshal(buf.Bytes(), &q); err != nil {
			t.Errorf("%s: bad question: %v", id, err)
			return
		}
		ans := map[string]any{"member": id, "question": q.ID, "choice": -1, "support": 0.0}
		if q.Kind == "specialization" {
			// Answer as the oracle does: the first significant option.
			for i, opt := range q.Options {
				if s := oracleSupport(t, d, o, opt); s > 0 {
					ans["choice"] = i
					ans["support"] = s
					break
				}
			}
		} else {
			ans["support"] = oracleSupport(t, d, o, q.Text)
		}
		body, _ := json.Marshal(ans)
		post, _ := http.NewRequest("POST", base+"/answer", bytes.NewReader(body))
		if resp, err := http.DefaultClient.Do(post); err == nil {
			resp.Body.Close()
		}
	}
}

// oracleSupport parses a rendered question ("How often do you engage in
// {item} at {place}?") back into the asked fact-set and returns the
// oracle's support for it.
func oracleSupport(t *testing.T, d *synth.DAG, o *synth.Oracle, text string) float64 {
	body := strings.TrimSuffix(strings.TrimPrefix(text, "How often do you "), "?")
	var facts []oassis.Fact
	for _, part := range strings.Split(body, " and also ") {
		part = strings.TrimPrefix(part, "engage in ")
		i := strings.LastIndex(part, " at ")
		if i < 0 {
			t.Errorf("cannot split question %q", text)
			return 0
		}
		f, err := oassis.ParseFact(
			`"`+part[:i]+`" doAt "`+part[i+len(" at "):]+`"`, d.Vocab)
		if err != nil {
			t.Errorf("cannot parse question %q: %v", text, err)
			return 0
		}
		facts = append(facts, f)
	}
	return o.AskConcrete(oassis.NewFactSet(facts...)).Support
}
