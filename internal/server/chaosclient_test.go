package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"time"

	"oassis/internal/chaos"
)

// wireQuestion is the platform's question payload as seen by an HTTP client.
type wireQuestion struct {
	ID      int64    `json:"id"`
	Kind    string   `json:"kind"`
	Text    string   `json:"text"`
	Options []string `json:"options,omitempty"`
}

// answerer produces the honest answer for a question: the support value
// and, for specialization questions, the chosen option index (-1 for
// "none of these").
type answerer func(q wireQuestion) (support float64, choice int)

// chaosClientConfig parameterizes a chaos HTTP crowd client.
type chaosClientConfig struct {
	// Base is the platform's base URL, Member the client's member id.
	Base   string
	Member string
	// Answer produces honest answers; nil answers 0 / none-of-these.
	Answer answerer
	// Faults configures the injected misbehaviours. Latency is slept on
	// Clock between receiving a question and answering it; DepartAfter /
	// DepartProb make the client silently stop polling (the server only
	// notices through its answer deadline); ContradictProb substitutes a
	// random support.
	Faults chaos.Faults
	// DuplicateProb is the probability of posting an accepted answer a
	// second time (the duplicate-submission fault; the platform must
	// reject or ignore it).
	DuplicateProb float64
	// StaleProb is the probability of first re-answering the previous,
	// already-completed question (out-of-order submission; the platform
	// must reject it without corrupting the current question).
	StaleProb float64
	// Poll is the question-poll interval (default 2ms).
	Poll time.Duration
	// Clock times polling and latency (default the wall clock).
	Clock chaos.Clock
	// HTTPClient overrides http.DefaultClient.
	HTTPClient *http.Client
}

// chaosClient is a scripted crowd member driving the platform's HTTP API with
// protocol-level faults. It plays the role a misbehaving human plays
// against the real UI: slow answers, silent departure, double submits and
// answers to questions that are no longer pending.
type chaosClient struct {
	cfg chaosClientConfig
	rng *rand.Rand

	// Stats observed by the client, readable after Run returns.
	Answered   int
	Duplicates int
	Stale      int
	Departed   bool
}

// newChaosClient builds a chaos HTTP client.
func newChaosClient(cfg chaosClientConfig) *chaosClient {
	if cfg.Poll <= 0 {
		cfg.Poll = 2 * time.Millisecond
	}
	if cfg.Clock == nil {
		cfg.Clock = chaos.Real()
	}
	if cfg.HTTPClient == nil {
		cfg.HTTPClient = http.DefaultClient
	}
	return &chaosClient{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Faults.Seed))}
}

// Join registers the member with the platform.
func (c *chaosClient) Join() error {
	resp, err := c.cfg.HTTPClient.Post(c.cfg.Base+"/join?member="+c.cfg.Member, "", nil)
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("chaos: join %s: status %d", c.cfg.Member, resp.StatusCode)
	}
	return nil
}

// Run polls for questions and answers them (with faults) until the run
// completes (410), the client departs, or the deadline passes.
func (c *chaosClient) Run(deadline time.Duration) error {
	start := c.cfg.Clock.Now()
	var prev *wireQuestion
	for c.cfg.Clock.Now().Sub(start) < deadline {
		q, status, err := c.fetchQuestion()
		if err != nil {
			return err
		}
		switch status {
		case http.StatusGone:
			return nil
		case http.StatusNotFound:
			c.cfg.Clock.Sleep(c.cfg.Poll)
			continue
		case http.StatusOK:
		default:
			return fmt.Errorf("chaos: %s: unexpected question status %d", c.cfg.Member, status)
		}
		if c.departRoll() {
			c.Departed = true
			return nil // silent departure: just stop polling
		}
		if d := c.latencyRoll(); d > 0 {
			c.cfg.Clock.Sleep(d)
		}
		if prev != nil && c.cfg.StaleProb > 0 && c.rng.Float64() < c.cfg.StaleProb {
			// Out-of-order: re-answer the previous question first.
			c.postAnswer(*prev, 0, -1)
			c.Stale++
		}
		support, choice := c.answerFor(*q)
		if status, err := c.postAnswer(*q, support, choice); err != nil {
			return err
		} else if status == http.StatusOK {
			c.Answered++
		}
		if c.cfg.DuplicateProb > 0 && c.rng.Float64() < c.cfg.DuplicateProb {
			c.postAnswer(*q, support, choice)
			c.Duplicates++
		}
		prev = q
	}
	return fmt.Errorf("chaos: %s: deadline exceeded", c.cfg.Member)
}

func (c *chaosClient) departRoll() bool {
	f := c.cfg.Faults
	if f.DepartAfter > 0 && c.Answered >= f.DepartAfter {
		return true
	}
	return f.DepartProb > 0 && c.rng.Float64() < f.DepartProb
}

func (c *chaosClient) latencyRoll() time.Duration {
	f := c.cfg.Faults
	if f.LatencyMax > f.LatencyMin {
		return f.LatencyMin + time.Duration(c.rng.Int63n(int64(f.LatencyMax-f.LatencyMin)))
	}
	return f.LatencyMin
}

func (c *chaosClient) answerFor(q wireQuestion) (float64, int) {
	if c.cfg.Faults.ContradictProb > 0 && c.rng.Float64() < c.cfg.Faults.ContradictProb {
		choice := -1
		if q.Kind == "specialization" && len(q.Options) > 0 {
			choice = c.rng.Intn(len(q.Options))
		}
		return float64(c.rng.Intn(5)) * 0.25, choice
	}
	if c.cfg.Answer == nil {
		return 0, -1
	}
	return c.cfg.Answer(q)
}

func (c *chaosClient) fetchQuestion() (*wireQuestion, int, error) {
	resp, err := c.cfg.HTTPClient.Get(c.cfg.Base + "/question?member=" + c.cfg.Member)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, resp.StatusCode, nil
	}
	var q wireQuestion
	if err := json.NewDecoder(resp.Body).Decode(&q); err != nil {
		return nil, resp.StatusCode, fmt.Errorf("chaos: bad question: %w", err)
	}
	return &q, resp.StatusCode, nil
}

func (c *chaosClient) postAnswer(q wireQuestion, support float64, choice int) (int, error) {
	body, err := json.Marshal(map[string]any{
		"member": c.cfg.Member, "question": q.ID,
		"support": support, "choice": choice,
	})
	if err != nil {
		return 0, err
	}
	resp, err := c.cfg.HTTPClient.Post(c.cfg.Base+"/answer", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	resp.Body.Close()
	return resp.StatusCode, nil
}
