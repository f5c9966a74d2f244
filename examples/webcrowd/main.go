// Webcrowd demonstrates the crowdsourcing platform end to end: the engine
// runs behind the HTTP API of internal/server (the paper's prototype served
// a web UI the same way), and a handful of bot clients play the crowd —
// polling for questions, reading them, and answering from their personal
// histories. Replace the bots with humans and this is the deployed system.
//
//	go run ./examples/webcrowd
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"time"

	"oassis"
	"oassis/internal/server"
)

const ontologyText = `
Remedy subClassOf Thing
Symptom subClassOf Thing
"Herbal Tea" subClassOf Remedy
Honey subClassOf Remedy
Ibuprofen subClassOf Remedy
Headache subClassOf Symptom
"Sore Throat" subClassOf Symptom

@relation takenFor
`

const queryText = `
SELECT FACT-SETS
WHERE
  $r subClassOf* Remedy.
  $s subClassOf* Symptom
SATISFYING
  $r takenFor $s
WITH SUPPORT = 0.3
`

const crowdText = `
member bot-1
Ibuprofen takenFor Headache
"Herbal Tea" takenFor "Sore Throat"
Ibuprofen takenFor Headache . Honey takenFor "Sore Throat"
member bot-2
Ibuprofen takenFor Headache
"Herbal Tea" takenFor "Sore Throat" . Honey takenFor "Sore Throat"
member bot-3
Ibuprofen takenFor Headache
"Herbal Tea" takenFor "Sore Throat"
Honey takenFor Headache
`

func main() {
	v, store, err := oassis.LoadOntology(strings.NewReader(ontologyText))
	if err != nil {
		log.Fatal(err)
	}
	q, err := oassis.ParseQuery(queryText, v)
	if err != nil {
		log.Fatal(err)
	}
	srv := server.New(server.Config{MinMembers: 3, AnswerTimeout: 10 * time.Second})
	var sess *oassis.Session
	sess, err = oassis.NewSession(store, q,
		oassis.WithSeed(1),
		oassis.WithAggregator(oassis.NewMeanAggregator(3, q.Satisfying.Support)),
		oassis.WithOnMSP(func(a *oassis.Assignment) {
			fs := sess.FactSets([]*oassis.Assignment{a})[0]
			srv.RecordAnswer(sess.DescribeAnswer(fs))
		}),
	)
	if err != nil {
		log.Fatal(err)
	}
	srv.Attach(sess)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	fmt.Println("platform listening at", ts.URL)

	sims, err := oassis.LoadCrowdSim(strings.NewReader(crowdText), v, 1)
	if err != nil {
		log.Fatal(err)
	}
	// Join and start.
	for _, m := range sims {
		mustPost(ts.URL + "/join?member=" + m.ID())
	}
	mustPost(ts.URL + "/start")

	// Bots answer until the run finishes.
	var wg sync.WaitGroup
	for _, m := range sims {
		wg.Add(1)
		go func(m *oassis.SimMember) {
			defer wg.Done()
			runBot(ts.URL, m, v)
		}(m)
	}
	// Poll results.
	for {
		var out struct {
			Done    bool     `json:"done"`
			Answers []string `json:"answers"`
		}
		getJSON(ts.URL+"/results", &out)
		if out.Done {
			fmt.Printf("\nrun complete — %d answers:\n", len(out.Answers))
			for _, a := range out.Answers {
				fmt.Println("  •", a)
			}
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	wg.Wait()
}

// runBot polls for questions and answers with the bot's true supports,
// parsing the NL question back into the asked fact-set.
func runBot(base string, m *oassis.SimMember, v *oassis.Vocabulary) {
	m.Scale = nil
	for {
		resp, err := http.Get(base + "/question?member=" + m.ID())
		if err != nil {
			return
		}
		var q struct {
			ID      int64    `json:"id"`
			Kind    string   `json:"kind"`
			Text    string   `json:"text"`
			Options []string `json:"options"`
		}
		switch resp.StatusCode {
		case http.StatusGone:
			resp.Body.Close()
			return
		case http.StatusNotFound:
			resp.Body.Close()
			time.Sleep(5 * time.Millisecond)
			continue
		}
		json.NewDecoder(resp.Body).Decode(&q)
		resp.Body.Close()

		ans := map[string]any{"member": m.ID(), "question": q.ID, "choice": -1, "support": 0.0}
		if q.Kind == "specialization" {
			best, bestS := -1, 0.0
			for i, opt := range q.Options {
				if s := supportFor(m, v, opt); s > bestS {
					best, bestS = i, s
				}
			}
			ans["choice"], ans["support"] = best, bestS
		} else {
			ans["support"] = supportFor(m, v, q.Text)
		}
		body, _ := json.Marshal(ans)
		r2, err := http.Post(base+"/answer", "application/json", bytes.NewReader(body))
		if err != nil {
			return
		}
		r2.Body.Close()
	}
}

// supportFor inverts the question template "How often do you take {r} for
// {s}?" and computes the bot's true support.
func supportFor(m *oassis.SimMember, v *oassis.Vocabulary, text string) float64 {
	body := strings.TrimSuffix(strings.TrimPrefix(text, "How often do you "), "?")
	var facts []oassis.Fact
	for _, part := range strings.Split(body, " and also ") {
		part = strings.TrimPrefix(part, "take ")
		i := strings.LastIndex(part, " for ")
		if i < 0 {
			return 0
		}
		f, err := oassis.ParseFact(
			`"`+part[:i]+`" takenFor "`+part[i+len(" for "):]+`"`, v)
		if err != nil {
			return 0
		}
		facts = append(facts, f)
	}
	return m.TrueSupport(oassis.NewFactSet(facts...))
}

func mustPost(url string) {
	resp, err := http.Post(url, "", nil)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		log.Fatalf("POST %s: %d %s", url, resp.StatusCode, buf.String())
	}
}

func getJSON(url string, out any) {
	resp, err := http.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	json.NewDecoder(resp.Body).Decode(out)
}
