package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"oassis"
	"oassis/internal/oassisql"
	"oassis/internal/ontology"
	"oassis/internal/server"
)

const (
	serveWidth   = 300
	serveMembers = 32
	serveDAGs    = 8
	// Every serveWeakEvery-th planted MSP is weak: significant at the base
	// threshold, not at the raised one, so the re-evaluation run's answer
	// set differs from the first run's.
	serveWeakEvery = 3
	raisedTheta    = "0.8"
)

// runServe runs internal/server on loopback over a shared answer platform.
// Each cycle builds both query sessions, starts a server and joins the
// crowd (set-up), then mines the DAG query over HTTP and re-mines the same
// WHERE at a raised support threshold (Section 6.3): the platform takes
// writes in the first run and serves reads in the second. The simulated
// crowd is multiplexed over at most NumCPU keep-alive connections in a
// closed loop, each member answering from the rendered question text.
func runServe(cfg config, tr *tracer) (*report, error) {
	nMembers := serveMembers
	if cfg.smoke {
		nMembers = 4
	}
	conns := runtime.NumCPU()
	dags, params, err := newDAGInputs(cfg, serveWidth, serveDAGs, serveWeakEvery)
	if err != nil {
		return nil, err
	}
	params["members"], params["connections"], params["weak_every"] = nMembers, conns, serveWeakEvery
	params["theta"], params["raised_theta"] = "0.5", raisedTheta
	rep := newReport(params)
	raisedText := strings.Replace(dagQueryText, "SUPPORT = 0.5", "SUPPORT = "+raisedTheta, 1)

	// Each raised run's reference answer: an in-process Session.Run of the
	// same query over the same crowd, without the platform.
	raisedWant := make([]map[string]bool, len(dags))
	for j, in := range dags {
		q, err := oassisql.Parse(raisedText, in.d.Vocab)
		if err != nil {
			return nil, err
		}
		sess, err := oassis.NewSession(in.d.Store, q, oassis.WithSeed(cfg.seed))
		if err != nil {
			return nil, err
		}
		res, err := sess.Run(newMembers(nMembers, in.o, &probe{}))
		if err != nil {
			return nil, err
		}
		raisedWant[j] = map[string]bool{}
		for _, a := range res.MSPs {
			raisedWant[j][a.Key()] = true
		}
	}

	transport := &http.Transport{MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns}
	defer transport.CloseIdleConnections()
	cl := &crowdClient{http: &http.Client{Transport: transport}, conns: conns}
	for i := 0; i < nMembers; i++ {
		cl.members = append(cl.members, fmt.Sprintf("m%03d", i))
	}

	var cycles, answered, hits, lookups, entries float64
	var mining time.Duration
	deadline := time.Now().Add(cfg.window)
	for c := 0; time.Now().Before(deadline); c++ {
		j := tr.input(c, len(dags))
		in := dags[j]
		cl.o = in.o
		traced := tr.traceUnit(c)
		rep.attempted++
		setupStart := time.Now()
		plat := oassis.NewPlatform(oassis.PlatformConfig{})
		var sessions [2]*oassis.Session
		for i, text := range []string{dagQueryText, raisedText} {
			q, err := oassisql.Parse(text, in.d.Vocab)
			if err != nil {
				return nil, err
			}
			if sessions[i], err = oassis.NewSession(in.d.Store, q, oassis.WithSeed(cfg.seed), oassis.WithPlatform(plat)); err != nil {
				return nil, err
			}
		}
		srv := server.New(server.Config{MinMembers: nMembers, AnswerTimeout: time.Minute})
		srv.Attach(sessions[0])
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		hs := &http.Server{Handler: srv.Handler()}
		served := make(chan error, 1)
		go func() { served <- hs.Serve(ln) }()
		cl.base = "http://" + ln.Addr().String()
		err = cl.joinAll()
		rep.setups = append(rep.setups, time.Since(setupStart))

		var cycleRuns time.Duration
		if err == nil {
			cl.reset()
			var wall time.Duration
			wall, err = cl.mine(tr.startOp(traced))
			cycleRuns += wall
			if err == nil {
				err = checkMSPs("first run", srv.Result(), in.want)
			}
		}
		if err == nil {
			before := plat.Stats()
			srv.Attach(sessions[1])
			var wall time.Duration
			wall, err = cl.mine(tr.startOp(traced))
			cycleRuns += wall
			after := plat.Stats()
			hits += float64(after.Hits - before.Hits)
			lookups += float64(after.Hits + after.Misses + after.Joins - before.Hits - before.Misses - before.Joins)
			entries += float64(after.Entries)
			if err == nil {
				err = checkMSPs("raised run", srv.Result(), raisedWant[j])
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		shutErr := hs.Shutdown(ctx)
		cancel()
		transport.CloseIdleConnections()
		if serveErr := <-served; serveErr != http.ErrServerClosed && shutErr == nil {
			shutErr = serveErr
		}
		if err == nil {
			err = shutErr
		}
		if err != nil {
			rep.fail(cfg, "serve cycle %d: %v", c, err)
			continue
		}
		rep.unit(traced, cycleRuns)
		rep.rates(2, float64(cl.answered), cycleRuns)
		mining += cycleRuns
		cycles++
		answered += float64(cl.answered)
		rep.opLat = append(rep.opLat, append([]time.Duration(nil), cl.latencies...))
	}

	rep.layer["core.crowd_questions"] = ratio(answered, cycles)
	rep.layer["server.poll_hit_ratio"] = ratio(float64(cl.pollHits), float64(cl.polls))
	rep.layer["platform.hit_ratio"] = ratio(hits, lookups)
	rep.layer["platform.lookups"] = ratio(lookups, cycles)
	rep.layer["platform.entries"] = ratio(entries, cycles)
	rep.layer["crowd.answer_share"] = ratio(float64(cl.answering), float64(mining)*float64(conns))
	logf(cfg, "serve: %v cycles, %v HTTP questions per cycle, %d polls (%d hits), platform hit ratio %.3f",
		cycles, ratio(answered, cycles), cl.polls, cl.pollHits, ratio(hits, lookups))
	return rep, nil
}

// checkMSPs compares a finished server run's MSPs with the expected set.
func checkMSPs(run string, res *oassis.Result, want map[string]bool) error {
	if res == nil {
		return fmt.Errorf("%s: no result", run)
	}
	if !sameKeys(res.MSPs, want) {
		return fmt.Errorf("%s found %d MSPs, want %d", run, len(res.MSPs), len(want))
	}
	return nil
}

// crowdClient is the simulated crowd: members multiplexed over a fixed set
// of closed-loop pollers, one keep-alive connection each.
type crowdClient struct {
	http    *http.Client
	o       *oracle
	conns   int
	base    string
	members []string

	mu        sync.Mutex
	answered  int64
	polls     int64
	pollHits  int64
	answering time.Duration
	latencies []time.Duration // GET /question hits and POST /answer calls
}

// reset clears the per-cycle request latencies and answer count.
func (c *crowdClient) reset() {
	c.mu.Lock()
	c.answered, c.latencies = 0, c.latencies[:0]
	c.mu.Unlock()
}

func (c *crowdClient) joinAll() error {
	for _, m := range c.members {
		if code, _, err := c.do("POST", "/join?member="+m, nil); err != nil || code != http.StatusOK {
			return fmt.Errorf("join %s: status %d, %v", m, code, err)
		}
	}
	return nil
}

// mine starts the attached query and serves its questions until every
// member sees the run end (410). It returns the run's wall time.
func (c *crowdClient) mine(ot *opTrace) (time.Duration, error) {
	root := ot.begin(-1, "op")
	defer ot.end(root)
	start := time.Now()
	s := ot.begin(root, "server.start")
	code, _, err := c.do("POST", "/start", nil)
	ot.end(s)
	if err != nil || code != http.StatusOK {
		return 0, fmt.Errorf("start: status %d, %v", code, err)
	}
	errs := make(chan error, c.conns)
	var wg sync.WaitGroup
	for g := 0; g < c.conns; g++ {
		var mine []string
		for i := g; i < len(c.members); i += c.conns {
			mine = append(mine, c.members[i])
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := c.poll(ot, root, mine); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	return time.Since(start), <-errs
}

// wireQuestion is GET /question's payload.
type wireQuestion struct {
	ID      int64    `json:"id"`
	Kind    string   `json:"kind"`
	Text    string   `json:"text"`
	Options []string `json:"options"`
}

// poll is one connection's closed loop over its members.
func (c *crowdClient) poll(ot *opTrace, root int32, members []string) error {
	active := append([]string(nil), members...)
	var polls, hits, answered int64
	var answering time.Duration
	var lats []time.Duration
	defer func() {
		c.mu.Lock()
		c.polls += polls
		c.pollHits += hits
		c.answered += answered
		c.answering += answering
		c.latencies = append(c.latencies, lats...)
		c.mu.Unlock()
	}()
	for len(active) > 0 {
		for i := 0; i < len(active); i++ {
			m := active[i]
			s := ot.begin(root, "server.poll")
			t0 := time.Now()
			code, body, err := c.do("GET", "/question?member="+m, nil)
			lat := time.Since(t0)
			polls++
			if err != nil {
				ot.end(s)
				return err
			}
			switch code {
			case http.StatusNotFound:
				ot.end(s)
				continue
			case http.StatusGone:
				ot.end(s)
				active = append(active[:i], active[i+1:]...)
				i--
				continue
			case http.StatusOK:
			default:
				ot.end(s)
				return fmt.Errorf("GET /question: status %d", code)
			}
			hits++
			lats = append(lats, lat)
			ot.endAs(s, "server.question")

			s = ot.begin(root, "crowd.answer")
			t1 := time.Now()
			payload, err := c.answer(m, body)
			answering += time.Since(t1)
			ot.end(s)
			if err != nil {
				return err
			}
			s = ot.begin(root, "server.answer")
			t2 := time.Now()
			code, _, err = c.do("POST", "/answer", payload)
			lats = append(lats, time.Since(t2))
			ot.end(s)
			if err != nil || code != http.StatusOK {
				return fmt.Errorf("POST /answer: status %d, %v", code, err)
			}
			answered++
		}
	}
	return nil
}

// answer reads a served question the way a member would and builds the
// POST /answer body.
func (c *crowdClient) answer(member string, body []byte) ([]byte, error) {
	var q wireQuestion
	if err := json.Unmarshal(body, &q); err != nil {
		return nil, err
	}
	support, choice := 0.0, -1
	switch q.Kind {
	case "concrete":
		fs, err := c.o.parseQuestion(q.Text)
		if err != nil {
			return nil, err
		}
		support = c.o.support(fs)
	case "specialization":
		opts := make([]ontology.FactSet, len(q.Options))
		for i, text := range q.Options {
			fs, err := c.o.parseQuestion(text)
			if err != nil {
				return nil, err
			}
			opts[i] = fs
		}
		choice, support = c.o.choose(opts)
	default:
		return nil, fmt.Errorf("unknown question kind %q", q.Kind)
	}
	return json.Marshal(map[string]any{
		"member": member, "question": q.ID, "support": support, "choice": choice,
	})
}

// do sends one request and reads the whole response so the connection
// goes back to the keep-alive pool.
func (c *crowdClient) do(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}
