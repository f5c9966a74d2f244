package obs

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilSafety(t *testing.T) {
	// Every nil receiver must be a no-op, not a panic — this is the
	// "disabled = a nil check" contract the whole engine relies on.
	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter value")
	}
	var g *Gauge
	g.Set(3)
	g.Add(-1)
	if g.Value() != 0 {
		t.Fatal("nil gauge value")
	}
	var h *Histogram
	h.Observe(1.5)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil histogram")
	}
	var km *KernelMetrics
	km.fold(&Event{Kind: EvRoundEnd, Asks: 3, Border: 2, Elapsed: int64(time.Millisecond)})
	var plm *PlatformMetrics
	plm.fold(&Event{Kind: EvStoreHit})
	var bm *BrokerMetrics
	bm.Reply(2, time.Second)
	var pm *PlanMetrics
	pm.CompileDone(time.Millisecond)
	pm.EvalDone(10, time.Millisecond)
	var sm *ServerMetrics
	sm.Request("/answer", "200", time.Millisecond)
	var o *Observer
	if o.BrokerSet() != nil || o.PlanSet() != nil ||
		o.ServerSet() != nil || o.JournalSet() != nil || o.Reg() != nil {
		t.Fatal("nil observer accessors must return nil")
	}
}

func TestCounterGaugeHistogram(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	var g Gauge
	g.Set(7)
	g.Add(-2)
	if g.Value() != 5 {
		t.Fatalf("gauge = %d, want 5", g.Value())
	}
	h := NewHistogram([]float64{1, 10, 100})
	for _, v := range []float64{0.5, 5, 50, 500} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Sum() != 555.5 {
		t.Fatalf("sum = %v", h.Sum())
	}
	for i, want := range []int64{1, 1, 1, 1} {
		if got := h.counts[i].Load(); got != want {
			t.Fatalf("bucket %d = %d, want %d", i, got, want)
		}
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "help")
	b := r.Counter("x_total", "other help")
	if a != b {
		t.Fatal("re-registering a counter must return the same instance")
	}
	h1 := r.Histogram("h", "help", DefaultLatencyBuckets)
	h2 := r.Histogram("h", "help", nil)
	if h1 != h2 {
		t.Fatal("re-registering a histogram must return the same instance")
	}
	// GaugeFunc rebinding must replace the function, not panic.
	r.GaugeFunc("gf", "help", func() float64 { return 1 })
	r.GaugeFunc("gf", "help", func() float64 { return 2 })
	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	if !strings.Contains(buf.String(), "gf 2\n") {
		t.Fatalf("gauge func not rebound:\n%s", buf.String())
	}
	// Type clash panics with a clear message.
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on metric type clash")
		}
	}()
	r.Gauge("x_total", "clash")
}

func TestPrometheusText(t *testing.T) {
	r := NewRegistry()
	r.Counter("oassis_test_total", "A test counter.").Add(42)
	r.Gauge("oassis_test_gauge", "A test gauge.").Set(-3)
	h := r.Histogram("oassis_test_seconds", "A test histogram.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)
	cv := r.CounterVec("oassis_test_requests_total", "Labeled.", "path", "code")
	cv.With("/answer", "200").Add(3)
	cv.With("/answer", "409").Inc()
	cv.With(`we"ird`, "200").Inc()
	hv := r.HistogramVec("oassis_test_req_seconds", "Labeled hist.", []float64{1}, "path")
	hv.With("/metrics").Observe(0.5)

	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	out := buf.String()

	for _, want := range []string{
		"# HELP oassis_test_total A test counter.",
		"# TYPE oassis_test_total counter",
		"oassis_test_total 42",
		"# TYPE oassis_test_gauge gauge",
		"oassis_test_gauge -3",
		"# TYPE oassis_test_seconds histogram",
		`oassis_test_seconds_bucket{le="0.1"} 1`,
		`oassis_test_seconds_bucket{le="1"} 2`,
		`oassis_test_seconds_bucket{le="+Inf"} 3`,
		"oassis_test_seconds_sum 5.55",
		"oassis_test_seconds_count 3",
		`oassis_test_requests_total{path="/answer",code="200"} 3`,
		`oassis_test_requests_total{path="/answer",code="409"} 1`,
		`oassis_test_requests_total{path="we\"ird",code="200"} 1`,
		`oassis_test_req_seconds_bucket{path="/metrics",le="1"} 1`,
		`oassis_test_req_seconds_bucket{path="/metrics",le="+Inf"} 1`,
		`oassis_test_req_seconds_count{path="/metrics"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in exposition:\n%s", want, out)
		}
	}
}

func TestConcurrentUse(t *testing.T) {
	// Counters, histograms, vecs and the journal must all be safe under
	// concurrent writers with concurrent scrapes (-race covers this).
	o := New()
	var writers sync.WaitGroup
	stop := make(chan struct{})
	scraperDone := make(chan struct{})
	go func() {
		defer close(scraperDone)
		for {
			select {
			case <-stop:
				return
			default:
				var buf bytes.Buffer
				o.Registry.WritePrometheus(&buf)
				o.JournalSet().Summary()
			}
		}
	}()
	for i := 0; i < 4; i++ {
		writers.Add(1)
		go func(i int) {
			defer writers.Done()
			for j := 0; j < 500; j++ {
				o.JournalSet().RoundEnd(0, j, j%7, j%7, j%3, 0, time.Duration(j)*time.Microsecond, 0, 0, 0)
				o.Broker.Reply(j%3, time.Duration(j)*time.Microsecond)
				o.Server.Request("/answer", "200", time.Microsecond)
				o.JournalSet().Span(0, "round", time.Microsecond, Attr{Key: "i", Val: int64(i)})
			}
		}(i)
	}
	writers.Wait()
	close(stop)
	<-scraperDone
	if got := o.Kernel.Rounds.Value(); got != 2000 {
		t.Fatalf("rounds = %d, want 2000", got)
	}
	if got := o.Broker.RoundTrip.Count(); got != 2000 {
		t.Fatalf("round trips = %d, want 2000", got)
	}
}

func TestHistogramSumCAS(t *testing.T) {
	h := NewHistogram(DefaultLatencyBuckets)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				h.Observe(0.001)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Fatalf("count = %d", h.Count())
	}
	if got := h.Sum(); got < 7.99 || got > 8.01 {
		t.Fatalf("sum = %v, want ~8", got)
	}
}

// BenchmarkWritePrometheus measures a full scrape of a fully populated
// observer — the cost a live /metrics poll puts on a running session.
func BenchmarkWritePrometheus(b *testing.B) {
	o := New()
	for i := 0; i < 1000; i++ {
		o.Kernel.Questions.Inc()
		o.Kernel.RoundDur.Observe(float64(i) / 1000)
		o.Broker.RoundTrip.Observe(float64(i) / 500)
		o.Server.Request("/answer", "200", time.Millisecond)
	}
	var buf bytes.Buffer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		o.Registry.WritePrometheus(&buf)
	}
	b.ReportMetric(float64(buf.Len()), "scrape_bytes")
}

// BenchmarkDisabledCounter pins the disabled fast path: a nil counter Inc
// must stay a nil check, nothing more.
func BenchmarkDisabledCounter(b *testing.B) {
	var c *Counter
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}
