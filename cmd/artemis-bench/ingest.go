package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/tinysystems/artemis-go/internal/fleetserver"
)

// The ingest workload is an open loop against a real listener: one
// keep-alive sender connection posts batches on a fixed schedule while one
// watcher connection scrapes /metrics. The server runs its own background
// loop at the shipped 10 ms step interval.
const (
	ingestDevices      = 64
	ingestShards       = 8
	ingestBatchEvents  = 100
	ingestInterval     = 5 * time.Millisecond // 200 batches/s, 20 k events/s
	ingestScrapeEvery  = 2 * time.Millisecond
	ingestWarmup       = 40 // closed-loop batches, each waiting for its verdict
	ingestVerdictLimit = 10 * time.Second
	deliveredSeries    = "artemis_fleetserver_ingest_delivered_total"
)

type ingestBench struct {
	srv      *fleetserver.Server
	hs       *http.Server
	served   chan error
	base     string
	send     *http.Client
	watch    *http.Client
	gen      *eventGen
	accepted int64 // cumulative over every phase
	rssKB    uint64
	failures []string
	// statuses counts batch responses by HTTP status; transport counts
	// batches that got no response.
	statuses  map[int]int
	transport int

	// Traced-phase observations; m1 is nil until one has run.
	m0, m1   map[string]float64
	t0, t1   time.Time
	scrapeMS []float64
	queueMax float64
}

// newClient returns a client that holds at most one connection.
func newClient() *http.Client {
	return &http.Client{
		Timeout:   ingestVerdictLimit,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
	}
}

func setupIngest(seed int64) (bench, error) {
	rss := procStatusKB("VmRSS")
	srv, err := fleetserver.New(fleetserver.Config{Shards: ingestShards, Workers: workers})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	b := &ingestBench{
		srv: srv, hs: &http.Server{Handler: srv.Handler()}, served: make(chan error, 1),
		base: "http://" + ln.Addr().String(), send: newClient(), watch: newClient(),
		rssKB: rss, statuses: map[int]int{},
	}
	go func() { b.served <- b.hs.Serve(ln) }()
	srv.Start()
	if err := b.setup(seed); err != nil {
		_, _ = b.finish()
		return nil, err
	}
	return b, nil
}

// setup registers the devices over the API and warms up in a closed loop.
func (b *ingestBench) setup(seed int64) error {
	tasks, err := injectableSpecs()
	if err != nil {
		return err
	}
	specs := make([]string, 0, len(tasks))
	for s := range tasks {
		specs = append(specs, s)
	}
	sort.Strings(specs)
	targets := make([]target, 0, ingestDevices)
	for i := 0; i < ingestDevices; i++ {
		var st fleetserver.DeviceState
		status, err := b.postJSON("/v1/devices", map[string]string{"spec": specs[i%len(specs)]}, &st)
		if err != nil {
			return fmt.Errorf("register device %d: %w", i, err)
		}
		if status != http.StatusCreated {
			return fmt.Errorf("register device %d: HTTP %d", i, status)
		}
		targets = append(targets, target{st.ID, tasks[st.Spec]})
	}
	b.gen = newEventGen(seed, targets)
	for i := 0; i < ingestWarmup; i++ {
		acc, status, err := b.postBatch(b.gen.batch(ingestBatchEvents))
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("warm-up batch %d: HTTP %d: %v", i, status, err)
		}
		b.accepted += int64(acc)
		if err := b.awaitDelivered(b.accepted); err != nil {
			return err
		}
	}
	return nil
}

// postJSON posts v on the sender connection and decodes the response into
// out.
func (b *ingestBench) postJSON(path string, v, out any) (int, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return 0, err
	}
	resp, err := b.send.Post(b.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if err := json.Unmarshal(data, out); err != nil {
		return resp.StatusCode, fmt.Errorf("decode %s response: %w", path, err)
	}
	return resp.StatusCode, nil
}

// postBatch sends one batch and returns how many of its events the server
// accepted.
func (b *ingestBench) postBatch(events []fleetserver.Event) (int, int, error) {
	var res fleetserver.IngestResult
	status, err := b.postJSON("/v1/events:batch", struct {
		Events []fleetserver.Event `json:"events"`
	}{events}, &res)
	return res.Accepted, status, err
}

// scrape reads /metrics on the watcher connection.
func (b *ingestBench) scrape() (map[string]float64, error) {
	resp, err := b.watch.Get(b.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: HTTP %d", resp.StatusCode)
	}
	return parseProm(resp.Body)
}

// awaitDelivered polls /metrics until the server has delivered n events.
func (b *ingestBench) awaitDelivered(n int64) error {
	deadline := time.Now().Add(ingestVerdictLimit)
	for {
		m, err := b.scrape()
		if err != nil {
			return err
		}
		if int64(m[deliveredSeries]) >= n {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("ingest: %d of %d events delivered after %v", int64(m[deliveredSeries]), n, ingestVerdictLimit)
		}
		time.Sleep(ingestScrapeEvery)
	}
}

// sentBatch is the sender's record of one batch.
type sentBatch struct {
	due, start, end time.Time
	// cum is the cumulative accepted-event count through this batch.
	cum int64
	ok  bool
}

// scrapeSample is one watcher scrape: when it completed and what it read.
type scrapeSample struct {
	end       time.Time
	took      time.Duration
	delivered int64
	queue     float64
}

func (b *ingestBench) timed(lim *limit, p *phase, rec *recorder) error {
	n := lim.ops
	if n == 0 {
		n = int(lim.dur / ingestInterval)
	}
	if rec != nil {
		m, err := b.scrape()
		if err != nil {
			return err
		}
		b.m0, b.t0 = m, time.Now()
	}
	// The watcher stops once it has seen every accepted event delivered
	// (target, set when the sender is done) or when the verdict limit has
	// passed since then.
	var target, sentDone atomic.Int64
	target.Store(-1)
	var scrapes []scrapeSample
	var watchErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for next := time.Now(); ; next = next.Add(ingestScrapeEvery) {
			if d := time.Until(next); d > 0 {
				time.Sleep(d)
			}
			start := time.Now()
			m, err := b.scrape()
			if err != nil {
				watchErr = err
				return
			}
			s := scrapeSample{end: time.Now(), delivered: int64(m[deliveredSeries]),
				queue: m["artemis_fleetserver_queue_depth"]}
			s.took = s.end.Sub(start)
			scrapes = append(scrapes, s)
			if t := target.Load(); t >= 0 &&
				(s.delivered >= t || time.Since(time.Unix(0, sentDone.Load())) > ingestVerdictLimit) {
				return
			}
			if now := time.Now(); now.After(next.Add(ingestScrapeEvery)) {
				next = now.Add(-ingestScrapeEvery) // a slow scrape resets the schedule
			}
		}
	}()

	sent := make([]sentBatch, 0, n)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		batch := b.gen.batch(ingestBatchEvents)
		due := t0.Add(time.Duration(i) * ingestInterval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		s := sentBatch{due: due, start: time.Now()}
		acc, status, err := b.postBatch(batch)
		s.end = time.Now()
		p.attempted += ingestBatchEvents
		if err != nil {
			b.transport++
			if len(b.failures) < 8 {
				b.failures = append(b.failures, fmt.Sprintf("ingest: batch %d: %v", i, err))
			}
		} else {
			b.statuses[status]++
		}
		b.accepted += int64(acc)
		p.failed += int64(ingestBatchEvents - acc)
		s.cum, s.ok = b.accepted, err == nil && acc == ingestBatchEvents
		sent = append(sent, s)
	}
	sentDone.Store(time.Now().UnixNano())
	target.Store(b.accepted)
	wg.Wait()
	if watchErr != nil {
		return fmt.Errorf("ingest watcher: %w", watchErr)
	}

	// A batch's verdict is the first scrape whose delivered count covers
	// every event accepted through it: one sender, whole queues drained per
	// step and the counter read under the server lock make this exact, up
	// to the scrape interval. Refused and undelivered batches miss every
	// latency limit.
	j := 0
	for _, s := range sent {
		for j < len(scrapes) && scrapes[j].delivered < s.cum {
			j++
		}
		if j == len(scrapes) || !s.ok {
			p.lat = append(p.lat, math.Inf(1))
			if j == len(scrapes) {
				p.failed += ingestBatchEvents
			}
			continue
		}
		verdict := scrapes[j].end
		p.lat = append(p.lat, ms(verdict.Sub(s.due)))
		p.items += ingestBatchEvents
		if rec != nil {
			rec.op("verdict", s.due, verdict, 1, []child{
				{"loadgen.lag", -1, s.due, s.start},
				{"http.post", -1, s.start, s.end},
			})
		}
	}
	if rec != nil {
		for _, s := range scrapes {
			b.scrapeMS = append(b.scrapeMS, ms(s.took))
			b.queueMax = math.Max(b.queueMax, s.queue)
		}
		m, err := b.scrape()
		if err != nil {
			return err
		}
		b.m1, b.t1 = m, time.Now()
	}
	return nil
}

func (b *ingestBench) finish() (outcome, error) {
	ctx, cancel := context.WithTimeout(context.Background(), ingestVerdictLimit)
	defer cancel()
	if err := b.hs.Shutdown(ctx); err != nil {
		return outcome{}, err
	}
	if err := <-b.served; !errors.Is(err, http.ErrServerClosed) {
		return outcome{}, fmt.Errorf("ingest serve: %w", err)
	}
	b.send.CloseIdleConnections()
	b.watch.CloseIdleConnections()
	if err := b.srv.Shutdown(ctx); err != nil {
		return outcome{}, err
	}
	var delivered uint64
	for _, d := range b.srv.Devices() {
		delivered += d.EventsDelivered
	}
	if delivered != uint64(b.accepted) {
		b.failures = append(b.failures, fmt.Sprintf("ingest: %d events delivered after drain, %d accepted", delivered, b.accepted))
	}
	for status, n := range b.statuses {
		if status != http.StatusOK && status != http.StatusTooManyRequests {
			b.failures = append(b.failures, fmt.Sprintf("ingest: %d batches answered HTTP %d", n, status))
		}
	}
	if b.transport > 0 {
		b.failures = append(b.failures, fmt.Sprintf("ingest: %d batches failed in transport", b.transport))
	}

	layers := map[string]float64{}
	if b.m1 != nil {
		layers = serverLayers(b.m0, b.m1, b.t1.Sub(b.t0).Seconds())
		layers["fleetserver.queue_depth_max"] = b.queueMax
		layers["http.scrape_ms"], _ = percentile(sortedCopy(b.scrapeMS), 50, 0)
		layers["fleet.rss_bytes_per_device"] = float64(procStatusKB("VmHWM")-b.rssKB) * 1024 / ingestDevices
	}
	if b.accepted > 0 {
		layers["fleetserver.delivered_ratio"] = float64(delivered) / float64(b.accepted)
	}
	digests := map[string]string{}
	if b.gen != nil {
		digests["ingest.stream"] = hex(b.gen.digest)
	}
	return outcome{failures: b.failures, digests: digests, layers: layers}, nil
}
