package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/server"
)

// config is one benchmark invocation.
type config struct {
	wl      *workload
	seed    int64
	seconds int
	trace   bool
	pxserve string
	workdir string
}

// result is what a run prints.
type result struct {
	attempted int64
	failed    int64
	problems  []string
	endToEnd  []metric
	perLayer  []metric
	spanFile  string
	checks    int
}

func (r *result) correct() bool { return len(r.problems) == 0 }

// setupRepeats and recoveryRepeats are how many times a run times the
// set-up and the SIGKILL recovery; the medians are reported. A traced
// run reports neither and times each once.
const (
	setupRepeats    = 11
	recoveryRepeats = 3
)

func runBench(cfg config) (*result, error) {
	p, err := newPlan(cfg.wl, cfg.seed, cfg.seconds)
	if err != nil {
		return nil, err
	}
	began := time.Now()
	phase := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "perfbench: %6.2fs %s\n", time.Since(began).Seconds(), fmt.Sprintf(format, args...))
	}
	o, err := computeOracle(p)
	if err != nil {
		return nil, err
	}
	phase("oracle: %d warm-up + %d window ops, final documents %d bytes", len(p.warmup), len(p.window), o.docBytes)
	runDir := filepath.Join(cfg.workdir, fmt.Sprintf("run-%s-%d-%d", cfg.wl.name, cfg.seed, os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)

	res := &result{}
	probe := &http.Client{Timeout: 60 * time.Second}
	defer probe.CloseIdleConnections()

	// Set-up: exec pxserve on an empty directory and load every
	// document, several times on fresh directories; the last server
	// stays up for the workload.
	setups, recoveries := setupRepeats, recoveryRepeats
	if cfg.trace {
		setups, recoveries = 1, 1
	}
	var setupTimes []float64
	var srv *serverProc
	var dir string
	for i := 0; i < setups; i++ {
		dir = filepath.Join(runDir, fmt.Sprintf("wh%d", i))
		s, err := startServer(cfg.pxserve, dir, cfg.wl.backend)
		if err != nil {
			return nil, err
		}
		if err := load(s.base, p); err != nil {
			s.kill()
			return nil, err
		}
		setupTimes = append(setupTimes, time.Since(s.started).Seconds())
		if i == setups-1 {
			srv = s
			break
		}
		s.kill()
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
	}
	alive := true
	defer func() {
		if alive {
			srv.kill()
		}
	}()

	phase("set-up: %d times", setups)
	d := newDriver(srv.base)
	defer d.close()
	warm := d.run(p.warmup, time.Now())
	before, err := scrape(probe, srv.base)
	if err != nil {
		return nil, err
	}
	self0 := selfCPU()
	start := time.Now()
	cpuLog, err := srv.sampleCPU(start)
	if err != nil {
		return nil, err
	}
	win := d.run(p.window, start)
	elapsed := time.Since(start)
	self1 := selfCPU()
	cpu, err := cpuLog.stop()
	if err != nil {
		return nil, err
	}
	after, err := scrapeSettled(probe, srv.base, before, win.routeCount)
	if err != nil {
		return nil, err
	}
	rss, err := srv.peakRSSMB()
	if err != nil {
		return nil, err
	}
	disk, err := dirBytes(dir)
	if err != nil {
		return nil, err
	}

	res.attempted, res.failed = win.attempted, win.failed
	for _, l := range []*ledger{warm, win} {
		if l.failed > 0 || l.mismatches > 0 {
			res.problems = append(res.problems, fmt.Sprintf("%d failed ops, %d responses differ from the oracle", l.failed, l.mismatches))
		}
		res.problems = append(res.problems, l.messages...)
	}
	for _, k := range opKinds {
		route := opRoute[k]
		if got := int64(after.delta(before, routeKey("px_http_requests_total", route))); got != win.routeCount[route] {
			res.problems = append(res.problems, fmt.Sprintf("metrics: %s served %d requests in the window, client sent %d", route, got, win.routeCount[route]))
		}
	}

	// Durability: SIGKILL, restart on the same directory (timed up to
	// /readyz), and audit every acknowledged write on the last restart.
	srv.kill()
	alive = false
	var recoveryTimes []float64
	for i := 0; i < recoveries; i++ {
		s, err := startServer(cfg.pxserve, dir, cfg.wl.backend)
		if err != nil {
			return nil, err
		}
		srv, alive = s, true
		if err := s.waitReady(probe); err != nil {
			return nil, err
		}
		recoveryTimes = append(recoveryTimes, time.Since(s.started).Seconds())
		if i < recoveries-1 {
			s.kill()
			alive = false
		}
	}
	phase("window %.2fs, client CPU %.2fs, server CPU %.2fs (%d responses needed the field-by-field check), recovery %d times",
		elapsed.Seconds(), (self1 - self0).Seconds(), (cpu.at(elapsed) - cpu.at(0)).Seconds(), slowChecks.Load(), recoveries)
	checks, problems := audit(probe, srv.base, o)
	res.checks = checks
	res.problems = append(res.problems, problems...)
	srv.kill()
	alive = false

	serverCPU := cpu.at(elapsed) - cpu.at(0)
	clientCPU := self1 - self0
	if !cfg.trace {
		for _, k := range opKinds {
			phase("%s latency deciles (ms): %s", k, deciles(win.latency[k]))
		}
		rate, cpuPerOp := throughput(win, cpu)
		res.endToEnd = append(res.endToEnd, rate)
		for _, k := range measuredKinds {
			ms, err := latencyMetrics(metricPrefix[k], win.latency[k])
			if err != nil {
				return nil, err
			}
			res.endToEnd = append(res.endToEnd, ms...)
		}
		res.endToEnd = append(res.endToEnd, cpuPerOp,
			metric{name: "server_peak_rss_mb", unit: "MB", value: rss},
			metric{name: "disk_bytes_per_doc_byte", unit: "ratio", value: float64(disk) / float64(o.docBytes)},
			metric{name: "setup_s", unit: "s", value: median(setupTimes), samples: len(setupTimes)},
			metric{name: "recovery_s", unit: "s", value: median(recoveryTimes), samples: len(recoveryTimes)},
		)
		return res, nil
	}

	// Traced run: counter deltas from the window, then the in-process
	// replay for self times.
	res.perLayer = counterMetrics(before, after, win, len(p.window))
	res.perLayer = append(res.perLayer,
		metric{name: "client.cpu_share", unit: "ratio", value: ratio(float64(clientCPU), float64(clientCPU+serverCPU))})
	tr, err := replayTraced(p, filepath.Join(runDir, "replay"))
	if err != nil {
		return nil, err
	}
	phase("replay: %.2fs traced, %.2fs untraced", tr.onWall.Seconds(), tr.offWall.Seconds())
	res.spanFile = filepath.Join(cfg.workdir, fmt.Sprintf("spans-%s-%d.jsonl", cfg.wl.name, cfg.seed))
	if err := tr.writeSpans(res.spanFile); err != nil {
		return nil, err
	}
	res.perLayer = append(res.perLayer, tr.metrics()...)
	tr.printShares()
	crossCheck(before, after, tr)
	return res, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// load creates every initial document.
func load(base string, p *plan) error {
	d := newDriver(base)
	defer d.close()
	for i, name := range p.docs {
		req, err := http.NewRequest(http.MethodPut, base+"/docs/"+name, bytes.NewReader(p.initial[i]))
		if err != nil {
			return err
		}
		resp, err := d.client.Do(req)
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			return fmt.Errorf("create %s: status %d", name, resp.StatusCode)
		}
	}
	return nil
}

// counterMetrics derives the per-layer counts and ratios from the
// window's /metrics deltas.
func counterMetrics(before, after exposition, win *ledger, ops int) []metric {
	dl := func(key string) float64 { return after.delta(before, key) }
	updates := float64(win.routeCount[server.RouteUpdate])
	hits := dl(`px_cache_hits_total{cache="query"}`) + dl(`px_cache_hits_total{cache="search"}`)
	misses := dl(`px_cache_misses_total{cache="query"}`) + dl(`px_cache_misses_total{cache="search"}`)
	tiers := dl(`px_view_maintenance_total{tier="skip"}`) + dl(`px_view_maintenance_total{tier="incremental"}`) +
		dl(`px_view_maintenance_total{tier="recompute"}`)
	reused := dl(`px_view_answers_total{outcome="reused"}`)
	searches := dl("px_keyword_searches_total")
	var clientNanos, serverSeconds float64
	for _, k := range opKinds {
		route := opRoute[k]
		clientNanos += float64(win.routeNanos[route])
		serverSeconds += dl(routeKey("px_http_request_seconds_sum", route))
	}
	return []metric{
		{name: "server.result_cache_hit_ratio", unit: "ratio", value: ratio(hits, hits+misses)},
		{name: "server.client_gap_ms", unit: "ms", value: (clientNanos/1e6 - serverSeconds*1e3) / float64(ops), samples: ops},
		{name: "tpwj.nodes_visited_per_eval", unit: "count", value: ratio(dl("px_tpwj_nodes_visited_total"),
			dl(stageKey("px_stage_seconds_count", "tpwj.match"))+updates)},
		{name: "event.memo_hit_ratio", unit: "ratio", value: ratio(dl("px_engine_memo_hits_total"),
			dl("px_engine_memo_hits_total")+dl("px_engine_memo_misses_total"))},
		{name: "view.skip_ratio", unit: "ratio", value: ratio(dl(`px_view_maintenance_total{tier="skip"}`), tiers)},
		{name: "view.answers_reused_ratio", unit: "ratio", value: ratio(reused, reused+dl(`px_view_answers_total{outcome="recomputed"}`))},
		{name: "keyword.index_builds_per_search", unit: "count", value: ratio(dl("px_keyword_index_builds_total"), searches)},
		{name: "keyword.postings_scanned_per_search", unit: "count", value: ratio(dl("px_keyword_postings_scanned_total"), searches)},
		{name: "store.journal_bytes_per_update", unit: "B", value: ratio(dl("px_journal_bytes_total"), updates)},
		{name: "store.syncs_per_append", unit: "ratio", value: ratio(dl("px_journal_sync_batches_total"), dl("px_journal_appends_total"))},
	}
}
