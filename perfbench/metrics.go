package main

import (
	"cmp"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"time"
)

// metric is one reported figure. samples is the number of raw
// observations behind it (0 for figures that are not sample
// statistics).
type metric struct {
	name    string
	unit    string
	value   float64
	samples int
}

// exposition is one /metrics scrape: sample identity
// (`name{label="value"}`) to value, histogram buckets dropped.
type exposition map[string]float64

func scrape(hc *http.Client, base string) (exposition, error) {
	resp, err := hc.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	out := make(exposition)
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' || strings.Contains(line, "_bucket{") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] += v
		}
	}
	return out, nil
}

// scrapeSettled scrapes until every route's request counter has
// advanced by the client's count since before. The server records a
// request after writing its response, so the last replies can arrive
// before their counters move.
func scrapeSettled(hc *http.Client, base string, before exposition, sent map[string]int64) (exposition, error) {
	deadline := time.Now().Add(2 * time.Second)
	for {
		after, err := scrape(hc, base)
		if err != nil {
			return nil, err
		}
		settled := true
		for route, n := range sent {
			if int64(after.delta(before, routeKey("px_http_requests_total", route))) != n {
				settled = false
			}
		}
		if settled || time.Now().After(deadline) {
			return after, nil
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func routeKey(family, route string) string { return fmt.Sprintf("%s{route=%q}", family, route) }

func stageKey(family, stage string) string { return fmt.Sprintf("%s{stage=%q}", family, stage) }

func (e exposition) delta(before exposition, key string) float64 { return e[key] - before[key] }

// ratio returns num/den, or 0 when nothing was counted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// percentile returns the nearest-rank q-quantile of the sorted
// durations: the smallest with at least q of all at or below it.
func percentile(sorted []time.Duration, q float64) time.Duration {
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// segmentCount is how many consecutive segments a window's samples are
// split into. A figure reported as the median over segments ignores a
// burst of host slowness that spans fewer than half of them.
const segmentCount = 5

// segments splits samples, ordered by completion, into k consecutive
// runs of (nearly) equal count.
func segments(samples []sample, k int) [][]sample {
	sorted := slices.Clone(samples)
	slices.SortFunc(sorted, func(a, b sample) int { return cmp.Compare(a.at, b.at) })
	out := make([][]sample, k)
	for i := range out {
		out[i] = sorted[i*len(sorted)/k : (i+1)*len(sorted)/k]
	}
	return out
}

// segmentPercentile is the median, over k consecutive segments, of each
// segment's q-quantile latency, in ms.
func segmentPercentile(samples []sample, k int, q float64) float64 {
	var per []float64
	for _, seg := range segments(samples, k) {
		lats := make([]time.Duration, len(seg))
		for i, s := range seg {
			lats[i] = s.lat
		}
		slices.Sort(lats)
		per = append(per, ms(percentile(lats, q)))
	}
	return median(per)
}

// latencyMetrics returns the p50/p99 pair for one op kind in ms. The
// p50 is the median of the p50s of segmentCount consecutive segments.
// A p99 needs at least 10 samples beyond it, so each p99 segment holds
// at least 1000 samples; the p99 is the median over as many such
// segments as the samples allow, up to segmentCount. Fewer than 1000
// samples is an error (the plan sizes every window to avoid it).
func latencyMetrics(prefix string, samples []sample) ([]metric, error) {
	if len(samples) < 1000 {
		return nil, fmt.Errorf("%s: %d samples cannot support a p99 (need 1000)", prefix, len(samples))
	}
	return []metric{
		{name: prefix + "_p50_ms", unit: "ms", value: segmentPercentile(samples, segmentCount, 0.50), samples: len(samples)},
		{name: prefix + "_p99_ms", unit: "ms", value: segmentPercentile(samples, min(segmentCount, len(samples)/1000), 0.99), samples: len(samples)},
	}, nil
}

// throughput returns ops_per_s and server_cpu_ms_per_op, each the
// median over segmentCount consecutive segments of the window's ops.
func throughput(win *ledger, cpu *cpuSeries) (metric, metric) {
	var all []sample
	for _, s := range win.latency {
		all = append(all, s...)
	}
	var rates, perOp []float64
	var from time.Duration
	for _, seg := range segments(all, segmentCount) {
		to := seg[len(seg)-1].at
		n := float64(len(seg))
		rates = append(rates, n/(to-from).Seconds())
		perOp = append(perOp, ms(cpu.at(to)-cpu.at(from))/n)
		from = to
	}
	return metric{name: "ops_per_s", unit: "ops/s", value: median(rates), samples: len(all)},
		metric{name: "server_cpu_ms_per_op", unit: "ms", value: median(perOp), samples: len(all)}
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// deciles renders the p10..p90 and max of the samples, for the log.
func deciles(samples []sample) string {
	if len(samples) == 0 {
		return "no samples"
	}
	sorted := make([]time.Duration, len(samples))
	for i, s := range samples {
		sorted[i] = s.lat
	}
	slices.Sort(sorted)
	var b strings.Builder
	for q := 1; q <= 9; q++ {
		fmt.Fprintf(&b, "%.3f ", ms(percentile(sorted, float64(q)/10)))
	}
	fmt.Fprintf(&b, "max %.3f (n=%d)", ms(sorted[len(sorted)-1]), len(sorted))
	return b.String()
}
