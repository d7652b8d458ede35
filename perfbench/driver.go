package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/sim"
)

// maxMismatchMessages caps the mismatch details kept (the count is exact).
const maxMismatchMessages = 16

// sample is one op's client latency and when it completed, relative to
// the start of the pass.
type sample struct {
	at, lat time.Duration
}

// ledger is what one pass over ops observed: raw per-op latency samples
// by kind, request counts and latency sums by route, and failures.
type ledger struct {
	latency    map[sim.OpKind][]sample
	routeCount map[string]int64
	routeNanos map[string]int64
	attempted  int64
	failed     int64
	mismatches int64
	messages   []string
}

func newLedger() *ledger {
	return &ledger{
		latency:    make(map[sim.OpKind][]sample),
		routeCount: make(map[string]int64),
		routeNanos: make(map[string]int64),
	}
}

func (l *ledger) mismatch(format string, args ...any) {
	l.mismatches++
	if len(l.messages) < maxMismatchMessages {
		l.messages = append(l.messages, fmt.Sprintf(format, args...))
	}
}

// driver sends planned ops to one pxserve, closed-loop over one
// keep-alive connection: it sends the next op only after the previous
// reply, so per-document order is the stream's. One connection keeps
// the latencies free of queueing behind the client's own other
// requests, which on a 2-core machine would measure the scheduler.
type driver struct {
	base   string
	client *http.Client
	buf    bytes.Buffer
}

func newDriver(base string) *driver {
	return &driver{base: base, client: &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}}
}

func (d *driver) close() { d.client.CloseIdleConnections() }

// run executes ops in order and returns once the last reply is in.
// Every response is checked against the oracle. Sample times are
// relative to epoch.
func (d *driver) run(ops []*plannedOp, epoch time.Time) *ledger {
	l := newLedger()
	for _, op := range ops {
		d.send(op, l, epoch)
	}
	return l
}

// send executes one op, reading the reply into d.buf (reused across
// ops, so the window allocates little).
func (d *driver) send(op *plannedOp, l *ledger, epoch time.Time) {
	route := opRoute[op.Kind]
	l.attempted++
	l.routeCount[route]++
	var rdr io.Reader
	if op.body != nil {
		rdr = bytes.NewReader(op.body)
	}
	req, err := http.NewRequest(op.method, d.base+op.path, rdr)
	if err != nil {
		l.failed++
		l.mismatch("op %d: %v", op.Seq, err)
		return
	}
	if op.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	d.buf.Reset()
	start := time.Now()
	resp, err := d.client.Do(req)
	if err == nil {
		_, err = d.buf.ReadFrom(resp.Body)
		resp.Body.Close()
	}
	end := time.Now()
	lat := end.Sub(start)
	l.latency[op.Kind] = append(l.latency[op.Kind], sample{at: end.Sub(epoch), lat: lat})
	l.routeNanos[route] += int64(lat)
	if err != nil {
		l.failed++
		l.mismatch("op %d %s %s: %v", op.Seq, op.Kind, op.Doc, err)
		return
	}
	if resp.StatusCode >= 400 {
		l.failed++
	}
	if _, err := op.want.check(op.Kind, resp.StatusCode, d.buf.Bytes()); err != nil {
		l.mismatch("op %d %s %s: %v", op.Seq, op.Kind, op.Doc, err)
	}
}
