package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/fuzzy"
	"repro/internal/keyword"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/store/filestore"
	"repro/internal/store/kv"
	"repro/internal/tpwj"
	"repro/internal/update"
	"repro/internal/vfs"
	"repro/internal/view"
	"repro/internal/warehouse"
	"repro/internal/xmlio"
	"repro/internal/xupdate"
)

// The traced replay plays each layer's caller in one process. For
// every op it times (*server.Server).ServeHTTP on warehouse A, then the
// matching *warehouse.Warehouse call on an identical warehouse B, then
// the leaf calls that request made, on the shadow's pre-op snapshot.
// The three are separate executions of the same work, so a child span
// starts after its parent ends: spans nest by parent name, not by time,
// and a layer's self time is its span's duration minus its children's
// durations. The server and warehouse self times are therefore
// differences between separate executions, and one op's can come out
// negative (a slow fsync in a leaf, say); the run counts such ops per
// layer and flags a layer whose self time summed over the window is
// negative.

// Span and layer names. The leaves are children of the warehouse span,
// which is the child of the server span.
const (
	layerServer    = "server"
	layerWarehouse = "warehouse"
	layerTpwj      = "tpwj"
	layerEvent     = "event"
	layerUpdate    = "update"
	layerXmlio     = "xmlio"
	layerStore     = "store"
	layerView      = "view"
	layerKeyword   = "keyword"
)

var layers = []string{layerServer, layerWarehouse, layerTpwj, layerEvent, layerUpdate,
	layerXmlio, layerStore, layerView, layerKeyword}

// span is one timed call (or run of consecutive calls of one layer) of
// one op. ID is the op's sequence number; times are nanoseconds since
// the replay started.
type span struct {
	ID     int64  `json:"id"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory; with on false it only runs the calls.
type recorder struct {
	on    bool
	base  time.Time
	id    int64
	spans []span
}

func (r *recorder) do(name, parent string, fn func() error) error {
	if !r.on {
		return fn()
	}
	start := time.Now()
	err := fn()
	end := time.Now()
	r.spans = append(r.spans, span{ID: r.id, Name: name, Parent: parent,
		Start: start.Sub(r.base).Nanoseconds(), End: end.Sub(r.base).Nanoseconds()})
	return err
}

// replayDoc is the leaf-level state of one document: the shadow tree,
// its keyword index, and its views in registration order.
type replayDoc struct {
	tree       *fuzzy.Tree
	version    int
	index      *keyword.Index
	indexedVer int
	views      []*view.View
}

// replayer holds one replay's three copies of the system.
type replayer struct {
	rec  *recorder
	srv  *server.Server
	whA  *warehouse.Warehouse
	whB  *warehouse.Warehouse
	st   store.Store
	log  store.Log
	seq  int64
	docs []*replayDoc

	tpwjCost, eventCost *obs.Cost
	evals, answers      int64
	updates, copies     int64
	xmlBytes            int64
}

func newReplayer(p *plan, dir string, on bool) (*replayer, error) {
	backend := p.wl.backend
	whA, err := warehouse.OpenBackend(filepath.Join(dir, "a"), backend, vfs.OS)
	if err != nil {
		return nil, err
	}
	r := &replayer{
		rec:       &recorder{on: on},
		srv:       server.New(whA, server.Options{}),
		whA:       whA,
		tpwjCost:  obs.NewCost(),
		eventCost: obs.NewCost(),
	}
	if r.whB, err = warehouse.OpenBackend(filepath.Join(dir, "b"), backend, vfs.OS); err != nil {
		r.close()
		return nil, err
	}
	if backend == "kv" {
		r.st = kv.New(filepath.Join(dir, "c"), vfs.OS)
	} else {
		r.st = filestore.New(filepath.Join(dir, "c"), vfs.OS)
	}
	if _, r.log, err = r.st.Open(json.Valid); err != nil {
		r.close()
		return nil, err
	}
	for i, name := range p.docs {
		rw := httptest.NewRecorder()
		r.srv.ServeHTTP(rw, httptest.NewRequest(http.MethodPut, "/docs/"+name, bytes.NewReader(p.initial[i])))
		if rw.Code != http.StatusCreated {
			r.close()
			return nil, fmt.Errorf("replay: create %s: status %d", name, rw.Code)
		}
		// Create stores a clone, so the parsed tree doubles as the shadow.
		ft, err := xmlio.ParseDoc(p.initial[i])
		if err == nil {
			err = r.whB.Create(name, ft)
		}
		if err == nil {
			err = r.journal(warehouse.Record{Op: warehouse.OpCreate, Doc: name, Content: string(p.initial[i])}, name, p.initial[i])
		}
		if err != nil {
			r.close()
			return nil, fmt.Errorf("replay: create %s: %w", name, err)
		}
		r.docs = append(r.docs, &replayDoc{tree: ft, indexedVer: -1})
	}
	return r, nil
}

func (r *replayer) close() {
	if r.log != nil {
		r.log.Close()
	}
	if r.st != nil {
		r.st.Close()
	}
	if r.whB != nil {
		r.whB.Close()
	}
	r.whA.Close()
}

// journal is the store leaf of a mutation, as the warehouse issues it:
// the mutation record made durable, the document written (when it
// carries content), then the commit marker made durable.
func (r *replayer) journal(rec warehouse.Record, doc string, content []byte) error {
	r.seq++
	rec.Seq = r.seq
	mut, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	r.seq++
	commit, err := json.Marshal(warehouse.Record{Seq: r.seq, Op: warehouse.OpCommit, RefSeq: rec.Seq})
	if err != nil {
		return err
	}
	return r.rec.do(layerStore, layerWarehouse, func() error {
		if err := r.appendSync(mut); err != nil {
			return err
		}
		if content != nil {
			if err := r.st.WriteDoc(doc, content, false); err != nil {
				return err
			}
		}
		return r.appendSync(commit)
	})
}

func (r *replayer) appendSync(payload []byte) error {
	if err := r.log.Append(payload); err != nil {
		return err
	}
	if err := r.log.Flush(); err != nil {
		return err
	}
	return r.log.Sync()
}

// op replays one op: the server call, and unless the server answered
// from its cache, the warehouse call and the leaves.
func (r *replayer) op(op *plannedOp) error {
	r.rec.id = op.Seq
	var body *bytes.Reader
	if op.body != nil {
		body = bytes.NewReader(op.body)
	} else {
		body = bytes.NewReader(nil)
	}
	req := httptest.NewRequest(op.method, op.path, body)
	rw := httptest.NewRecorder()
	r.rec.do(layerServer, "", func() error { r.srv.ServeHTTP(rw, req); return nil }) //nolint:errcheck // always nil
	cached, err := op.want.check(op.Kind, rw.Code, rw.Body.Bytes())
	if err != nil || cached {
		return err
	}
	ctx := context.Background()
	d := r.docs[op.docIndex]
	switch op.Kind {
	case sim.OpQuery:
		q, err := tpwj.ParseQuery(op.Query)
		if err != nil {
			return err
		}
		if err := r.rec.do(layerWarehouse, layerServer, func() error {
			_, err := r.whB.QueryCtx(ctx, op.Doc, q)
			return err
		}); err != nil {
			return err
		}
		return r.evalLeaves(q, d.tree)
	case sim.OpSearch:
		mode, err := keyword.ParseMode(op.SearchMode)
		if err != nil {
			return err
		}
		kreq := keyword.Request{Keywords: op.Keywords, Mode: mode}
		if err := r.rec.do(layerWarehouse, layerServer, func() error {
			_, err := r.whB.SearchCtx(ctx, op.Doc, kreq)
			return err
		}); err != nil {
			return err
		}
		return r.rec.do(layerKeyword, layerWarehouse, func() error {
			if d.indexedVer != d.version {
				d.index, d.indexedVer = keyword.NewIndex(d.tree), d.version
			}
			_, err := keyword.Search(d.index, kreq)
			return err
		})
	case sim.OpUpdate:
		return r.update(op, d)
	case sim.OpViewRead:
		return r.rec.do(layerWarehouse, layerServer, func() error {
			_, err := r.whB.ReadViewCtx(ctx, op.Doc, op.ViewName)
			return err
		})
	case sim.OpRegisterView:
		if err := r.rec.do(layerWarehouse, layerServer, func() error {
			_, err := r.whB.RegisterViewCtx(ctx, op.Doc, op.ViewName, op.Query, "")
			return err
		}); err != nil {
			return err
		}
		def := view.Definition{Name: op.ViewName, Query: op.Query}
		q, err := def.Compile()
		if err != nil {
			return err
		}
		if err := r.rec.do(layerView, layerWarehouse, func() error {
			v, err := view.Materialize(def, q, d.tree)
			d.views = append(d.views, v)
			return err
		}); err != nil {
			return err
		}
		return r.journal(warehouse.Record{Op: warehouse.OpViewRegister, Doc: op.Doc, View: op.ViewName, Query: op.Query}, op.Doc, nil)
	case sim.OpRead:
		if err := r.rec.do(layerWarehouse, layerServer, func() error {
			_, err := r.whB.GetXMLCtx(ctx, op.Doc)
			return err
		}); err != nil {
			return err
		}
		return r.rec.do(layerXmlio, layerWarehouse, func() error {
			_, err := xmlio.DocXML(d.tree)
			return err
		})
	}
	return fmt.Errorf("op %d: unknown kind %q", op.Seq, op.Kind)
}

// evalLeaves is the leaf work of a query: the symbolic match, then the
// probability of each answer's DNF.
func (r *replayer) evalLeaves(q *tpwj.Query, ft *fuzzy.Tree) error {
	var answers []tpwj.ProbAnswer
	if err := r.rec.do(layerTpwj, layerWarehouse, func() error {
		var err error
		answers, err = tpwj.EvalFuzzySymbolicContext(obs.ContextWithCost(context.Background(), r.tpwjCost), q, ft)
		return err
	}); err != nil {
		return err
	}
	r.evals++
	r.answers += int64(len(answers))
	ectx := obs.ContextWithCost(context.Background(), r.eventCost)
	return r.rec.do(layerEvent, layerWarehouse, func() error {
		for i := range answers {
			if _, err := ft.Table.ProbDNFCtx(ectx, answers[i].Cond); err != nil {
				return err
			}
		}
		return nil
	})
}

// update is the leaf work of an update: the transaction on the shadow,
// the re-serialisation, the journal and document write, and the
// maintenance of every view.
func (r *replayer) update(op *plannedOp, d *replayDoc) error {
	txB, err := sim.BuildTransaction(op.Update)
	if err != nil {
		return err
	}
	tx, err := sim.BuildTransaction(op.Update)
	if err != nil {
		return err
	}
	if err := r.rec.do(layerWarehouse, layerServer, func() error {
		_, err := r.whB.UpdateCtx(context.Background(), op.Doc, txB)
		return err
	}); err != nil {
		return err
	}
	var next *fuzzy.Tree
	var stats *update.FuzzyStats
	if err := r.rec.do(layerUpdate, layerWarehouse, func() error {
		next, stats, err = tx.ApplyFuzzy(d.tree)
		return err
	}); err != nil {
		return err
	}
	var data []byte
	if err := r.rec.do(layerXmlio, layerWarehouse, func() error {
		data, err = xmlio.DocXML(next)
		return err
	}); err != nil {
		return err
	}
	txXML, err := xupdate.TransactionXML(tx)
	if err != nil {
		return err
	}
	if err := r.journal(warehouse.Record{Op: warehouse.OpUpdate, Doc: op.Doc, Tx: string(txXML), Content: string(data)}, op.Doc, data); err != nil {
		return err
	}
	delta := &view.Delta{InsertedLabels: stats.InsertedLabels, DeleteTargetPaths: stats.DeleteTargetPaths}
	if len(d.views) > 0 {
		if err := r.rec.do(layerView, layerWarehouse, func() error {
			for i, v := range d.views {
				nv, _, err := v.Maintain(next, delta)
				if err != nil {
					return err
				}
				d.views[i] = nv
			}
			return nil
		}); err != nil {
			return err
		}
	}
	d.tree = next
	d.version++
	r.updates++
	r.copies += int64(stats.Copies)
	r.xmlBytes += int64(len(data))
	return nil
}

// traceResult is the traced replay's outcome: the spans of the
// replayed window ops and the per-layer figures derived from them.
type traceResult struct {
	spans     []span
	windowOps int // replayed window ops
	onWall    time.Duration
	offWall   time.Duration
	r         *replayer
	self      map[string]time.Duration
	negOps    map[string]int // ops whose self time in a layer is negative
}

// replayTraced replays the plan twice on fresh state, once with span
// recording off and once with it on, and derives self times from the
// window ops of the recorded replay. The two replays share nothing and
// run side by side, one per core, so they see the same machine.
//
// Each level of the replay repeats the work of the one above it, so a
// replay costs about three times the server's CPU for the same ops.
// To keep a traced run within the benchmark's time limit on a slow
// host, the replays cover the warm-up and the first quarter of the
// window.
func replayTraced(p *plan, dir string) (*traceResult, error) {
	window := p.window[:len(p.window)/4]
	tr := &traceResult{windowOps: len(window), self: make(map[string]time.Duration), negOps: make(map[string]int)}
	var (
		wg    sync.WaitGroup
		walls [2]time.Duration
		reps  [2]*replayer
		errs  [2]error
	)
	for i, sub := range []string{"off", "on"} {
		wg.Add(1)
		go func(i int, sub string) {
			defer wg.Done()
			reps[i], walls[i], errs[i] = replayOnce(p, window, filepath.Join(dir, sub), i == 1)
		}(i, sub)
	}
	wg.Wait()
	if err := errors.Join(errs[:]...); err != nil {
		return nil, err
	}
	tr.offWall, tr.onWall, tr.r, tr.spans = walls[0], walls[1], reps[1], reps[1].rec.spans
	tr.selfTimes()
	return tr, nil
}

// replayOnce replays the warm-up and then window, whose wall time it
// returns; the replayer's counters and spans cover window only.
func replayOnce(p *plan, window []*plannedOp, dir string, on bool) (*replayer, time.Duration, error) {
	r, err := newReplayer(p, dir, on)
	if err != nil {
		return nil, 0, err
	}
	defer os.RemoveAll(dir)
	defer r.close()
	for _, op := range p.warmup {
		if err := r.op(op); err != nil {
			return nil, 0, fmt.Errorf("replay op %d: %w", op.Seq, err)
		}
	}
	r.tpwjCost, r.eventCost = obs.NewCost(), obs.NewCost()
	r.evals, r.answers, r.updates, r.copies, r.xmlBytes = 0, 0, 0, 0, 0
	r.rec.spans = r.rec.spans[:0]
	r.rec.base = time.Now()
	for _, op := range window {
		if err := r.op(op); err != nil {
			return nil, 0, fmt.Errorf("replay op %d: %w", op.Seq, err)
		}
	}
	return r, time.Since(r.rec.base), nil
}

// selfTimes accumulates each layer's self time over the window and
// counts, per layer, the ops whose self time is negative. The per-op
// sum of self times equals the server span by definition; that is
// asserted, not measured.
func (tr *traceResult) selfTimes() {
	byOp := make(map[int64][]span)
	var order []int64
	for _, s := range tr.spans {
		if _, ok := byOp[s.ID]; !ok {
			order = append(order, s.ID)
		}
		byOp[s.ID] = append(byOp[s.ID], s)
	}
	for _, id := range order {
		children := make(map[string]time.Duration)
		var root time.Duration
		for _, s := range byOp[id] {
			dur := time.Duration(s.End - s.Start)
			if s.Parent == "" {
				root = dur
			} else {
				children[s.Parent] += dur
			}
		}
		self := make(map[string]time.Duration)
		var sum time.Duration
		for _, s := range byOp[id] {
			d := time.Duration(s.End-s.Start) - children[s.Name]
			self[s.Name] += d
			sum += d
		}
		if sum != root {
			panic(fmt.Sprintf("trace: op %d: self times sum to %v, server span is %v", id, sum, root))
		}
		for name, d := range self {
			tr.self[name] += d
			if d < 0 {
				tr.negOps[name]++
			}
		}
	}
}

// metrics returns the per-layer figures of the traced replay.
func (tr *traceResult) metrics() []metric {
	n := float64(tr.windowOps)
	var out []metric
	for _, l := range layers {
		out = append(out, metric{name: l + ".self_ms", unit: "ms/op", value: ms(tr.self[l]) / n, samples: tr.windowOps})
	}
	r := tr.r
	out = append(out,
		metric{name: "tpwj.answers_per_match", unit: "count", value: ratio(float64(r.answers), float64(r.evals)), samples: int(r.evals)},
		metric{name: "event.expansion_nodes_per_answer", unit: "count",
			value: ratio(float64(r.eventCost.Value(obs.CostEngineExpansionNodes)), float64(r.answers)), samples: int(r.answers)},
		metric{name: "update.copies_per_update", unit: "count", value: ratio(float64(r.copies), float64(r.updates)), samples: int(r.updates)},
		metric{name: "xmlio.bytes_per_update", unit: "B", value: ratio(float64(r.xmlBytes), float64(r.updates)), samples: int(r.updates)},
		metric{name: "trace.overhead_ratio", unit: "ratio", value: ratio(float64(tr.onWall), float64(tr.offWall))},
	)
	return out
}

// writeSpans writes the recorded spans as JSON lines.
func (tr *traceResult) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range tr.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// crossCheck prints, for the leaf layers the server also times, each
// layer's share of their replay self time beside its share of the
// server's own stage time (the /metrics window deltas). The replay
// covers the first quarter of the window and the stages the whole of
// it, where documents are larger, and the two come from different
// executions: they agree in shape, not to the digit.
func crossCheck(before, after exposition, tr *traceResult) {
	rows := []struct {
		layer  string
		stages []string
	}{
		{layerTpwj, []string{"tpwj.match"}},
		{layerEvent, []string{"event.compile", "event.prob"}},
		{layerUpdate, []string{"update.compute"}},
		{layerStore, []string{"warehouse.install"}},
		{layerView, []string{"view.maintain", "view.materialize"}},
		{layerKeyword, []string{"keyword.index", "keyword.search"}},
		{layerXmlio, []string{"xml.encode"}},
	}
	replay := make([]float64, len(rows))
	stage := make([]float64, len(rows))
	var replayTotal, stageTotal float64
	for i, row := range rows {
		replay[i] = float64(tr.self[row.layer])
		for _, n := range row.stages {
			stage[i] += after.delta(before, stageKey("px_stage_seconds_sum", n))
		}
		replayTotal += replay[i]
		stageTotal += stage[i]
	}
	fmt.Printf("cross-check (share of these rows): layer  replay-self  server-stages\n")
	for i, row := range rows {
		fmt.Printf("  %-8s %9.1f%%  %9.1f%%  %v\n", row.layer, 100*ratio(replay[i], replayTotal), 100*ratio(stage[i], stageTotal), row.stages)
	}
}

// printShares prints each layer's share of the summed self time and
// how many replayed ops had a negative self time in it. A layer whose
// summed self time is negative is flagged: its self_ms is an artefact
// of the replay, not a cost of the program.
func (tr *traceResult) printShares() {
	var total time.Duration
	for _, l := range layers {
		total += tr.self[l]
	}
	fmt.Printf("layer shares of replayed self time (%d ops):\n", tr.windowOps)
	for _, l := range layers {
		flag := ""
		if tr.self[l] < 0 {
			flag = "  NEGATIVE SUM: " + l + ".self_ms is not a cost of the program"
			fmt.Fprintf(os.Stderr, "perfbench: warning: %s self time summed over the replay is negative (%v)\n", l, tr.self[l])
		}
		fmt.Printf("  %-9s %6.1f%%  negative in %d ops%s\n", l, 100*ratio(float64(tr.self[l]), float64(total)), tr.negOps[l], flag)
	}
}
