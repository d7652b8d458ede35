package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/fuzzy"
	"repro/internal/keyword"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/tpwj"
	"repro/internal/tree"
	"repro/internal/xmlio"
)

// probTolerance is the probability agreement pxsim's oracle requires.
const probTolerance = 1e-9

// expectation is the response one op must receive. bodies are the
// SHA-256 digests of the exact response bodies the server sends when
// it computes the answer and when it serves it from its result cache;
// a response matching one of them is checked with one hash. Any other
// body is decoded and compared field by field: digest covers everything
// but the probabilities, which must agree within probTolerance (a view
// maintained incrementally may reuse a probability computed in another
// evaluation order).
type expectation struct {
	status int
	bodies [2][32]byte
	digest [32]byte
	probs  []float64
}

// slowChecks counts responses that needed the field-by-field check.
var slowChecks atomic.Int64

// finalDoc is a document's expected state after the whole stream,
// which the durability audit checks after the SIGKILL restart.
type finalDoc struct {
	name   string
	hash   [32]byte
	nodes  int
	events int
	views  map[string]string
	answer map[string]*expectation
}

// oracle holds the final expected state; per-op expectations hang off
// the planned ops themselves.
type oracle struct {
	final    []finalDoc
	docBytes int64
}

// shadowDoc is the oracle's model of one document: the fuzzy tree
// advanced with the same update engine pxsim's shadow uses, plus the
// expectations already requested for the current version.
type shadowDoc struct {
	tree   *fuzzy.Tree
	expect map[string]*expectation
	index  *lazyIndex
	views  map[string]string
}

// lazyIndex builds a snapshot's keyword index once, on first use.
type lazyIndex struct {
	once sync.Once
	tree *fuzzy.Tree
	ix   *keyword.Index
}

func (l *lazyIndex) get() *keyword.Index {
	l.once.Do(func() { l.ix = keyword.NewIndex(l.tree) })
	return l.ix
}

func (d *shadowDoc) invalidate() {
	d.expect = make(map[string]*expectation)
	d.index = &lazyIndex{tree: d.tree}
}

// oracleBuilder walks the stream in order, advancing the shadows, and
// queues the evaluation of every distinct (document version, request)
// as a task on that version's immutable snapshot. Tasks run on one
// goroutine per CPU, flushed every few versions so that only a bounded
// number of snapshots is alive at once.
type oracleBuilder struct {
	tasks  []func() error
	pinned int
}

// maxPinned is how many superseded snapshots pending tasks may hold.
const maxPinned = 32

func (b *oracleBuilder) flush() error {
	var next atomic.Int64
	workers := runtime.GOMAXPROCS(0)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := next.Add(1) - 1; i < int64(len(b.tasks)); i = next.Add(1) - 1 {
				if err := b.tasks[i](); err != nil && errs[g] == nil {
					errs[g] = err
				}
			}
		}(g)
	}
	wg.Wait()
	b.tasks, b.pinned = b.tasks[:0], 0
	return errors.Join(errs...)
}

// memo returns the document's expectation for key at the current
// version, queueing fill to compute it the first time.
func (b *oracleBuilder) memo(d *shadowDoc, key string, status int, fill func(e *expectation, ft *fuzzy.Tree) error) *expectation {
	if e, ok := d.expect[key]; ok {
		return e
	}
	e, ft := &expectation{status: status}, d.tree
	b.tasks = append(b.tasks, func() error { return fill(e, ft) })
	d.expect[key] = e
	return e
}

// computeOracle walks the whole stream before the server starts and
// attaches each op's expected response.
func computeOracle(p *plan) (*oracle, error) {
	docs := make([]*shadowDoc, len(p.docs))
	for i, xml := range p.initial {
		ft, err := xmlio.ParseDoc(xml)
		if err != nil {
			return nil, fmt.Errorf("parse initial %s: %w", p.docs[i], err)
		}
		docs[i] = &shadowDoc{tree: ft, views: make(map[string]string)}
		docs[i].invalidate()
	}
	b := &oracleBuilder{}
	for _, ops := range [][]*plannedOp{p.warmup, p.window} {
		for _, op := range ops {
			if err := b.expect(docs[op.docIndex], op); err != nil {
				return nil, fmt.Errorf("oracle: op %d (%s on %s): %w", op.Seq, op.Kind, op.Doc, err)
			}
			if b.pinned >= maxPinned {
				if err := b.flush(); err != nil {
					return nil, fmt.Errorf("oracle: %w", err)
				}
			}
		}
	}

	o := &oracle{}
	for i, d := range docs {
		data, err := xmlio.DocXML(d.tree)
		if err != nil {
			return nil, err
		}
		f := finalDoc{
			name:   p.docs[i],
			hash:   sha256.Sum256(data),
			nodes:  d.tree.Size(),
			events: d.tree.Table.Len(),
			views:  d.views,
			answer: make(map[string]*expectation),
		}
		for name, q := range d.views {
			f.answer[name] = b.viewExpectation(d, name, q, http.StatusOK)
		}
		o.docBytes += int64(len(data))
		o.final = append(o.final, f)
	}
	if err := b.flush(); err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	return o, nil
}

// expect sets op.want (filled in by a queued task for reads of the
// document) and advances the shadow for writes.
func (b *oracleBuilder) expect(d *shadowDoc, op *plannedOp) error {
	switch op.Kind {
	case sim.OpQuery:
		op.want = b.memo(d, "query:"+op.Query, http.StatusOK, func(e *expectation, ft *fuzzy.Tree) error {
			answers, err := evalQuery(op.Query, ft)
			if err != nil {
				return err
			}
			wire := encodeAnswers(answers)
			e.digest, e.probs = answerDigest(wire)
			return e.setBodies(server.QueryResponse{Answers: wire, Count: len(wire)}, true)
		})
	case sim.OpViewRead:
		op.want = b.viewExpectation(d, op.ViewName, op.Query, http.StatusOK)
	case sim.OpRegisterView:
		op.want = b.viewExpectation(d, op.ViewName, op.Query, http.StatusCreated)
		d.views[op.ViewName] = op.Query
	case sim.OpSearch:
		key := "search:" + op.SearchMode + ":" + strings.Join(op.Keywords, " ")
		ix := d.index
		op.want = b.memo(d, key, http.StatusOK, func(e *expectation, _ *fuzzy.Tree) error {
			mode, err := keyword.ParseMode(op.SearchMode)
			if err != nil {
				return err
			}
			res, err := keyword.Search(ix.get(), keyword.Request{Keywords: op.Keywords, Mode: mode})
			if err != nil {
				return err
			}
			resp := server.SearchResponse{Count: len(res.Answers), Candidates: res.Candidates, Pruned: res.Pruned}
			for _, a := range res.Answers {
				resp.Answers = append(resp.Answers, server.SearchAnswer{P: a.P, Pre: a.Pre, Path: a.Path,
					Label: a.Label, Value: a.Value, Witnesses: a.Witnesses})
			}
			if resp.Answers == nil {
				resp.Answers = []server.SearchAnswer{}
			}
			e.digest, e.probs = searchDigest(resp.Answers)
			return e.setBodies(resp, true)
		})
	case sim.OpRead:
		op.want = b.memo(d, "read", http.StatusOK, func(e *expectation, ft *fuzzy.Tree) error {
			data, err := xmlio.DocXML(ft)
			e.digest = sha256.Sum256(data)
			e.bodies[0], e.bodies[1] = e.digest, e.digest
			return err
		})
	case sim.OpUpdate:
		tx, err := sim.BuildTransaction(op.Update)
		if err != nil {
			return err
		}
		next, stats, err := tx.ApplyFuzzy(d.tree)
		if err != nil {
			return err
		}
		d.tree = next
		d.invalidate()
		b.pinned++
		resp := server.UpdateResponse{
			Valuations:      stats.Valuations,
			Inserted:        stats.Inserted,
			DeletedOutright: stats.DeletedOutright,
			Copies:          stats.Copies,
			Event:           string(stats.Event),
		}
		op.want = &expectation{status: http.StatusOK, digest: updateDigest(resp)}
		return op.want.setBodies(resp, false)
	}
	return nil
}

// viewExpectation is the response of a view read or registration.
func (b *oracleBuilder) viewExpectation(d *shadowDoc, name, query string, status int) *expectation {
	key := fmt.Sprintf("view:%d:%s:%s", status, name, query)
	return b.memo(d, key, status, func(e *expectation, ft *fuzzy.Tree) error {
		answers, err := evalQuery(query, ft)
		if err != nil {
			return err
		}
		wire := encodeAnswers(answers)
		e.digest, e.probs = answerDigest(wire)
		resp := server.ViewResponse{Name: name, Query: query, Answers: wire, Count: len(wire)}
		return e.setBodies(resp, false)
	})
}

func evalQuery(query string, ft *fuzzy.Tree) ([]tpwj.ProbAnswer, error) {
	q, err := tpwj.ParseQuery(query)
	if err != nil {
		return nil, err
	}
	return tpwj.EvalFuzzy(q, ft)
}

// encodeAnswers renders answers as the server does.
func encodeAnswers(answers []tpwj.ProbAnswer) []server.Answer {
	out := make([]server.Answer, len(answers))
	for i, a := range answers {
		out[i] = server.Answer{P: a.P, Tree: tree.Format(a.Tree)}
		switch {
		case a.Cond != nil:
			out[i].Condition = a.Cond.String()
		case a.Formula != nil:
			out[i].Condition = a.Formula.String()
		}
	}
	return out
}

// setBodies records the digest of the response body, encoded as the
// server encodes it. With cacheable set, the response's last field is
// "cached": false, and the body of the same answer served from the
// result cache differs only in that field.
func (e *expectation) setBodies(resp any, cacheable bool) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(resp); err != nil {
		return err
	}
	body := buf.Bytes()
	e.bodies[0], e.bodies[1] = sha256.Sum256(body), sha256.Sum256(body)
	if cacheable {
		const computed, cached = `"cached": false`, `"cached": true`
		i := bytes.LastIndex(body, []byte(computed))
		if i < 0 {
			return fmt.Errorf("encoded response has no %s field", computed)
		}
		e.bodies[1] = sha256.Sum256(slices.Concat(body[:i], []byte(cached), body[i+len(computed):]))
	}
	return nil
}

func linesDigest(lines []string) [32]byte {
	h := sha256.New()
	for _, l := range lines {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

func answerDigest(answers []server.Answer) ([32]byte, []float64) {
	lines := make([]string, len(answers))
	probs := make([]float64, len(answers))
	for i, a := range answers {
		lines[i], probs[i] = a.Tree, a.P
	}
	return linesDigest(lines), probs
}

func searchDigest(answers []server.SearchAnswer) ([32]byte, []float64) {
	lines := make([]string, len(answers))
	probs := make([]float64, len(answers))
	for i, a := range answers {
		lines[i], probs[i] = a.Path+"\x00"+a.Label+"\x00"+a.Value, a.P
	}
	return linesDigest(lines), probs
}

func updateDigest(r server.UpdateResponse) [32]byte {
	return sha256.Sum256(fmt.Appendf(nil, "val=%d ins=%d del=%d cp=%d ev=%s",
		r.Valuations, r.Inserted, r.DeletedOutright, r.Copies, r.Event))
}

// check compares a response with the expectation. It reports whether
// the server answered from its result cache (queries and searches).
func (e *expectation) check(kind sim.OpKind, status int, body []byte) (cached bool, err error) {
	if status != e.status {
		return false, fmt.Errorf("status %d, want %d: %s", status, e.status, strings.TrimSpace(string(body)))
	}
	switch sha256.Sum256(body) {
	case e.bodies[0]:
		return false, nil
	case e.bodies[1]:
		return true, nil
	}
	slowChecks.Add(1)
	var digest [32]byte
	var probs []float64
	switch kind {
	case sim.OpRead:
		digest = sha256.Sum256(body)
	case sim.OpUpdate:
		var r server.UpdateResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return false, err
		}
		digest = updateDigest(r)
	case sim.OpQuery:
		var r server.QueryResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return false, err
		}
		cached = r.Cached
		digest, probs = answerDigest(r.Answers)
	case sim.OpViewRead, sim.OpRegisterView:
		var r server.ViewResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return false, err
		}
		if r.Stale {
			return false, fmt.Errorf("view %s served stale with no concurrent writer", r.Name)
		}
		digest, probs = answerDigest(r.Answers)
	case sim.OpSearch:
		var r server.SearchResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return false, err
		}
		cached = r.Cached
		digest, probs = searchDigest(r.Answers)
	}
	if digest != e.digest || len(probs) != len(e.probs) {
		return cached, fmt.Errorf("response content differs from the oracle's (%d answers, want %d)", len(probs), len(e.probs))
	}
	for i, p := range probs {
		if math.Abs(p-e.probs[i]) > probTolerance {
			return cached, fmt.Errorf("answer %d probability %g, want %g", i, p, e.probs[i])
		}
	}
	return cached, nil
}
