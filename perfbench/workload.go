package main

import (
	"encoding/json"
	"fmt"
	"net/http"

	"repro/internal/server"
	"repro/internal/sim"
)

// workload is one traffic shape: the document grid and content shape,
// the op mix, and the storage backend pxserve runs on. The why lines
// are the ones BENCHMARK.json carries.
//
// A workload runs groups independent one-document pxsim streams, each
// with its own seed; the run interleaves their ops round-robin. A
// single pxsim stream over many documents concentrates its cost on a
// few Zipf-hot documents whose random shape (which views they get, how
// they grow) swings the whole run, so one seed's figures would say more
// about that seed than about the server. Averaging over independent
// documents makes runs with different seeds comparable.
type workload struct {
	name     string
	why      string
	groups   int
	sections int
	events   int
	mix      string
	backend  string
	// samples is how many ops of each measured kind the window holds
	// per --seconds; see newPlan.
	samples int
}

// zipfS is pxsim's default document-popularity skew. Every stream
// holds one document, so it only fills in sim.NewStream's argument.
const zipfS = 1.2

// warmupOps is the checked but untimed prefix of every stream.
const warmupOps = 400

// maxWindowOps bounds the window when a mix starves a measured kind.
const maxWindowOps = 200_000

var workloads = []*workload{
	{
		name:     "query-large",
		why:      "query-heavy mix over 64 docs of 256 sections on filestore: tree-pattern matching is the largest layer, DNF probability a small one",
		groups:   64,
		sections: 256,
		events:   24,
		mix:      "query=50,search=13,update=20,view-read=13,register-view=3,read=1",
		backend:  "filestore",
		samples:  150,
	},
	{
		name:     "write-views-kv",
		why:      "update-heavy mix over 32 docs at the 3-view cap on kv: journal and document writes, then view maintenance and update compute take most of the time",
		groups:   32,
		sections: 4,
		events:   4,
		mix:      "update=42,view-read=18,register-view=4,query=16,search=14,read=6",
		backend:  "kv",
		samples:  300,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// measuredKinds are the op kinds whose client latency is reported as a
// p50/p99 pair; every workload's window holds enough of each.
var measuredKinds = []sim.OpKind{sim.OpQuery, sim.OpUpdate, sim.OpSearch, sim.OpViewRead}

// metricPrefix names each measured kind in metric names.
var metricPrefix = map[sim.OpKind]string{
	sim.OpQuery:    "query",
	sim.OpUpdate:   "update",
	sim.OpSearch:   "search",
	sim.OpViewRead: "view_read",
}

// opKinds lists every op kind a stream holds.
var opKinds = []sim.OpKind{sim.OpQuery, sim.OpSearch, sim.OpUpdate, sim.OpViewRead, sim.OpRegisterView, sim.OpRead}

// opRoute maps an op kind to the server route that serves it.
var opRoute = map[sim.OpKind]string{
	sim.OpQuery:        server.RouteQuery,
	sim.OpSearch:       server.RouteSearch,
	sim.OpUpdate:       server.RouteUpdate,
	sim.OpViewRead:     server.RouteViewGet,
	sim.OpRegisterView: server.RouteViewPut,
	sim.OpRead:         server.RouteGet,
}

// plannedOp is one stream op with its HTTP request prepared ahead of
// time, so the timed window only sends bytes.
type plannedOp struct {
	sim.Op
	docIndex int
	method   string
	path     string
	body     []byte
	// want is the response the oracle expects (see computeOracle).
	want *expectation
}

// plan is everything a run executes: the initial documents and the op
// stream split into warm-up and window. It is a pure function of
// (workload, seed, seconds).
type plan struct {
	wl      *workload
	seed    int64
	docs    []string
	initial [][]byte
	warmup  []*plannedOp
	window  []*plannedOp
}

func newPlan(wl *workload, seed int64, seconds int) (*plan, error) {
	mix, err := sim.ParseMix(wl.mix)
	if err != nil {
		return nil, err
	}
	p := &plan{wl: wl, seed: seed}
	// Document g is pxsim's one-tenant, one-document grid of stream g.
	docName := sim.DocNames(1, 1)[0]
	streams := make([]*sim.Stream, wl.groups)
	for g := range streams {
		gseed := seed*1_000_003 + int64(g)
		name := fmt.Sprintf("g%d-%s", g, docName)
		p.docs = append(p.docs, name)
		p.initial = append(p.initial, []byte(sim.InitialDocXML(gseed, 0, wl.sections, wl.events)))
		streams[g] = sim.NewStream(gseed, []string{name}, mix, zipfS, wl.sections)
	}
	var seq int64
	next := func() (*plannedOp, error) {
		g := int(seq % int64(wl.groups))
		op := &plannedOp{Op: streams[g].Next(), docIndex: g}
		op.Seq = seq
		seq++
		return op, op.prepare()
	}
	for len(p.warmup) < warmupOps {
		op, err := next()
		if err != nil {
			return nil, err
		}
		p.warmup = append(p.warmup, op)
	}
	// The window is counted in ops, not time, so that a faster build
	// runs the same ops on the same document sizes: it is the shortest
	// stream prefix after warm-up holding wl.samples × seconds ops of
	// every measured kind (at least 1000, so each p99 has at least 10
	// samples beyond it). With --seconds 10 the figures chosen make a
	// window last 15 to 30 s on a 2-core machine.
	need := max(wl.samples*seconds, 1000)
	counts := make(map[sim.OpKind]int)
	for !enough(counts, need) {
		if len(p.window) == maxWindowOps {
			return nil, fmt.Errorf("workload %s: %d ops do not hold %d ops of each of %v", wl.name, maxWindowOps, need, measuredKinds)
		}
		op, err := next()
		if err != nil {
			return nil, err
		}
		counts[op.Kind]++
		p.window = append(p.window, op)
	}
	return p, nil
}

func enough(counts map[sim.OpKind]int, need int) bool {
	for _, k := range measuredKinds {
		if counts[k] < need {
			return false
		}
	}
	return true
}

// prepare builds the op's HTTP request, exactly as pxsim sends it.
func (op *plannedOp) prepare() error {
	var body any
	base := "/docs/" + op.Doc
	switch op.Kind {
	case sim.OpQuery:
		op.method, op.path = http.MethodPost, base+"/query"
		body = server.QueryRequest{Query: op.Query}
	case sim.OpSearch:
		op.method, op.path = http.MethodPost, base+"/search"
		body = server.SearchRequest{Keywords: op.Keywords, Mode: op.SearchMode}
	case sim.OpUpdate:
		u := op.Update
		uop := server.UpdateOp{Op: "delete", Var: u.Var}
		if u.Insert != "" {
			uop = server.UpdateOp{Op: "insert", Var: u.Var, Tree: u.Insert}
		}
		op.method, op.path = http.MethodPost, base+"/update"
		body = server.UpdateRequest{Query: u.Query, Confidence: u.Confidence, Ops: []server.UpdateOp{uop}}
	case sim.OpViewRead:
		op.method, op.path = http.MethodGet, base+"/views/"+op.ViewName
	case sim.OpRegisterView:
		op.method, op.path = http.MethodPut, base+"/views/"+op.ViewName
		body = server.ViewRequest{Query: op.Query}
	case sim.OpRead:
		op.method, op.path = http.MethodGet, base
	default:
		return fmt.Errorf("op %d: unknown kind %q", op.Seq, op.Kind)
	}
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return err
		}
		op.body = data
	}
	return nil
}
