package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"time"

	"frac/internal/linalg"
	"frac/internal/rng"
	"frac/internal/serve"
)

// Request classes of the serve stream.
const (
	reqSingle = iota
	reqBulk
	reqExplain
	reqReload
)

// minSingles is the fewest single-row requests the fast windows pool, and
// the fewest each 99th percentile is taken from, so that it has ten samples
// beyond it.
const minSingles = 1000

// request is one call in the serve stream; score bodies are encoded just
// before the call, outside the timed region.
type request struct {
	class int
	rows  []int // test-split row indices (score classes)
}

// responseWriter is a reusable in-memory http.ResponseWriter: the server is
// called through ServeHTTP in-process, so no socket is involved.
type responseWriter struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (w *responseWriter) Header() http.Header { return w.header }

func (w *responseWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}

func (w *responseWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.body.Write(p)
}

func (w *responseWriter) reset() {
	clear(w.header)
	w.status = 0
	w.body.Reset()
}

// buildCycles lays out the timed stream: n cycles, each the cycle's score
// requests in its own seeded order. Rows are drawn from the test split with
// replacement.
func (r *runner) buildCycles(src *rng.Source, n int) [][]request {
	var classes []int
	for _, c := range []struct{ class, n int }{
		{reqSingle, cycleSingles}, {reqExplain, cycleExplains}, {reqBulk, cycleBulks},
	} {
		for i := 0; i < c.n; i++ {
			classes = append(classes, c.class)
		}
	}
	cycles := make([][]request, n)
	for i := range cycles {
		for _, p := range src.Perm(len(classes)) {
			cycles[i] = append(cycles[i], r.scoreRequest(classes[p], src))
		}
	}
	return cycles
}

// scoreRequest draws the rows of one score request.
func (r *runner) scoreRequest(class int, src *rng.Source) request {
	n := 1
	if class == reqBulk {
		n = bulkRows
	}
	q := request{class: class, rows: make([]int, n)}
	for i := range q.rows {
		q.rows[i] = src.IntN(r.test.NumSamples())
	}
	return q
}

// encodeBody appends the JSON body of a score request to b, writing
// missing cells as null.
func (r *runner) encodeBody(b []byte, q request) []byte {
	b = append(b, `{"rows":[`...)
	for i, row := range q.rows {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		for j, v := range r.test.Sample(row) {
			if j > 0 {
				b = append(b, ',')
			}
			if math.IsNaN(v) {
				b = append(b, "null"...)
			} else {
				b = strconv.AppendFloat(b, v, 'g', -1, 64)
			}
		}
		b = append(b, ']')
	}
	b = append(b, ']')
	if q.class == reqExplain {
		b = append(b, `,"explain":`...)
		b = strconv.AppendInt(b, explainDepth, 10)
	}
	return append(b, '}')
}

// newRequest builds the http.Request for q.
func newRequest(ctx context.Context, q request, body []byte) *http.Request {
	if q.class == reqReload {
		req, _ := http.NewRequestWithContext(ctx, http.MethodPost, "/v1/reload", nil)
		return req
	}
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, "/v1/score", bytes.NewReader(body))
	return req
}

// serving is a mounted model behind an in-process server, and the state of
// its request stream.
type serving struct {
	srv     *serve.Server
	handle  *serve.Handle
	metrics *serve.Metrics // nil when untraced
	hash    string
	cycles  [][]request // the timed stream
	sent    int         // cycles sent so far
	rw      *responseWriter
	body    []byte

	mount      float64   // seconds NewHandle took
	reloads    []float64 // seconds each reload took
	windows    []window  // timed score requests, windowCycles cycles each
	timed      int       // timed requests, reloads included
	servedRows int       // rows of every score request, warm-up included
	lastAlloc  uint64    // bytes the last ServeHTTP call allocated (traced)
	allocBytes uint64    // summed lastAlloc of the timed requests (traced)
}

// window is a run of consecutive cycles of the timed stream.
type window struct {
	lat       map[int][]float64 // latencies by class, seconds
	scoreRows int               // rows of score requests
	scoreTime float64           // summed latency of score requests
}

// fastWindows pools the fastest quarter of the windows, ranked by their
// median single-row latency, taking more windows when needed to hold at
// least minSingles single-row requests. The host's speed switches between
// a normal and a slower level many times a second (see fastMedian); a
// window is short enough, about 30–100 ms, to fall inside one level, so the
// fastest windows show the program and the slower ones the host.
func (s *serving) fastWindows() window {
	idx := make([]int, len(s.windows))
	for i := range idx {
		idx[i] = i
	}
	key := func(i int) float64 { return median(s.windows[i].lat[reqSingle]) }
	sort.SliceStable(idx, func(a, b int) bool { return key(idx[a]) < key(idx[b]) })
	quarter := (len(idx) + 3) / 4
	out := window{lat: map[int][]float64{}}
	for n, i := range idx {
		if n >= quarter && len(out.lat[reqSingle]) >= minSingles {
			break
		}
		w := s.windows[i]
		for c, l := range w.lat {
			out.lat[c] = append(out.lat[c], l...)
		}
		out.scoreRows += w.scoreRows
		out.scoreTime += w.scoreTime
	}
	return out
}

// fastP99 cuts the timed stream into blocks of consecutive windows holding
// at least minSingles single-row requests each, and returns the fast median
// of the blocks' nearest-rank 99th percentiles. A pooled 99th percentile
// rests on the slowest one percent of requests, and the host's stalls set
// those: over the fast windows of ten serve runs it spread 34%. A block
// free of stalls shows the program's own tail, the pauses of its collector
// and scheduler, which every block has. Runs too short for one block pool
// every single-row request.
func (s *serving) fastP99() float64 {
	var p99s, block []float64
	for _, w := range s.windows {
		block = append(block, w.lat[reqSingle]...)
		if len(block) >= minSingles {
			p99s = append(p99s, nearestRank(block, 0.99))
			block = block[:0]
		}
	}
	if len(p99s) == 0 {
		return nearestRank(block, 0.99)
	}
	return fastMedian(p99s)
}

// serveRound mounts the saved model in the first round, sends the warm-up
// requests, and then sends this round's cycles of the timed stream through
// Server.ServeHTTP from one closed-loop client, with one reload halfway
// through.
func (r *runner) serveRound(ctx context.Context, round int) error {
	if r.serving == nil {
		if err := r.mountModel(ctx); err != nil {
			return err
		}
	}
	s := r.serving
	n := r.w.cyclesPerRound
	var w window
	for c := 0; c < n; c++ {
		if c == n/2 {
			if d, ok := r.send(ctx, request{class: reqReload}); ok {
				s.reloads = append(s.reloads, d.Seconds())
			}
			s.timed++
		}
		if c%windowCycles == 0 {
			w = window{lat: map[int][]float64{}}
		}
		for _, q := range s.cycles[s.sent] {
			d, ok := r.send(ctx, q)
			s.timed++
			if !ok {
				continue
			}
			w.lat[q.class] = append(w.lat[q.class], d.Seconds())
			w.scoreRows += len(q.rows)
			w.scoreTime += d.Seconds()
		}
		s.sent++
		if (c+1)%windowCycles == 0 || c == n-1 {
			s.windows = append(s.windows, w)
		}
	}
	return nil
}

// mountModel loads the saved model with serve.NewHandle, starts the server
// with MaxWait 0 (a single closed-loop client gains nothing from a
// coalescing window), lays out the stream and sends the warm-up requests.
func (r *runner) mountModel(ctx context.Context) error {
	t0 := time.Now()
	h, err := serve.NewHandle("m", r.modelPath)
	mount := time.Since(t0)
	if !r.op(err) {
		return err
	}
	var metrics *serve.Metrics
	if r.tr != nil {
		metrics = &serve.Metrics{}
	}
	srv, err := serve.NewServer([]*serve.Handle{h}, serve.ServerConfig{
		Batcher: serve.BatcherConfig{MaxWait: 0, Workers: r.nproc},
		Metrics: metrics,
	})
	if !r.op(err) {
		return err
	}
	s := &serving{
		srv: srv, handle: h, metrics: metrics, hash: h.Runtime().Hash(),
		rw: &responseWriter{header: http.Header{}}, mount: mount.Seconds(),
	}
	r.serving = s
	if h.Monitor() == nil {
		return fmt.Errorf("the mounted model has no drift monitor")
	}
	src := rng.New(r.seed).Stream("serve-stream")
	warm := make([]request, r.w.warmRequests)
	for i := range warm {
		warm[i] = r.scoreRequest(reqSingle, src)
	}
	s.cycles = r.buildCycles(src, r.w.rounds*r.w.cyclesPerRound)
	for _, q := range warm {
		r.send(ctx, q)
	}
	return nil
}

// send makes one call, times it, and checks the response.
func (r *runner) send(ctx context.Context, q request) (time.Duration, bool) {
	s := r.serving
	if q.class != reqReload {
		s.body = r.encodeBody(s.body[:0], q)
	}
	req := newRequest(ctx, q, s.body)
	s.rw.reset()
	var a0 uint64
	if r.tr != nil {
		a0 = heapAllocBytes()
	}
	t0 := time.Now()
	s.srv.ServeHTTP(s.rw, req)
	d := time.Since(t0)
	if r.tr != nil {
		s.lastAlloc = heapAllocBytes() - a0
	}
	var err error
	if s.rw.status != http.StatusOK {
		err = fmt.Errorf("%s request: status %d: %s", className(q.class), s.rw.status, bytes.TrimSpace(s.rw.body.Bytes()))
	}
	if !r.op(err) {
		return d, false
	}
	if q.class == reqReload {
		r.checkReload(s.rw.body.Bytes(), s.hash)
	} else {
		s.servedRows += len(q.rows)
		r.checkScores(q, s.rw.body.Bytes(), s.hash)
	}
	return d, true
}

// serveFinish checks the drift monitor's count, derives the serving
// metrics and runs the check's self-test.
func (r *runner) serveFinish() {
	s := r.serving
	snap := s.handle.Monitor().Snapshot()
	r.check(snap.Samples == int64(s.servedRows), "drift monitor counted %d samples, %d rows were served", snap.Samples, s.servedRows)
	var windowP50 []float64
	for _, w := range s.windows {
		windowP50 = append(windowP50, median(w.lat[reqSingle]))
	}
	fast := s.fastWindows()
	r.metrics["load_ms"] = fastMedian(append([]float64{s.mount}, s.reloads...)) * 1e3
	r.metrics["serve_p50_ms"] = median(fast.lat[reqSingle]) * 1e3
	r.metrics["serve_p99_ms"] = s.fastP99() * 1e3
	r.metrics["explain_p50_ms"] = median(fast.lat[reqExplain]) * 1e3
	r.metrics["serve_rows_per_s"] = float64(fast.scoreRows) / fast.scoreTime
	r.logf("single-row window p50 (ms): quartiles %.4f %.4f %.4f of %d windows; fast pool %d singles",
		quantile(windowP50, 0.25)*1e3, median(windowP50)*1e3, quantile(windowP50, 0.75)*1e3,
		len(windowP50), len(fast.lat[reqSingle]))
	if r.tr != nil {
		r.layer["serve.alloc_kb_per_request"] = float64(s.allocBytes) / float64(s.timed) / 1024
		r.tr.serveMetrics(r, snap.Samples)
	}
	r.selfTest()
}

// closeServing stops the server's batchers.
func (r *runner) closeServing() {
	if r.serving != nil {
		r.serving.srv.Close()
	}
}

func className(c int) string {
	return [...]string{"single", "bulk", "explain", "reload"}[c]
}

// checkScores decodes a score response and compares it with the offline
// scores and, for explain requests, with the top contributions recomputed
// from the offline per-term matrix.
func (r *runner) checkScores(q request, body []byte, hash string) {
	var resp serve.ScoreResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		r.check(false, "undecodable score response: %v", err)
		return
	}
	r.check(resp.ModelHash == hash, "score response stamped %q, model hash is %q", resp.ModelHash, hash)
	if len(resp.Scores) != len(q.rows) {
		r.check(false, "%d scores for %d rows", len(resp.Scores), len(q.rows))
		return
	}
	want := make([]float64, len(q.rows))
	for i, row := range q.rows {
		want[i] = r.offline[row]
	}
	if d := firstDiff(resp.Scores, want); d >= 0 {
		r.check(false, "served score of test row %d is %v, offline score is %v", q.rows[d], resp.Scores[d], want[d])
	}
	if q.class != reqExplain {
		r.check(resp.Explanations == nil, "plain score request returned explanations")
		return
	}
	if len(resp.Explanations) != len(q.rows) {
		r.check(false, "%d explanations for %d rows", len(resp.Explanations), len(q.rows))
		return
	}
	for i, row := range q.rows {
		want := topContributions(r.perTerm.PerTerm, row, explainDepth)
		got := resp.Explanations[i]
		if len(got) != len(want) {
			r.check(false, "explanation of test row %d has %d entries, want %d", row, len(got), len(want))
			continue
		}
		for k := range want {
			if got[k].Orig != want[k].orig ||
				math.Float64bits(got[k].Contribution) != math.Float64bits(want[k].contribution) {
				r.check(false, "explanation %d of test row %d is feature %d (%v), want feature %d (%v)",
					k, row, got[k].Orig, got[k].Contribution, want[k].orig, want[k].contribution)
				break
			}
		}
	}
}

// checkReload verifies that reloading the unchanged file keeps the hash.
func (r *runner) checkReload(body []byte, hash string) {
	var resp serve.ReloadResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		r.check(false, "undecodable reload response: %v", err)
		return
	}
	if len(resp.Results) != 1 {
		r.check(false, "reload returned %d results", len(resp.Results))
		return
	}
	res := resp.Results[0]
	r.check(res.Error == "" && res.ModelHash == hash && !res.Changed,
		"reload of the unchanged model gave hash %q changed=%v error=%q, want hash %q unchanged",
		res.ModelHash, res.Changed, res.Error, hash)
}

// rowsMatrix copies test rows into a batch matrix.
func (r *runner) rowsMatrix(rows []int) *linalg.Matrix {
	m := linalg.NewMatrix(len(rows), r.test.NumFeatures())
	for i, row := range rows {
		copy(m.Row(i), r.test.Sample(row))
	}
	return m
}

// selfTest feeds the score check a response whose first score is one ulp
// off the offline score and makes sure the check catches it.
func (r *runner) selfTest() {
	for _, q := range r.serving.cycles[0] {
		if q.class != reqSingle {
			continue
		}
		v := r.offline[q.rows[0]]
		body, err := json.Marshal(serve.ScoreResponse{ModelHash: r.serving.hash, Scores: []float64{math.Nextafter(v, math.Inf(1))}})
		if err != nil {
			r.check(false, "self-test: %v", err)
			return
		}
		n := len(r.problems)
		r.checkScores(q, body, r.serving.hash)
		if len(r.problems) == n {
			r.check(false, "self-test: a perturbed served score passed the score check")
			return
		}
		r.problems = r.problems[:n]
		return
	}
}
