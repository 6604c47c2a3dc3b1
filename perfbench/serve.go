package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"

	"tegrecon/internal/report"
	"tegrecon/internal/store"
)

// The serve workload: the real tegserve binary over loopback with a
// fresh -store-dir and a memory cache smaller than the repeat pool.
// One connection plays a seeded request stream closed loop, one
// request in flight at a time, so the server's CPU time from one send
// to the next belongs to one request. The mix is mostly repeated runs
// (memory-tier and disk-tier hits) plus fresh-key runs (misses:
// compute, then cache and store puts), and a few small sweeps and
// overlapping matrices.
//
// A request's latency is the server CPU time it costs, not the
// client's wall clock: on a shared 2-vCPU host, host steal moved the
// wall-clock tail median by half between two sets of runs of the same
// code. The traced run reports the wall-clock latencies beside it.
//
// The benchmark and the server share one CPU (pinToOneCPU). With one
// request in flight they take turns anyway, and on separate vCPUs the
// client's runtime and GC ran beside the server and slowed it by a
// share that changed from run to run (see NOTES.md).

const (
	// serveCacheEntries is the server's -cache: a third of the repeat
	// pool, so repeats split between the memory and the disk tier.
	serveCacheEntries = 32
	// serveRepeatPool is the number of distinct repeated run requests,
	// primed before timing.
	serveRepeatPool = 96
	// Shares of the mix; the rest are repeated runs. The fresh share
	// puts the p99 inside the misses.
	serveFreshShare  = 0.02
	serveSweepShare  = 0.01
	serveMatrixShare = 0.01
	// serveModules is every request's array size, so module-ticks are
	// the server's tick counter times this.
	serveModules = 100
	// serveSetupReps is how many servers a run starts; setup_s is the
	// median server CPU time from exec to the first 200 on /healthz.
	serveSetupReps = 25
)

// reqSpec is one HTTP request of the mix.
type reqSpec struct {
	Kind string // run, fresh, sweep or matrix
	Path string
	Body []byte
}

// serveMix is the seeded input: the repeat pool, the sweeps and
// matrices, and the generator of the request stream.
type serveMix struct {
	pool     []reqSpec
	sweeps   []reqSpec
	matrices []reqSpec
	rng      *rand.Rand
	fresh    int64 // seed of the last fresh-key run
}

var (
	serveCycles  = []string{"nedc", "wltc", "ftp75", "hwfet", "us06", "delivery"}
	serveSchemes = []string{"Baseline", "INOR", "DNOR", "EHTR"}
)

func runBody(cycle, scheme string, durationS float64, seed int64) []byte {
	b, _ := json.Marshal(map[string]any{
		"cycle": cycle, "scheme": scheme, "duration_s": durationS, "seed": seed, "modules": serveModules,
	})
	return b
}

// newServeMix derives the request pool, sweeps and matrices from the
// seed; next draws the stream that follows.
func newServeMix(seed int64) *serveMix {
	rng := rand.New(rand.NewSource(subSeed(seed, "serve.mix")))
	mix := &serveMix{rng: rng, fresh: 1 << 21}
	seen := map[string]bool{}
	for len(mix.pool) < serveRepeatPool {
		b := runBody(serveCycles[rng.Intn(len(serveCycles))], serveSchemes[rng.Intn(len(serveSchemes))],
			float64(10+5*rng.Intn(3)), 1+rng.Int63n(1<<20))
		if !seen[string(b)] {
			seen[string(b)] = true
			mix.pool = append(mix.pool, reqSpec{Kind: "run", Path: "/v1/runs", Body: b})
		}
	}
	for i := range 3 {
		b, _ := json.Marshal(map[string]any{
			"cycles": []string{serveCycles[rng.Intn(len(serveCycles))]}, "schemes": []string{"INOR", "DNOR"},
			"max_duration_s": 10 + 5*i, "modules": serveModules,
		})
		mix.sweeps = append(mix.sweeps, reqSpec{Kind: "sweep", Path: "/v1/sweeps", Body: b})
	}
	synthSeed := 1 + rng.Int63n(1<<20)
	for i := range 3 {
		// Consecutive specs share one ambient, so later matrices reuse
		// cached cells of earlier ones.
		b, _ := json.Marshal(map[string]any{
			"name":        "perfbench-serve",
			"cycles":      []any{map[string]any{"synth": map[string]any{"profile": "urban", "duration_s": 10, "seed": synthSeed}}},
			"schemes":     []string{"INOR", "DNOR"},
			"ambients":    []any{map[string]any{"ambient_c": 15 + 10*i}, map[string]any{"ambient_c": 25 + 10*i}},
			"array_sizes": []int{serveModules},
		})
		mix.matrices = append(mix.matrices, reqSpec{Kind: "matrix", Path: "/v1/matrix", Body: b})
	}
	return mix
}

// next draws the stream's next request.
func (m *serveMix) next() reqSpec {
	switch u := m.rng.Float64(); {
	case u < serveSweepShare:
		return m.sweeps[m.rng.Intn(len(m.sweeps))]
	case u < serveSweepShare+serveMatrixShare:
		return m.matrices[m.rng.Intn(len(m.matrices))]
	case u < serveSweepShare+serveMatrixShare+serveFreshShare:
		m.fresh += 1 + m.rng.Int63n(1000)
		return reqSpec{Kind: "fresh", Path: "/v1/runs", Body: runBody(serveCycles[m.rng.Intn(len(serveCycles))], "INOR", 15, m.fresh)}
	default:
		return m.pool[m.rng.Intn(len(m.pool))]
	}
}

// server is one running tegserve process.
type server struct {
	cmd    *exec.Cmd
	base   string
	exited chan struct{} // closed when the process has been waited for
	err    error         // Wait's result, valid after exited closes
}

// startServer execs tegserve on a loopback port with a fresh store and
// returns once /healthz answers 200, with the server's CPU time up to
// then.
func startServer(bin, storeDir string) (*server, time.Duration, error) {
	t0 := time.Now()
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-store-dir", storeDir, "-cache", strconv.Itoa(serveCacheEntries),
		"-max-concurrent", "1", "-workers", "1")
	// The server dies with the benchmark, even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, 0, err
	}
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start tegserve: %w", err)
	}
	s := &server{cmd: cmd, exited: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			if !sent && strings.Contains(line, "msg=listening") {
				for _, f := range strings.Fields(line) {
					if a, ok := strings.CutPrefix(f, "addr="); ok {
						addr <- a
						sent = true
					}
				}
			}
		}
		// The pipe is drained to EOF before Wait, as exec requires.
		_, _ = io.Copy(io.Discard, stderr)
		s.err = cmd.Wait()
		close(s.exited)
	}()
	select {
	case a := <-addr:
		s.base = "http://" + a
	case <-s.exited:
		return nil, 0, fmt.Errorf("tegserve exited before listening: %v", s.err)
	case <-time.After(30 * time.Second):
		s.kill()
		return nil, 0, errors.New("tegserve did not report its listening address")
	}
	c := &http.Client{Timeout: time.Second}
	for {
		resp, err := c.Get(s.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				cpu, err := procCPU(s.pid())
				if err != nil {
					s.kill()
					return nil, 0, err
				}
				return s, cpu, nil
			}
		}
		if time.Since(t0) > 30*time.Second {
			s.kill()
			return nil, 0, errors.New("tegserve /healthz never answered 200")
		}
		time.Sleep(200 * time.Microsecond)
	}
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// stop sends SIGTERM and requires a clean exit 0 within the drain
// deadline.
func (s *server) stop() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case <-s.exited:
		if s.err != nil {
			return fmt.Errorf("tegserve exit after SIGTERM: %w", s.err)
		}
		return nil
	case <-time.After(30 * time.Second):
		s.kill()
		return errors.New("tegserve did not exit within 30s of SIGTERM")
	}
}

// kill ends the process and waits for it.
func (s *server) kill() {
	_ = s.cmd.Process.Kill()
	<-s.exited
}

// scrape reads /metrics into series → value.
func (s *server) scrape(c *http.Client) (map[string]float64, error) {
	resp, err := c.Get(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// reqResult is one request's outcome.
type reqResult struct {
	Kind      string
	Status    int
	Cache     string
	Key       string
	Body      []byte
	Sent, End time.Time
	CPU       time.Duration // server CPU from this send to the next
	Err       error
}

// bodyLog keeps the first body seen per cache key and the payloads the
// traced run replays.
type bodyLog struct {
	first map[string][sha256.Size]byte
	runs  map[string][]byte // key → run payload, for replay
}

func newBodyLog() *bodyLog {
	return &bodyLog{first: map[string][sha256.Size]byte{}, runs: map[string][]byte{}}
}

// check counts one request against t: a transport error, a non-2xx
// status or a body that differs from the first body seen for its key
// is a failure.
func (l *bodyLog) check(r *reqResult, t *Tally) {
	t.Attempted++
	switch {
	case r.Err != nil:
		t.Fail("serve %s: %v", r.Kind, r.Err)
		return
	case r.Status/100 != 2:
		t.Fail("serve %s: status %d: %.200s", r.Kind, r.Status, r.Body)
		return
	case r.Key == "":
		t.Fail("serve %s: no X-Cache-Key", r.Kind)
		return
	}
	sum := sha256.Sum256(r.Body)
	if prev, ok := l.first[r.Key]; !ok {
		l.first[r.Key] = sum
		if r.Kind == "run" || r.Kind == "fresh" {
			l.runs[r.Key] = bytes.TrimSuffix(r.Body, []byte("\n"))
		}
	} else if prev != sum {
		t.Fail("serve %s key %.12s: %s body differs from the first body for the key", r.Kind, r.Key, r.Cache)
	}
}

// newClient returns one connection's HTTP client.
func newClient() *http.Client {
	return &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
	}
}

// do sends one request and reads the whole body.
func do(c *http.Client, base string, r reqSpec, reqID string) *reqResult {
	out := &reqResult{Kind: r.Kind}
	req, err := http.NewRequest(http.MethodPost, base+r.Path, bytes.NewReader(r.Body))
	if err != nil {
		out.Err = err
		return out
	}
	req.Header.Set("Content-Type", "application/json")
	if reqID != "" {
		req.Header.Set("X-Request-ID", reqID)
	}
	out.Sent = time.Now()
	resp, err := c.Do(req)
	if err != nil {
		out.Err, out.End = err, time.Now()
		return out
	}
	out.Body, out.Err = io.ReadAll(resp.Body)
	out.End = time.Now()
	resp.Body.Close()
	out.Status = resp.StatusCode
	out.Cache = resp.Header.Get("X-Cache")
	out.Key = resp.Header.Get("X-Cache-Key")
	return out
}

// prime requests every repeat-pool entry once and returns the digest
// of their bodies in key order.
func prime(s *server, pool []reqSpec, log *bodyLog, t *Tally) string {
	c := newClient()
	bodies := map[string][]byte{}
	for _, r := range pool {
		res := do(c, s.base, r, "")
		log.check(res, t)
		bodies[res.Key] = res.Body
	}
	parts := make([][]byte, 0, len(bodies))
	for _, k := range sortedKeys(bodies) {
		parts = append(parts, []byte(k), bodies[k])
	}
	return digest(parts...)
}

// serveWindow is one server's measured window.
type serveWindow struct {
	results    []*reqResult
	before     map[string]float64
	after      map[string]float64
	cpu        time.Duration
	rss        float64
	primeSum   string // digest of the seed's primed pool bodies
	goldenSeed int64  // the seed goldenSum is checked as
	goldenSum  string
}

// serveBlock is how many consecutive requests one latency block holds:
// enough that a block's p99 leaves ten samples beyond it.
const serveBlock = 1000

// blockLatency splits latencies (in stream order) into whole blocks
// and returns the median over blocks of each block's p50 and tail, the
// tail's percentile and the block size. A collection or a host stall
// inflates one block's tail, not the run's. Fewer samples than one
// block form a single block.
func blockLatency(lat []float64) (p50, tl, pct float64, n int) {
	size := min(serveBlock, len(lat))
	var p50s, tails []float64
	for lo := 0; lo+size <= len(lat) && size > 0; lo += size {
		block := append([]float64(nil), lat[lo:lo+size]...)
		var t float64
		pct, t, n = tail(block)
		p50s = append(p50s, quantile(block, 0.5))
		tails = append(tails, t)
	}
	return median(p50s), median(tails), pct, n
}

// cpuMs returns every request's server CPU time in ms, in stream order.
func (w *serveWindow) cpuMs() []float64 {
	out := make([]float64, len(w.results))
	for i, r := range w.results {
		out[i] = float64(r.CPU) / 1e6
	}
	return out
}

// wallMs returns every request's send-to-last-byte time in ms.
func (w *serveWindow) wallMs() []float64 {
	out := make([]float64, len(w.results))
	for i, r := range w.results {
		out[i] = float64(r.End.Sub(r.Sent)) / 1e6
	}
	return out
}

func (w *serveWindow) delta(series string) float64 { return w.after[series] - w.before[series] }

// moduleTicksPerS is simulated module-ticks computed per second of
// server CPU time over the window.
func (w *serveWindow) moduleTicksPerS() float64 {
	return serveModules * w.delta("tegserve_ticks_total") / w.cpu.Seconds()
}

// measure primes a running server, plays the stream for d and scrapes
// the server's counters around the window. An untraced window of a
// seed with no recorded digest first primes the reference seed's pool
// as well, for the golden check.
func measure(s *server, cfg Config, d time.Duration, rec *Recorder, log *bodyLog, t *Tally) (*serveWindow, error) {
	w := &serveWindow{goldenSeed: cfg.Golden.Target("serve", cfg.Seed)}
	if rec == nil && w.goldenSeed != cfg.Seed {
		w.goldenSum = prime(s, newServeMix(w.goldenSeed).pool, log, t)
	}
	mix := newServeMix(cfg.Seed)
	w.primeSum = prime(s, mix.pool, log, t)
	if w.goldenSeed == cfg.Seed {
		w.goldenSum = w.primeSum
	}
	c := newClient()
	var err error
	if w.before, err = s.scrape(c); err != nil {
		return nil, err
	}
	cpu0, err := procCPU(s.pid())
	if err != nil {
		return nil, err
	}
	if w.results, err = play(s, mix, d, rec, cfg.Seed); err != nil {
		return nil, err
	}
	cpu1, err := procCPU(s.pid())
	if err != nil {
		return nil, err
	}
	w.cpu = cpu1 - cpu0
	if w.after, err = s.scrape(c); err != nil {
		return nil, err
	}
	if w.rss, err = vmHWMMB(strconv.Itoa(s.pid())); err != nil {
		return nil, err
	}
	for _, r := range w.results {
		log.check(r, t)
	}
	return w, nil
}

// play sends the mix's stream closed loop over one connection until d
// has elapsed and returns every request's outcome in stream order, each
// with the server CPU time from its send to the next one's. With rec
// set, requests carry IDs and each gets a span track.
func play(s *server, mix *serveMix, d time.Duration, rec *Recorder, seed int64) ([]*reqResult, error) {
	c := newClient()
	var out []*reqResult
	meter, err := newCPUMeter(s.pid())
	if err != nil {
		return nil, err
	}
	defer meter.close()
	cpu, err := meter.read()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	for len(out) == 0 || time.Since(start) < d {
		id := ""
		if rec != nil {
			id = fmt.Sprintf("perfbench-%d-%d", seed, len(out))
		}
		r := do(c, s.base, mix.next(), id)
		now, err := meter.read()
		if err != nil {
			return nil, err
		}
		r.CPU, cpu = now-cpu, now
		out = append(out, r)
	}
	if rec != nil {
		for i, r := range out {
			rec.Track(fmt.Sprintf("perfbench-%d-%d", seed, i)).Add("client.http", r.Sent, r.End)
		}
	}
	return out, nil
}

// startServers starts serveSetupReps servers one after another, each on
// a fresh store, stops all but the last (each stop must exit 0) and
// returns the last with the median start-up CPU time in seconds.
func startServers(cfg Config, tag string, t *Tally) (*server, float64, error) {
	var times []float64
	var s *server
	for i := range serveSetupReps {
		dir := filepath.Join(cfg.Out, fmt.Sprintf("store-%s-%d-%d", tag, cfg.Seed, i))
		if err := os.RemoveAll(dir); err != nil {
			return nil, 0, err
		}
		var d time.Duration
		var err error
		if s, d, err = startServer(cfg.Tegserve, dir); err != nil {
			return nil, 0, err
		}
		times = append(times, d.Seconds())
		if i < serveSetupReps-1 {
			t.Attempted++
			if err := s.stop(); err != nil {
				t.Fail("%v", err)
			}
		}
	}
	return s, median(times), nil
}

// removeStores deletes the run's store directories.
func removeStores(cfg Config) {
	dirs, _ := filepath.Glob(filepath.Join(cfg.Out, fmt.Sprintf("store-*-%d-*", cfg.Seed)))
	for _, d := range dirs {
		os.RemoveAll(d)
	}
}

// serveOnce starts servers, measures one window and stops the server.
func serveOnce(cfg Config, tag string, window time.Duration, rec *Recorder, log *bodyLog, t *Tally) (*serveWindow, float64, error) {
	s, setup, err := startServers(cfg, tag, t)
	if err != nil {
		return nil, 0, err
	}
	w, err := measure(s, cfg, window, rec, log, t)
	if err != nil {
		s.kill()
		return nil, 0, err
	}
	t.Attempted++
	if err := s.stop(); err != nil {
		t.Fail("%v", err)
	}
	return w, setup, nil
}

func runServe(cfg Config) (Outcome, error) {
	if _, err := os.Stat(cfg.Tegserve); err != nil {
		return Outcome{}, fmt.Errorf("tegserve binary: %w", err)
	}
	if err := pinToOneCPU(); err != nil {
		return Outcome{}, fmt.Errorf("pin to one CPU: %w", err)
	}
	defer removeStores(cfg)
	var t Tally
	log := newBodyLog()
	if cfg.Record {
		s, _, err := startServers(cfg, "record", &t)
		if err != nil {
			return Outcome{}, err
		}
		sum := prime(s, newServeMix(cfg.Seed).pool, log, &t)
		if err := s.stop(); err != nil {
			return Outcome{}, err
		}
		cfg.Golden.Check("serve", cfg.Seed, sum, true, &t)
		return Outcome{Tally: t}, nil
	}
	window := secs(cfg.Seconds)
	if cfg.Trace {
		window /= 2
	}
	plain, setup, err := serveOnce(cfg, "plain", window, nil, log, &t)
	if err != nil {
		return Outcome{}, err
	}
	cfg.Golden.Check("serve", plain.goldenSeed, plain.goldenSum, false, &t)
	if !cfg.Trace {
		p50, tl, pct, n := blockLatency(plain.cpuMs())
		noteTail("serve (server CPU per request, per block, median over blocks)", pct, n)
		m := Metrics{}
		m.set("setup_s", setup, "s")
		m.set("max_rss_mb", plain.rss, "MB")
		m.set("success_rate", successRate(t), "ratio")
		m.set("module_ticks_per_s", plain.moduleTicksPerS(), "1/s")
		m.set("op_p50_ms", p50, "ms")
		m.set("op_tail_ms", tl, "ms")
		return Outcome{Metrics: m, Tally: t}, nil
	}

	// Traced half: a second server on a fresh store, with request IDs
	// and client spans; the bodies must match the untraced half's key
	// for key (the shared body log enforces it).
	rec := NewRecorder()
	traced, _, err := serveOnce(cfg, "traced", window, rec, log, &t)
	if err != nil {
		return Outcome{}, err
	}
	if traced.primeSum != plain.primeSum {
		t.Fail("serve: traced primed bodies differ from untraced")
	}
	if err := rec.WriteFile(spanFile(cfg.Out, "serve", cfg.Seed)); err != nil {
		return Outcome{}, err
	}
	m := zeroLayers()
	var hits, cacheable int
	var clientNs int64
	for _, r := range traced.results {
		switch r.Cache {
		case "hit":
			hits++
			cacheable++
		case "miss", "coalesced":
			cacheable++
		}
		clientNs += int64(r.End.Sub(r.Sent))
	}
	if cacheable > 0 {
		m.set("serve.cache.hit_ratio", float64(hits)/float64(cacheable), "ratio")
	}
	if h := traced.delta("tegserve_cache_hits_total"); h > 0 {
		m.set("serve.cache.disk_hit_share", traced.delta("tegserve_cache_disk_hits_total")/h, "ratio")
	}
	var serverS, serverN float64
	for route, name := range map[string]string{"runs": "POST /v1/runs", "sweeps": "POST /v1/sweeps", "matrix": "POST /v1/matrix"} {
		series := fmt.Sprintf(`{route=%q,status="200"}`, name)
		sum, n := traced.delta("http_request_seconds_sum"+series), traced.delta("http_request_seconds_count"+series)
		serverS += sum
		serverN += n
		if n > 0 {
			m.set("serve.server_ms."+route, sum/n*1e3, "ms")
		}
	}
	if serverN > 0 {
		m.set("serve.transport_ms", (float64(clientNs)/1e6-serverS*1e3)/serverN, "ms")
	}
	if n := traced.delta("job_seconds_count"); n > 0 {
		m.set("serve.job_ms", traced.delta("job_seconds_sum")/n*1e3, "ms")
	}
	var phaseTotal float64
	phases := []string{"temps", "sense", "decide", "act"}
	for _, p := range phases {
		phaseTotal += traced.delta(fmt.Sprintf(`tegserve_phase_seconds_total{phase=%q}`, p))
	}
	if phaseTotal > 0 {
		for _, p := range phases {
			m.set("serve.phase_share."+p, traced.delta(fmt.Sprintf(`tegserve_phase_seconds_total{phase=%q}`, p))/phaseTotal, "ratio")
		}
	}
	m.set("store.puts", traced.delta("tegserve_store_puts_total"), "count")
	getUs, putUs, err := replayStore(filepath.Join(cfg.Out, fmt.Sprintf("store-replay-%d-0", cfg.Seed)), log.runs)
	if err != nil {
		return Outcome{}, err
	}
	m.set("store.get_us", getUs, "us")
	m.set("store.put_us", putUs, "us")
	encUs, err := replayEncode(log.runs, &t)
	if err != nil {
		return Outcome{}, err
	}
	m.set("report.encode_us", encUs, "us")
	wall := append(plain.wallMs(), traced.wallMs()...)
	m.set("client.wall_ms_p50", median(wall), "ms")
	_, wallTail, _ := tail(wall)
	m.set("client.wall_ms_p99", wallTail, "ms")
	p0, _, _, _ := blockLatency(plain.cpuMs())
	p1, _, _, _ := blockLatency(traced.cpuMs())
	m.set("trace.overhead_frac", (p1-p0)/p0, "ratio")
	return Outcome{Metrics: m, Tally: t}, nil
}

// replayStore puts every recorded run payload into a fresh store and
// reads each back, returning mean µs per Put and per Get.
func replayStore(dir string, payloads map[string][]byte) (getUs, putUs float64, err error) {
	if err := os.RemoveAll(dir); err != nil {
		return 0, 0, err
	}
	st, err := store.Open(dir, 1<<30)
	if err != nil {
		return 0, 0, err
	}
	keys := sortedKeys(payloads)
	t0 := time.Now()
	for _, k := range keys {
		if err := st.Put(k, payloads[k]); err != nil {
			return 0, 0, fmt.Errorf("store replay put: %w", err)
		}
	}
	put := time.Since(t0)
	t0 = time.Now()
	for _, k := range keys {
		b, ok := st.Get(k)
		if !ok || !bytes.Equal(b, payloads[k]) {
			return 0, 0, fmt.Errorf("store replay: key %.12s did not read back", k)
		}
	}
	get := time.Since(t0)
	n := float64(len(keys))
	return float64(get) / n / 1e3, float64(put) / n / 1e3, nil
}

// replayEncode decodes every recorded run payload and re-encodes it,
// requiring the original bytes back; it returns mean µs per encode.
func replayEncode(payloads map[string][]byte, t *Tally) (float64, error) {
	var enc time.Duration
	keys := sortedKeys(payloads)
	for _, k := range keys {
		res, err := report.UnmarshalResult(payloads[k])
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		b, err := report.MarshalResult(res)
		enc += time.Since(t0)
		if err != nil {
			return 0, err
		}
		if !bytes.Equal(b, payloads[k]) {
			t.Fail("serve key %.12s: payload does not re-encode to its own bytes", k)
		}
	}
	return float64(enc) / float64(len(keys)) / 1e3, nil
}

// pinToOneCPU restricts every thread of this process to the first CPU
// it may run on and sets GOMAXPROCS to 1. Threads and processes started
// afterwards inherit the mask, so each tegserve runs on that CPU too,
// and its runtime sizes GOMAXPROCS to 1 from it.
func pinToOneCPU() error {
	var mask, one [16]uint64 // 1024 CPUs
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); e != 0 {
		return e
	}
	for i, w := range mask {
		if w != 0 {
			one[i] = w & -w
			break
		}
	}
	runtime.GOMAXPROCS(1)
	// A thread not yet pinned may start another while the list is
	// walked, so walk it until no new thread shows up.
	pinned := map[string]bool{}
	for {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return err
		}
		added := false
		for _, task := range tasks {
			if pinned[task.Name()] {
				continue
			}
			tid, err := strconv.Atoi(task.Name())
			if err != nil {
				return err
			}
			_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(one), uintptr(unsafe.Pointer(&one)))
			if e != 0 && e != syscall.ESRCH {
				return e
			}
			pinned[task.Name()], added = true, true
		}
		if !added {
			return nil
		}
	}
}
