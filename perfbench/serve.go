package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"slices"
	"time"

	"asap/internal/core"
	"asap/internal/experiments"
	"asap/internal/overlay"
	"asap/internal/serve"
	"asap/internal/sim"
	"asap/internal/trace"
	"asap/internal/transport"
)

// The serve workload's fixed work. readsPerApply is sized so the applies
// are about a quarter of phase (a); openRate is about a quarter of the
// in-process closed-loop throughput, so the open-loop phase measures
// response time well below saturation.
const (
	serveFactor    = 0.3
	serveRefresh   = 90
	serveScheme    = "asap-rw"
	warmShare      = 2.0 / 3.0
	readsPerApply  = 48
	closedReads    = 60_000
	openRate       = 5_000.0
	openReads      = 15_000
	binReads       = 30_000
	splitReads     = 20_000
	closedBlocks   = 15
	openBlocks     = 15
	serveZipfS     = 1.0
	streamMixed    = 0x6d69786564 // per-phase salts of the read-schedule seed
	streamClosed   = 0x636c6f736564
	streamOpenLoop = 0x6f70656e
)

// serveLabSeed seeds the serving node's lab. The node is the server under
// test, the same for every run; the workload seed generates its traffic
// (the read schedules). Seeding the lab too would make each run serve a
// differently shaped warm state, and the spread between those states (up
// to 1.5x in closed-loop throughput) would swamp every change a run is
// meant to detect.
const serveLabSeed = 1

// serveScale is ScaleFull reduced by serveFactor the way ScaleSmall is
// reduced by 0.1, but on the full physical network: 3,000 peers whose
// warm state outgrows a shared L3 cache.
func serveScale() experiments.Scale {
	s := experiments.ScaleFull()
	s.Name = "serve"
	s.Content = s.Content.Scaled(serveFactor)
	s.Trace = s.Trace.Scaled(serveFactor)
	s.Factor = serveFactor
	s.RefreshPeriodSec = serveRefresh
	s.Seed = serveLabSeed
	return s
}

// readSchedules returns the per-phase read schedules: Zipf-popular
// catalog entries and, for the open loop, Poisson arrival offsets. They
// are a pure function of the seed and the catalog size.
func readSchedules(seed uint64, catalog, mixed int) (mix, closed, open []serve.Arrival) {
	cfg := func(salt uint64, rate float64, n int) serve.LoadConfig {
		return serve.LoadConfig{Rate: rate, Count: n, Seed: seed ^ salt, ZipfS: serveZipfS}
	}
	mix = serve.BuildSchedule(catalog, cfg(streamMixed, 1, mixed))
	closed = serve.BuildSchedule(catalog, cfg(streamClosed, 1, closedReads))
	open = serve.BuildSchedule(catalog, cfg(streamOpenLoop, openRate, openReads))
	return mix, closed, open
}

// warmNode replays the first warmShare of the trace through the Stepper
// (queries included, so the ad caches hold a realistic working set) and
// wraps the warm scheme in a serving node. It returns the node and the
// trace suffix left for phase (a).
func warmNode(lab *experiments.Lab, t *tracer) (*serve.Node, []trace.Event, error) {
	s := t.begin("serve.warm")
	defer t.end(s)
	raw, err := lab.NewScheme(serveScheme)
	if err != nil {
		return nil, nil, err
	}
	sch := raw.(*core.Scheme)
	evs := lab.Tr.Events
	cutAt := int64(float64(lab.Tr.Span()) * warmShare)
	cut, _ := slices.BinarySearchFunc(evs, cutAt, func(e trace.Event, at int64) int {
		return int(min(max(e.Time-at, -1), 1))
	})
	// The system is sized for the whole trace (its load horizon), but the
	// Stepper only sees the prefix; the suffix is applied live.
	sys := sim.NewSystem(lab.U, lab.Tr, overlay.Random, lab.Net, lab.Scale.Seed)
	prefix := *lab.Tr
	prefix.Events = evs[:cut]
	sys.Tr = &prefix
	st := sim.NewStepper(sys, sch, 0)
	for batch := st.NextBatch(); batch != nil; batch = st.NextBatch() {
		for _, ev := range batch {
			st.Record(ev, sch.Search(ev))
		}
	}
	n := serve.NewNode(sys, sch, serve.Config{Workers: 1, MaxQueue: 1})
	last := int64(0)
	if cut > 0 {
		last = evs[cut-1].Time
	}
	n.Apply(last, nil)
	return n, evs[cut:], nil
}

// encodeAnswer appends the canonical form of one served answer: the
// catalog entry asked, the epoch it was read under, whether phase 2 ran,
// and the verified sources in order.
func encodeAnswer(b []byte, entry int32, epoch uint64, phase2 bool, src []overlay.NodeID) []byte {
	b = binary.AppendUvarint(b, uint64(entry))
	b = binary.AppendUvarint(b, epoch)
	if phase2 {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = binary.AppendUvarint(b, uint64(len(src)))
	for _, id := range src {
		b = binary.AppendUvarint(b, uint64(id))
	}
	return b
}

// answerLog hashes the served answer stream.
type answerLog struct {
	h    hash.Hash
	buf  []byte
	hits int64
}

// add folds one answer into the stream and returns its encoding (valid
// until the next call).
func (a *answerLog) add(entry int32, epoch uint64, phase2 bool, src []overlay.NodeID) []byte {
	a.buf = encodeAnswer(a.buf[:0], entry, epoch, phase2, src)
	a.h.Write(a.buf)
	if len(src) > 0 {
		a.hits++
	}
	return a.buf
}

// runServe is one pass of the serve workload: warm a node and run the
// mixed phase, both serveReps times, then the closed-loop, open-loop and
// binary-protocol phases on the last node, each driven from one client
// goroutine.
func runServe(seed uint64, t *tracer) (*passOut, error) {
	p := &passOut{e2e: map[string]float64{}, layers: map[string]float64{}}

	lab, labS, err := minLab(serveScale(), t)
	if err != nil {
		return nil, err
	}

	var (
		node              *serve.Node
		catalog           []serve.CatalogEntry
		mix, closed, open []serve.Arrival
		served, failed    int64
		req               int64
		dst               []overlay.NodeID
		warmS             = math.Inf(1)
		mixDigest         string
	)
	// read serves one catalog entry in process, folds the answer into log
	// and returns its encoding, or nil when the node refused the request.
	read := func(log *answerLog, e int32, d *durations) []byte {
		req++
		q := &catalog[e]
		a := t.now()
		res, out, epoch, err := node.Search(q.From, q.Terms, dst[:0])
		b := t.now()
		dst = out
		t.leaf("serve.search", a, b, req)
		if d != nil {
			d.add(b - a)
		}
		if err != nil {
			failed++
			return nil
		}
		served++
		return log.add(e, epoch, res.Phase2, out)
	}

	// groupNS[r][g] is the wall time of write section g of phase (a) and
	// the reads after it, in repetition r. replay_s sums, over the groups,
	// each group's faster repetition: a host stall of a few milliseconds
	// lands in one group of one repetition and is dropped, where the
	// faster of two whole phases would keep every stall of that phase.
	var groupNS [serveReps][]int64
	_, err = repeatMin(t, "serve.rep", serveReps, func(r int) (float64, error) {
		node = nil // let the previous node be collected before the next warm-up
		var suffix []trace.Event
		w, err := timed(t, func() error {
			var err error
			node, suffix, err = warmNode(lab, t)
			return err
		})
		if err != nil {
			return 0, err
		}
		warmS = min(warmS, w)
		if r == 0 {
			catalog = serve.BuildCatalog(lab.Tr, node.System().G.Alive)
			if len(catalog) == 0 {
				return 0, fmt.Errorf("serve: empty query catalog")
			}
			mix, closed, open = readSchedules(seed, len(catalog), applyCount(node, suffix)*readsPerApply)
		}

		// (a) mixed: the suffix's state events and ticks go through the
		// write section, readsPerApply reads after each.
		log := &answerLog{h: sha256.New()}
		next := 0
		burst := func() {
			for k := 0; k < readsPerApply; k++ {
				read(log, mix[next].Entry, nil)
				next++
			}
		}
		dt, err := timed(t, func() error {
			s := t.begin("serve.mixed")
			defer t.end(s)
			groups := groupNS[r][:0]
			g0 := t.now()
			endGroup := func() {
				g1 := t.now()
				groups = append(groups, g1-g0)
				g0 = g1
			}
			tick := firstTick(node)
			for i := range suffix {
				ev := &suffix[i]
				for ; tick <= ev.Time; tick += 1000 {
					a := t.begin("serve.tick")
					node.Tick(tick)
					t.end(a)
					burst()
					endGroup()
				}
				if ev.Kind == trace.Query {
					continue // the reads stand in for the suffix's queries
				}
				a := t.begin("serve.apply")
				node.ApplyEvent(ev)
				t.end(a)
				burst()
				endGroup()
			}
			groupNS[r] = groups
			if d := hexSum(log.h); r == 0 {
				mixDigest = d
			} else if d != mixDigest {
				p.fail("serve: repeated mixed phase gave different answers")
			}
			return nil
		})
		if r == 0 {
			p.firstReplayS = dt
		}
		return dt, err
	})
	if err != nil {
		return nil, err
	}
	var mixedNS int64
	for g := range groupNS[0] {
		best := groupNS[0][g]
		for r := 1; r < serveReps; r++ {
			best = min(best, groupNS[r][g])
		}
		mixedNS += best
	}
	mixedS := float64(mixedNS) / 1e9

	// (b) closed loop, in process, in closedBlocks equal blocks: the
	// throughput is taken from the median block, so a burst of host noise
	// inside one block does not move it. Each answer's encoding is kept for
	// the binary-protocol phase to match.
	log := &answerLog{h: sha256.New()}
	log.h.Write([]byte(mixDigest))
	var closedD durations
	closedAns := make([][]byte, binReads)
	blocks := make([]float64, 0, closedBlocks)
	settle(t)
	s := t.begin("serve.closed")
	per := len(closed) / closedBlocks
	for b := 0; b < closedBlocks; b++ {
		t0 := time.Now()
		for i := b * per; i < (b+1)*per; i++ {
			if ans := read(log, closed[i].Entry, &closedD); i < binReads && ans != nil {
				closedAns[i] = append([]byte(nil), ans...)
			}
		}
		blocks = append(blocks, time.Since(t0).Seconds())
	}
	t.end(s)
	hitRate := float64(log.hits) / float64(len(closed))

	// The read-only core without admission, gate and stats, paired query
	// by query with the full Node.Search (alternating which goes first so
	// neither always meets warm caches): the traced run's split of
	// serve.search_us into core.search_ro_us and serve.admit_us.
	if t.on {
		s = t.begin("serve.split")
		var ro, full durations
		sc := core.NewServeScratch()
		var rdst []overlay.NodeID
		now := node.Now()
		for i := range closed[:splitReads] {
			q := &catalog[closed[i].Entry]
			for k := 0; k < 2; k++ {
				a := t.now()
				if (i+k)%2 == 0 {
					_, rdst = node.Scheme().SearchRO(q.From, q.Terms, now, sc, rdst[:0])
					ro.add(t.now() - a)
				} else {
					_, dst, _, _ = node.Search(q.From, q.Terms, dst[:0])
					full.add(t.now() - a)
				}
			}
		}
		t.end(s)
		p.layers["core.search_ro_us"] = ro.meanUS()
		p.layers["serve.admit_us"] = full.meanUS() - ro.meanUS()
	}

	// (c) open loop: one goroutine spin-waits to each scheduled arrival and
	// times the request from when it was due, so a stall is charged to
	// every request queued behind it.
	var resp, late durations
	settle(t)
	s = t.begin("serve.open")
	start := time.Now()
	for i := range open {
		due := start.Add(time.Duration(open[i].AtNS))
		for time.Now().Before(due) {
		}
		fired := time.Now()
		read(log, open[i].Entry, nil)
		done := time.Now()
		resp.add(int64(done.Sub(due)))
		late.add(int64(fired.Sub(due)))
	}
	t.end(s)

	// (d) phase (b)'s first binReads queries over the binary protocol on
	// one loopback TCP connection.
	settle(t)
	s = t.begin("serve.bin")
	bin, err := binPhase(node, catalog, closed[:binReads], closedAns, t)
	t.end(s)
	if err != nil {
		return nil, err
	}
	if bin.mismatches > 0 {
		p.fail("serve: %d binary-protocol answers differ from the in-process ones", bin.mismatches)
	}
	failed += bin.failed
	served += int64(binReads) - bin.failed

	p.digest = hexSum(log.h)
	p.attempted = served + failed
	p.failed = failed
	// The open loop's median is the median over openBlocks consecutive
	// blocks of each block's median: a stall of the host delays a
	// contiguous run of requests, so it moves a few blocks, not the median
	// block. The tail percentiles below keep every request.
	openPer := len(resp.ns) / openBlocks
	blockP50 := make([]float64, 0, openBlocks)
	for b := 0; b < openBlocks; b++ {
		blk := durations{ns: resp.ns[b*openPer : (b+1)*openPer]}
		m, _ := blk.quantile(0.5)
		blockP50 = append(blockP50, float64(m))
	}
	p50 := median(blockP50)
	p.e2e["setup_s"] = labS + warmS
	p.e2e["replay_s"] = mixedS
	p.e2e["search_qps"] = float64(per) / median(blocks)
	p.e2e["search_p50_us"] = p50 / 1e3
	p.e2e["heap_mb"] = liveHeapMB(t)

	p99, n99 := resp.quantile(0.99)
	p999, n999 := resp.quantile(0.999)
	lateP50, _ := late.quantile(0.5)
	p.layers["serve.search_us"] = closedD.meanUS()
	p.layers["serve.lateness_us"] = float64(lateP50) / 1e3
	p.layers["serve.p99_us"] = float64(p99) / 1e3
	p.layers["serve.p99_n"] = float64(n99)
	p.layers["serve.p999_us"] = float64(p999) / 1e3
	p.layers["serve.p999_n"] = float64(n999)
	p.layers["serve.hit_rate"] = hitRate
	p.layers["serve.served"] = float64(served)
	p.layers["serve.shed"] = float64(node.Stats().Shed())
	p.layers["serve.failed"] = float64(failed)
	p.layers["transport.bin_qps"] = float64(binReads) / bin.seconds
	if t.on {
		p.layers["transport.codec_us"] = bin.codec.meanUS()
		p.layers["transport.share"] = 1 - closedD.meanUS()/bin.rtt.meanUS()
	}
	fmt.Printf("serve seed=%d setup=%.3fs mixed=%.3fs qps=%.0f p50=%.2fus lateness=%.2fus bin_qps=%.0f heap=%.1fMB\n",
		seed, labS+warmS, mixedS, p.e2e["search_qps"], p.e2e["search_p50_us"], float64(lateP50)/1e3,
		p.layers["transport.bin_qps"], p.e2e["heap_mb"])
	return p, nil
}

// firstTick is the first tick boundary after the node's clock.
func firstTick(n *serve.Node) int64 { return (n.Now()/1000 + 1) * 1000 }

// applyCount is the number of write sections phase (a) runs: one per tick
// boundary and one per non-query event of the suffix.
func applyCount(n *serve.Node, suffix []trace.Event) int {
	applies := 0
	for i, tick := 0, firstTick(n); i < len(suffix); i++ {
		for ; tick <= suffix[i].Time; tick += 1000 {
			applies++
		}
		if suffix[i].Kind != trace.Query {
			applies++
		}
	}
	return applies
}

// binResult is what the binary-protocol phase measured.
type binResult struct {
	seconds    float64
	mismatches int
	failed     int64
	rtt, codec durations
}

// binPhase serves the given queries over a loopback TCP connection to a
// serve.BinaryServer on node, one request at a time, and compares each
// reply with the in-process answer want[i].
func binPhase(node *serve.Node, catalog []serve.CatalogEntry, qs []serve.Arrival, want [][]byte, t *tracer) (*binResult, error) {
	ln, err := transport.TCP{}.Listen("127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	srv := serve.NewBinary(node, ln)
	done := make(chan error, 1)
	go func() { done <- srv.Serve() }()
	defer func() {
		srv.Close()
		<-done
	}()
	conn, err := transport.TCP{}.Dial(srv.Addr())
	if err != nil {
		return nil, fmt.Errorf("dialing the binary endpoint: %w", err)
	}
	defer conn.Close()

	res := &binResult{}
	var (
		q    transport.ServeQuery
		buf  []byte
		ans  []byte
		srcs []overlay.NodeID
	)
	t0 := time.Now()
	for i := range qs {
		e := qs[i].Entry
		c0 := t.now()
		q.From = uint32(catalog[e].From)
		q.Terms = q.Terms[:0]
		for _, kw := range catalog[e].Terms {
			q.Terms = append(q.Terms, uint32(kw))
		}
		buf = q.Encode(buf[:0])
		c1 := t.now()
		if err := conn.WriteFrame(transport.MServeQuery, buf); err != nil {
			return nil, fmt.Errorf("writing query %d: %w", i, err)
		}
		typ, payload, err := conn.ReadFrame()
		if err != nil {
			return nil, fmt.Errorf("reading reply %d: %w", i, err)
		}
		c2 := t.now()
		t.leaf("transport.rtt", c1, c2, int64(i))
		if typ != transport.MServeOK {
			res.failed++
			continue
		}
		r, err := transport.DecodeServeReply(payload)
		c3 := t.now()
		if t.on {
			res.rtt.add(c2 - c1)
			res.codec.add(c1 - c0 + c3 - c2)
		}
		if err != nil {
			return nil, fmt.Errorf("decoding reply %d: %w", i, err)
		}
		srcs = srcs[:0]
		for _, id := range r.Sources {
			srcs = append(srcs, overlay.NodeID(id))
		}
		ans = encodeAnswer(ans[:0], e, r.Epoch, r.Phase2, srcs)
		if !bytes.Equal(ans, want[i]) {
			res.mismatches++
		}
	}
	res.seconds = time.Since(t0).Seconds()
	if err := conn.WriteFrame(transport.MServeBye, nil); err != nil {
		return nil, fmt.Errorf("closing the session: %w", err)
	}
	if typ, _, err := conn.ReadFrame(); err != nil || typ != transport.MServeByeOK {
		return nil, fmt.Errorf("closing the session: reply %v, %v", typ, err)
	}
	return res, nil
}
