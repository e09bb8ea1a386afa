package core

import (
	"bytes"
	"io"
	"reflect"
	"testing"
	"time"

	"repro/internal/attr"
	"repro/internal/cluster"
	"repro/internal/epoch"
	"repro/internal/metric"
	"repro/internal/session"
	"repro/internal/synth"
	"repro/internal/testutil"
	"repro/internal/trace"
)

func smallGen(t *testing.T, epochs int, perEpoch int) *synth.Generator {
	t.Helper()
	cfg := synth.DefaultConfig()
	cfg.Trace = epoch.Range{Start: 0, End: epoch.Index(epochs)}
	cfg.SessionsPerEpoch = perEpoch
	cfg.Events.Trace = cfg.Trace
	g, err := synth.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestAnalyzeEpochBasics(t *testing.T) {
	var lites []cluster.Lite
	for i := 0; i < 100; i++ {
		var l cluster.Lite
		l.Attrs[attr.CDN] = 1
		if i < 60 {
			l.Bits |= 1 << metric.BufRatio
			l.Attrs[attr.CDN] = 0
		}
		lites = append(lites, l)
	}
	cfg := DefaultConfig(100)
	cfg.Thresholds.MinClusterSessions = 20
	res, err := AnalyzeEpoch(5, lites, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Epoch != 5 {
		t.Errorf("Epoch = %d", res.Epoch)
	}
	ms := &res.Metrics[metric.BufRatio]
	if ms.GlobalSessions != 100 || ms.GlobalProblems != 60 {
		t.Errorf("globals = %d/%d", ms.GlobalSessions, ms.GlobalProblems)
	}
	if ms.NumProblemClusters == 0 || len(ms.Critical) == 0 {
		t.Errorf("no clusters detected: %d problem, %d critical", ms.NumProblemClusters, len(ms.Critical))
	}
	if len(ms.ProblemKeys) != ms.NumProblemClusters {
		t.Errorf("problem keys %d != count %d", len(ms.ProblemKeys), ms.NumProblemClusters)
	}
	if ms.CriticalCoverage() <= 0 || ms.CriticalCoverage() > 1 {
		t.Errorf("coverage = %v", ms.CriticalCoverage())
	}

	bad := cfg
	bad.Thresholds.ProblemRatioFactor = 0.5
	if _, err := AnalyzeEpoch(0, lites, bad); err == nil {
		t.Error("invalid thresholds accepted")
	}
}

func TestAnalyzeGeneratorParallelDeterminism(t *testing.T) {
	g := smallGen(t, 12, 800)
	cfg := DefaultConfig(800)
	cfg.Workers = 4
	a, err := AnalyzeGenerator(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 1
	b, err := AnalyzeGenerator(smallGen(t, 12, 800), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Epochs) != 12 || len(b.Epochs) != 12 {
		t.Fatalf("epoch counts: %d, %d", len(a.Epochs), len(b.Epochs))
	}
	for i := range a.Epochs {
		for _, m := range metric.All() {
			am, bm := &a.Epochs[i].Metrics[m], &b.Epochs[i].Metrics[m]
			if am.GlobalProblems != bm.GlobalProblems ||
				am.NumProblemClusters != bm.NumProblemClusters ||
				len(am.Critical) != len(bm.Critical) {
				t.Fatalf("epoch %d metric %v differs between worker counts", i, m)
			}
			for j := range am.Critical {
				if am.Critical[j].Key != bm.Critical[j].Key {
					t.Fatalf("epoch %d metric %v critical order differs", i, m)
				}
			}
		}
	}
}

func TestTraceResultAtAndSlice(t *testing.T) {
	g := smallGen(t, 6, 300)
	tr, err := AnalyzeGenerator(g, DefaultConfig(300))
	if err != nil {
		t.Fatal(err)
	}
	if tr.At(3) == nil || tr.At(3).Epoch != 3 {
		t.Error("At(3) wrong")
	}
	if tr.At(-1) != nil || tr.At(6) != nil {
		t.Error("At outside range should be nil")
	}
	sl := tr.Slice(epoch.Range{Start: 2, End: 5})
	if sl.Trace.Len() != 3 || sl.At(2) == nil || sl.At(5) != nil {
		t.Error("Slice wrong")
	}
	// Clamping.
	sl = tr.Slice(epoch.Range{Start: -5, End: 99})
	if sl.Trace != tr.Trace {
		t.Error("Slice should clamp to trace")
	}
}

// writeTrace encodes sessions as an uncompressed trace container.
func writeTrace(t *testing.T, g *synth.Generator, epochs int, sessions []session.Session) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf, trace.HeaderFor(g.World().Space(), epochs, 1), false)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteAll(sessions); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return &buf
}

// generatedSessions returns every session of g in epoch order.
func generatedSessions(t *testing.T, g *synth.Generator) []session.Session {
	t.Helper()
	var all []session.Session
	if err := g.ForEach(func(s *session.Session) error {
		all = append(all, *s)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return all
}

// analyzeBuffer runs AnalyzeTrace over an encoded trace.
func analyzeBuffer(t *testing.T, buf *bytes.Buffer, cfg Config) (*TraceResult, error) {
	t.Helper()
	r, err := trace.NewReader(buf)
	if err != nil {
		t.Fatal(err)
	}
	return AnalyzeTrace(r, cfg)
}

// TestAnalyzeTraceMatchesGenerator pins AnalyzeTrace's read/analysis
// hand-off to the epoch-parallel generator path: every epoch result must be
// identical, in order, whether the epochs are analysed serially or sharded.
// Every epoch holds enough sessions to take the sharded path at Workers 4,
// and there are enough epochs that reading overlaps analysis.
func TestAnalyzeTraceMatchesGenerator(t *testing.T) {
	defer testutil.CheckGoroutineLeaks(t)()
	const epochs, perEpoch = 4, minShardedSessions
	gcfg := synth.DefaultConfig()
	gcfg.Trace = epoch.Range{Start: 0, End: epochs}
	gcfg.SessionsPerEpoch = perEpoch
	gcfg.DiurnalAmplitude = 0 // every epoch at perEpoch sessions
	gcfg.Events.Trace = gcfg.Trace
	g, err := synth.New(gcfg)
	if err != nil {
		t.Fatal(err)
	}
	sessions := generatedSessions(t, g)
	for _, workers := range []int{1, 4} {
		cfg := DefaultConfig(perEpoch)
		cfg.Workers = workers
		direct, err := AnalyzeGenerator(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		fromFile, err := analyzeBuffer(t, writeTrace(t, g, epochs, sessions), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if fromFile.Trace != direct.Trace || len(fromFile.Epochs) != epochs {
			t.Fatalf("workers %d: trace %+v with %d epochs, want %+v with %d",
				workers, fromFile.Trace, len(fromFile.Epochs), direct.Trace, epochs)
		}
		for i := range direct.Epochs {
			if !reflect.DeepEqual(fromFile.Epochs[i], direct.Epochs[i]) {
				t.Fatalf("workers %d: epoch %d differs between trace and generator analysis", workers, i)
			}
		}
		fromFile.Pipeline = HandOffStats{}
		if !reflect.DeepEqual(fromFile, direct) {
			t.Fatalf("workers %d: trace result differs from generator result outside its epochs", workers)
		}
	}
}

func TestAnalyzeTraceErrors(t *testing.T) {
	defer testutil.CheckGoroutineLeaks(t)()
	g := smallGen(t, 1, 100)

	// Empty trace.
	if _, err := analyzeBuffer(t, writeTrace(t, g, 0, nil), DefaultConfig(100)); err == nil {
		t.Error("empty trace accepted")
	}

	// Out-of-order epochs.
	s1 := session.Session{ID: 1, Epoch: 1, EventIDs: session.NoEvents}
	s0 := session.Session{ID: 2, Epoch: 0, EventIDs: session.NoEvents}
	if _, err := analyzeBuffer(t, writeTrace(t, g, 2, []session.Session{s1, s0}), DefaultConfig(100)); err == nil {
		t.Error("out-of-order trace accepted")
	}
}

// TestAnalyzeTraceAnalysisError: when epoch analysis fails, AnalyzeTrace
// returns the analysis error and leaves no goroutine behind, however far
// the reader had got.
func TestAnalyzeTraceAnalysisError(t *testing.T) {
	defer testutil.CheckGoroutineLeaks(t)()
	const epochs, perEpoch = 6, 200
	g := smallGen(t, epochs, perEpoch)
	buf := writeTrace(t, g, epochs, generatedSessions(t, g))
	bad := DefaultConfig(perEpoch)
	bad.Thresholds.ProblemRatioFactor = 0.5
	_, want := AnalyzeEpoch(0, nil, bad)
	if want == nil {
		t.Fatal("invalid thresholds accepted by AnalyzeEpoch")
	}
	tr, err := analyzeBuffer(t, buf, bad)
	if err == nil || err.Error() != want.Error() {
		t.Fatalf("AnalyzeTrace = %v, %v; want the analysis error %q", tr, err, want)
	}
}

// slowReader parks the reading goroutine before every Read after the first
// (the one trace.NewReader spends on the header), a few KB at a time.
type slowReader struct {
	r     io.Reader
	reads int
}

func (s *slowReader) Read(p []byte) (int, error) {
	if s.reads++; s.reads > 1 {
		time.Sleep(time.Millisecond)
	}
	if len(p) > 4096 {
		p = p[:4096]
	}
	return s.r.Read(p)
}

// TestAnalyzeTraceOrderAndDrain: over many small epochs, results come back
// in epoch order and every handed-off epoch is analysed, the last included.
func TestAnalyzeTraceOrderAndDrain(t *testing.T) {
	defer testutil.CheckGoroutineLeaks(t)()
	const epochs, perEpoch = 50, 20
	g := smallGen(t, epochs, perEpoch)
	tr, err := analyzeBuffer(t, writeTrace(t, g, epochs, generatedSessions(t, g)), DefaultConfig(perEpoch))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Epochs) != epochs {
		t.Fatalf("%d epochs, want %d", len(tr.Epochs), epochs)
	}
	for i := range tr.Epochs {
		e := epoch.Index(i)
		if tr.Epochs[i].Epoch != e {
			t.Fatalf("epoch %d analysed at position %d", tr.Epochs[i].Epoch, i)
		}
		got := tr.Epochs[i].Metrics[metric.JoinFailure].GlobalSessions
		if want := len(g.EpochSessions(e)); int(got) != want {
			t.Fatalf("epoch %d: %d sessions analysed, want %d", e, got, want)
		}
	}
}

// bigFirstEpoch returns a trace whose first epoch holds perEpoch sessions
// and whose later epochs hold one session each.
func bigFirstEpoch(t *testing.T, epochs, perEpoch int) *bytes.Buffer {
	t.Helper()
	g := smallGen(t, epochs, perEpoch)
	sessions := g.EpochSessions(0)
	for e := epoch.Index(1); e < epoch.Index(epochs); e++ {
		sessions = append(sessions, g.EpochSessions(e)[0])
	}
	return writeTrace(t, g, epochs, sessions)
}

// TestAnalyzeTraceBackpressure: while a large first epoch is analysed the
// reader fills the one-slot hand-off with the next epoch and must stall on
// the one after it, which SubmitStalls counts.
func TestAnalyzeTraceBackpressure(t *testing.T) {
	defer testutil.CheckGoroutineLeaks(t)()
	const epochs, perEpoch = 5, 4000
	cfg := DefaultConfig(perEpoch)
	cfg.Workers = 1
	tr, err := analyzeBuffer(t, bigFirstEpoch(t, epochs, perEpoch), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Epochs) != epochs {
		t.Fatalf("%d epochs, want %d", len(tr.Epochs), epochs)
	}
	if tr.Pipeline.SubmitStalls == 0 {
		t.Fatalf("hand-off counters %+v: expected at least one submit stall", tr.Pipeline)
	}
}

// TestAnalyzeTraceIdleAnalyzer: a slow reader leaves the analysis goroutine
// waiting on an empty slot, which InputWaits counts.
func TestAnalyzeTraceIdleAnalyzer(t *testing.T) {
	defer testutil.CheckGoroutineLeaks(t)()
	const epochs, perEpoch = 5, 4000
	r, err := trace.NewReader(&slowReader{r: bigFirstEpoch(t, epochs, perEpoch)})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(perEpoch)
	cfg.Workers = 1
	tr, err := AnalyzeTrace(r, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Epochs) != epochs {
		t.Fatalf("%d epochs, want %d", len(tr.Epochs), epochs)
	}
	if tr.Pipeline.InputWaits == 0 {
		t.Fatalf("hand-off counters %+v: expected input waits with a slow reader", tr.Pipeline)
	}
}

// TestAnalyzeTraceEmptyDrain: a trace whose header declares epochs but that
// holds no session hands nothing off; AnalyzeTrace reports it as empty and
// the idle analysis goroutine still ends.
func TestAnalyzeTraceEmptyDrain(t *testing.T) {
	defer testutil.CheckGoroutineLeaks(t)()
	g := smallGen(t, 3, 100)
	tr, err := analyzeBuffer(t, writeTrace(t, g, 3, nil), DefaultConfig(100))
	if err == nil {
		t.Fatalf("AnalyzeTrace over a trace with no sessions = %+v, want an error", tr)
	}
}

// TestCriticalSetAndSummaryHelpers exercises the summary accessors.
func TestCriticalSetAndSummaryHelpers(t *testing.T) {
	ms := MetricSummary{GlobalProblems: 100, CoveredProblems: 40, ProblemsInProblemClusters: 60}
	ms.Critical = []CriticalSummary{{Key: attr.NewKey(map[attr.Dim]int32{attr.CDN: 1})}}
	if ms.CriticalCoverage() != 0.4 || ms.ProblemCoverage() != 0.6 {
		t.Error("coverage helpers wrong")
	}
	set := ms.CriticalSet()
	if len(set) != 1 || !set[attr.NewKey(map[attr.Dim]int32{attr.CDN: 1})] {
		t.Error("CriticalSet wrong")
	}
	empty := MetricSummary{}
	if empty.CriticalCoverage() != 0 || empty.ProblemCoverage() != 0 {
		t.Error("empty coverage should be 0")
	}
}

func TestAnalyzeEpochMaxDimsAndNoProblemKeys(t *testing.T) {
	g := smallGen(t, 1, 500)
	batch := g.EpochSessions(0)
	cfg := DefaultConfig(500)
	lites := make([]cluster.Lite, len(batch))
	for i := range batch {
		lites[i] = cluster.Digest(&batch[i], cfg.Thresholds)
	}

	cfg.MaxDims = 2
	cfg.KeepProblemKeys = false
	res, err := AnalyzeEpoch(0, lites, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range metric.All() {
		ms := &res.Metrics[m]
		if ms.ProblemKeys != nil {
			t.Errorf("%v: problem keys retained despite KeepProblemKeys=false", m)
		}
		for _, cs := range ms.Critical {
			if cs.Key.Size() > 2 {
				t.Errorf("%v: critical key %v exceeds MaxDims", m, cs.Key)
			}
		}
	}
}
