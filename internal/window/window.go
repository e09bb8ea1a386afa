// Package window maintains the cluster count state of a sliding sub-epoch
// window incrementally, so problem/critical detection can run every minute
// instead of every hour without recomputing the hour.
//
// The paper's analysis (and core.AnalyzeEpoch) is batch: it rebuilds the
// full attribute-subset count table once per one-hour epoch, which both
// bounds detection latency below by an hour and pays the dominant cost —
// the 127-mask subset enumeration per session — for the whole hour on
// every evaluation. Here sessions instead land in per-tick sub-bucket
// cktable.Tables (one tick = one minute at the default geometry), each
// enumerated exactly once, and the window total is maintained by the
// engine pair cktable.Table.Merge / cktable.Table.Unmerge: advancing the
// window by one tick folds the tick that entered and subtracts the tick
// that expired — O(sub-bucket), not O(window).
//
// Determinism: the window clock is driven entirely by the tick indexes the
// caller derives from session/heartbeat timestamps — this package never
// reads the wall clock (it sits inside the vqlint wallclock cone), and the
// window table is exactly equal, as a key→counts mapping, to a table
// rebuilt from the live sub-buckets (proven bit-for-bit by the fuzz
// harnesses here and in cktable). At every full-epoch boundary with an
// epoch-aligned geometry the Snapshot is therefore analysis-equivalent to
// the batch path over the same sessions in the same order.
package window

import (
	"fmt"

	"repro/internal/attr"
	"repro/internal/cluster"
	"repro/internal/core/cktable"
	"repro/internal/epoch"
)

// Tick is a global sub-bucket index. With TicksPerEpoch = T, epoch e spans
// ticks [e*T, (e+1)*T); tick t therefore belongs to epoch t/T.
type Tick int64

// Config fixes the window geometry.
type Config struct {
	// Ticks is the window length in sub-buckets (60 one-minute ticks = the
	// paper's one-hour analysis horizon).
	Ticks int
	// TicksPerEpoch subdivides one epoch (60 = one-minute sub-buckets of a
	// one-hour epoch).
	TicksPerEpoch int
	// MaxDims caps the enumerated attribute-subset sizes (0 = all seven,
	// the paper's full hierarchy).
	MaxDims int
}

// DefaultConfig returns the one-hour window at one-minute ticks.
func DefaultConfig() Config { return Config{Ticks: 60, TicksPerEpoch: 60} }

// Validate reports the first invalid field.
func (c Config) Validate() error {
	switch {
	case c.Ticks < 1:
		return fmt.Errorf("window: Ticks %d < 1", c.Ticks)
	case c.TicksPerEpoch < 1:
		return fmt.Errorf("window: TicksPerEpoch %d < 1", c.TicksPerEpoch)
	case c.MaxDims < 0:
		return fmt.Errorf("window: negative MaxDims %d", c.MaxDims)
	}
	return nil
}

// EpochOf returns the epoch containing tick t (t must be non-negative, as
// session epochs are).
func (c Config) EpochOf(t Tick) epoch.Index {
	per := Tick(c.TicksPerEpoch)
	if per < 1 {
		per = 1 // unvalidated zero geometry degenerates to one epoch per tick
	}
	return epoch.Index(t / per)
}

// StartTick returns the first tick of epoch e.
func (c Config) StartTick(e epoch.Index) Tick {
	return Tick(e) * Tick(c.TicksPerEpoch)
}

// EpochBoundary reports whether t is the last tick of its epoch — the tick
// whose close makes the window line up with a full batch epoch when
// Ticks == TicksPerEpoch.
func (c Config) EpochBoundary(t Tick) bool {
	per := Tick(c.TicksPerEpoch)
	if per < 1 {
		per = 1
	}
	return (t+1)%per == 0
}

// SubTick derives a deterministic sub-epoch tick offset in
// [0, ticksPerEpoch) from a session ID — the stand-in for a heartbeat
// arrival timestamp when the trace format carries only the epoch (the
// synthetic generator and the v1 trace codec both do). The mix is
// splitmix64's finalizer, so offsets are uniform and reproducible across
// runs and architectures.
func SubTick(id uint64, ticksPerEpoch int) int {
	if ticksPerEpoch < 1 {
		ticksPerEpoch = 1
	}
	x := id + 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int(x % uint64(ticksPerEpoch))
}

// bucket is one sub-bucket of the window: the tick's own count table (kept
// alive so it can be unmerged when the tick expires) plus its retained
// session digests and root tallies.
type bucket struct {
	tick  Tick
	ck    *cktable.Table
	root  cktable.Counts
	lites []cluster.Lite
}

// Engine is the incremental sliding-window state. It is single-goroutine
// (the streaming detector drives it from one analysis goroutine, exactly
// like the batch pipeline's analysis stage); it is not safe for concurrent
// use.
type Engine struct {
	cfg     Config
	maxDims int

	started bool
	cur     bucket // the accumulating (open) tick

	// win holds the closed sub-buckets currently in the window, oldest
	// first, at most cfg.Ticks of them.
	win []bucket

	// total is the window-wide count table (sum of win's sub-buckets) and
	// root its window-wide root tallies.
	total *cktable.Table
	root  cktable.Counts

	// winLites is the Snapshot scratch: the window's session digests
	// concatenated in tick order, reused across snapshots.
	winLites []cluster.Lite

	// Observed counts sessions observed; Sealed counts sealed ticks.
	Observed int
	Sealed   int
}

// New builds an engine for the given geometry.
func New(cfg Config) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// Normalize exactly as cluster.NewTable does, so sub-bucket tables and
	// batch-built tables enumerate the same masks.
	maxDims := cfg.MaxDims
	if maxDims <= 0 || maxDims > attr.NumDims {
		maxDims = attr.NumDims
	}
	return &Engine{
		cfg:     cfg,
		maxDims: maxDims,
		total:   cktable.Acquire(0, maxDims),
	}, nil
}

// Start opens the first tick. Must be called once before Observe/Advance.
func (e *Engine) Start(t Tick) error {
	if e.started {
		return fmt.Errorf("window: Start called twice")
	}
	if t < 0 {
		return fmt.Errorf("window: negative start tick %d", t)
	}
	e.started = true
	e.openBucket(t)
	return nil
}

// Tick returns the currently accumulating tick.
func (e *Engine) Tick() Tick { return e.cur.tick }

// Pending returns the number of sessions observed into the open tick (not
// yet part of the window).
func (e *Engine) Pending() int { return len(e.cur.lites) }

// Observe adds one digested session to the open tick.
func (e *Engine) Observe(l cluster.Lite) error {
	if !e.started {
		return fmt.Errorf("window: Observe before Start")
	}
	e.cur.root.Add(l.Bits, l.Failed)
	e.cur.ck.AddSession(l.Attrs, l.Bits, l.Failed)
	e.cur.lites = append(e.cur.lites, l)
	e.Observed++
	return nil
}

// Advance seals the open tick into the window — one Merge of the tick's
// sub-bucket table into the window total, one Unmerge of the sub-bucket
// that slid out — and opens the next tick. It returns the tick just
// sealed; the caller evaluates the window (Snapshot) between Advance
// calls. Cost is O(entering sub-bucket + expiring sub-bucket), never
// O(window).
func (e *Engine) Advance() (Tick, error) {
	if !e.started {
		return 0, fmt.Errorf("window: Advance before Start")
	}
	sealed := e.cur.tick

	e.total.Merge(e.cur.ck)
	e.root.Merge(e.cur.root)
	e.win = append(e.win, e.cur)

	if len(e.win) > e.cfg.Ticks {
		old := e.win[0]
		copy(e.win, e.win[1:])
		e.win = e.win[:len(e.win)-1]
		e.total.Unmerge(old.ck)
		e.root.Sub(old.root)
		old.ck.Release()
		// The expired lites slice seeds the next open bucket's digest
		// buffer, so steady-state ticks append into recycled capacity.
		e.openRecycled(sealed+1, old.lites[:0])
	} else {
		e.openBucket(sealed + 1)
	}
	e.Sealed++
	return sealed, nil
}

// AdvanceTo seals ticks until the open tick is t, calling eval with each
// sealed tick (empty sub-buckets included — a minute with no sessions
// still slides the window and still re-evaluates it). No-op when t is the
// open tick already.
func (e *Engine) AdvanceTo(t Tick, eval func(sealed Tick) error) error {
	if !e.started {
		return fmt.Errorf("window: AdvanceTo before Start")
	}
	if t < e.cur.tick {
		return fmt.Errorf("window: tick %d before open tick %d", t, e.cur.tick)
	}
	for e.cur.tick < t {
		sealed, err := e.Advance()
		if err != nil {
			return err
		}
		if eval != nil {
			if err := eval(sealed); err != nil {
				return err
			}
		}
	}
	return nil
}

// openBucket opens a fresh sub-bucket at tick t.
func (e *Engine) openBucket(t Tick) {
	e.openRecycled(t, nil)
}

func (e *Engine) openRecycled(t Tick, lites []cluster.Lite) {
	sessionsHint := 0
	if n := len(e.win); n > 0 {
		sessionsHint = len(e.win[n-1].lites)
	}
	e.cur = bucket{
		tick:  t,
		ck:    cktable.Acquire(sessionsHint, e.maxDims),
		lites: lites,
	}
}

// Snapshot assembles the closed window as a cluster.Table for analysis
// (core.AnalyzeEpochTable). The table's Epoch is the
// epoch containing the last sealed tick; its Sessions are the window's
// digests in tick order — the order the batch path would see them in.
//
// The returned table BORROWS the engine's storage: it is valid until the
// next Observe/Advance and must not be Released (the engine owns the
// count table for the lifetime of the window).
func (e *Engine) Snapshot() (*cluster.Table, error) {
	if !e.started {
		return nil, fmt.Errorf("window: Snapshot before Start")
	}
	if len(e.win) == 0 {
		return nil, fmt.Errorf("window: Snapshot before the first Advance")
	}
	e.winLites = e.winLites[:0]
	for i := range e.win {
		e.winLites = append(e.winLites, e.win[i].lites...)
	}
	last := e.win[len(e.win)-1].tick
	return cluster.AssembleTable(e.cfg.EpochOf(last), e.winLites, e.maxDims, e.total, e.root), nil
}

// Close releases every table the engine holds. The engine must not be used
// afterwards.
func (e *Engine) Close() {
	if e.total != nil {
		e.total.Release()
		e.total = nil
	}
	for i := range e.win {
		e.win[i].ck.Release()
	}
	e.win = nil
	if e.started && e.cur.ck != nil {
		e.cur.ck.Release()
		e.cur.ck = nil
	}
}
