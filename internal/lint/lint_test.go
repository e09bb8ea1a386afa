package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// All fixtures share one FileSet and export-data importer, as Load does for
// the standard library, so each stdlib package is read once per test binary.
var (
	fixtureFset     = token.NewFileSet()
	fixtureImporter = importer.ForCompiler(fixtureFset, "gc", nil)
	fixtureSeq      int
)

// analyzeSrc type-checks one in-memory fixture file and runs the given
// analyzers over it, returning the sorted diagnostics.
func analyzeSrc(t *testing.T, src string, analyzers ...*Analyzer) []Diagnostic {
	t.Helper()
	fixtureSeq++
	return analyzeSrcPath(t, fmt.Sprintf("fixture%d", fixtureSeq), src, analyzers...)
}

// analyzeSrcPath is analyzeSrc with an explicit package path, for rules
// whose behavior keys on the path (ratioguard's eps recognition).
func analyzeSrcPath(t *testing.T, pkgPath, src string, analyzers ...*Analyzer) []Diagnostic {
	t.Helper()
	fixtureSeq++
	name := fmt.Sprintf("fixture%d.go", fixtureSeq)
	f, err := parser.ParseFile(fixtureFset, name, src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parsing fixture: %v", err)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: fixtureImporter}
	tpkg, err := conf.Check(pkgPath, fixtureFset, []*ast.File{f}, info)
	if err != nil {
		t.Fatalf("type-checking fixture: %v", err)
	}
	return Run([]*Package{{
		Path:  tpkg.Path(),
		Fset:  fixtureFset,
		Files: []*ast.File{f},
		Types: tpkg,
		Info:  info,
	}}, analyzers)
}

// rulesOf extracts the rule IDs of a diagnostic list, in order.
func rulesOf(diags []Diagnostic) []string {
	out := make([]string, len(diags))
	for i, d := range diags {
		out[i] = d.Rule
	}
	return out
}

// TestAnalyzers is the per-analyzer fixture table: each analyzer gets a
// positive case (deliberately broken code that must trigger it), a negative
// case (correct code that must not), and a suppression case (the positive
// code with a //vqlint:ignore comment, which must silence it).
func TestAnalyzers(t *testing.T) {
	cases := []struct {
		name     string
		analyzer *Analyzer
		src      string
		want     []string // expected rule IDs, in diagnostic order
	}{
		// ---- floatcmp ----
		{
			name:     "floatcmp positive",
			analyzer: FloatCmp,
			src: `package fixture
func atThreshold(ratio, threshold float64) bool {
	return ratio == threshold
}
func offThreshold(ratio float64) bool {
	return ratio != 0.05
}
`,
			want: []string{"floatcmp", "floatcmp"},
		},
		{
			name:     "floatcmp negative",
			analyzer: FloatCmp,
			src: `package fixture
import "sort"
const a, b = 0.05, 1.5
var constOnly = a == b // both operands constant: exact by construction
func ordered(x, y float64) bool { return x > y }
func comparator(xs []float64) {
	// Inside a sort comparator an epsilon would break strict weak
	// ordering, so direct equality is exempt there.
	sort.Slice(xs, func(i, j int) bool {
		if xs[i] == xs[j] {
			return false
		}
		return xs[i] < xs[j]
	})
}
`,
			want: nil,
		},
		{
			name:     "floatcmp suppressed",
			analyzer: FloatCmp,
			src: `package fixture
func sentinel(v float64) bool {
	return v == 0 //vqlint:ignore floatcmp zero is an exact sentinel here
}
`,
			want: nil,
		},

		// ---- detorder ----
		{
			name:     "detorder positive append",
			analyzer: DetOrder,
			src: `package fixture
func keys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}
`,
			want: []string{"detorder"},
		},
		{
			name:     "detorder positive float accumulation",
			analyzer: DetOrder,
			src: `package fixture
func sum(m map[string]float64) float64 {
	var s float64
	for _, v := range m {
		s += v
	}
	return s
}
`,
			want: []string{"detorder"},
		},
		{
			name:     "detorder positive output",
			analyzer: DetOrder,
			src: `package fixture
import "fmt"
func dump(m map[string]int) {
	for k, v := range m {
		fmt.Println(k, v)
	}
}
`,
			want: []string{"detorder"},
		},
		{
			name:     "detorder negative sorted after",
			analyzer: DetOrder,
			src: `package fixture
import "sort"
func keys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
func countOnly(m map[string]float64) int {
	n := 0
	for range m {
		n++ // integer accumulation is order-independent
	}
	return n
}
`,
			want: nil,
		},
		{
			name:     "detorder positive sort on one branch only",
			analyzer: DetOrder,
			src: `package fixture
import "sort"
func keys(m map[string]int, ordered bool) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	if ordered {
		sort.Strings(out)
	}
	return out
}
`,
			want: []string{"detorder"},
		},
		{
			name:     "detorder suppressed",
			analyzer: DetOrder,
			src: `package fixture
func keys(m map[string]int) []string {
	var out []string
	for k := range m {
		//vqlint:ignore detorder order is irrelevant to the caller
		out = append(out, k)
	}
	return out
}
`,
			want: nil,
		},

		// ---- mutexcopy ----
		{
			name:     "mutexcopy positive",
			analyzer: MutexCopy,
			src: `package fixture
import "sync"
type counter struct {
	mu sync.Mutex
	n  int
}
func byValue(c counter) int { // parameter copies the lock
	return c.n
}
func assign(c *counter) {
	dup := *c // assignment copies the lock
	dup.n++
}
func iterate(cs []counter) {
	for _, c := range cs { // range value copies the lock
		_ = c.n
	}
}
`,
			want: []string{"mutexcopy", "mutexcopy", "mutexcopy"},
		},
		{
			name:     "mutexcopy negative",
			analyzer: MutexCopy,
			src: `package fixture
import "sync"
type counter struct {
	mu sync.Mutex
	n  int
}
func byPointer(c *counter) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}
func fresh() *counter {
	c := counter{} // composite literal constructs, not copies
	return &c
}
func iterate(cs []counter) {
	for i := range cs {
		_ = cs[i].n
	}
}
`,
			want: nil,
		},
		{
			name:     "mutexcopy suppressed",
			analyzer: MutexCopy,
			src: `package fixture
import "sync"
type counter struct {
	mu sync.Mutex
	n  int
}
func snapshot(c counter) int { //vqlint:ignore mutexcopy value is never locked after construction
	return c.n
}
`,
			want: nil,
		},

		// ---- lockbalance ----
		{
			name:     "lockbalance positive early return",
			analyzer: LockBalance,
			src: `package fixture
import "sync"
type counter struct {
	mu sync.Mutex
	n  int
}
func bad(c *counter) int {
	c.mu.Lock()
	if c.n > 0 {
		return c.n // leaves c.mu held
	}
	c.mu.Unlock()
	return 0
}
`,
			want: []string{"lockbalance"},
		},
		{
			name:     "lockbalance positive fall off end",
			analyzer: LockBalance,
			src: `package fixture
import "sync"
func leak(mu *sync.Mutex, n *int) {
	mu.Lock()
	*n++
}
`,
			want: []string{"lockbalance"},
		},
		{
			name:     "lockbalance positive return inside select clause",
			analyzer: LockBalance,
			src: `package fixture
import "sync"
func drain(mu *sync.Mutex, ch chan int) int {
	mu.Lock()
	select {
	case v := <-ch:
		return v // leaves mu locked — invisible to a syntactic walk
	default:
	}
	mu.Unlock()
	return 0
}
`,
			want: []string{"lockbalance"},
		},
		{
			name:     "lockbalance positive double unlock",
			analyzer: LockBalance,
			src: `package fixture
import "sync"
func double(mu *sync.Mutex) {
	mu.Lock()
	mu.Unlock()
	mu.Unlock()
}
`,
			want: []string{"lockbalance"},
		},
		{
			name:     "lockbalance positive self deadlock",
			analyzer: LockBalance,
			src: `package fixture
import "sync"
func again(mu *sync.Mutex) {
	mu.Lock()
	mu.Lock()
	mu.Unlock()
	mu.Unlock()
}
`,
			want: []string{"lockbalance"},
		},
		{
			name:     "lockbalance negative",
			analyzer: LockBalance,
			src: `package fixture
import "sync"
type counter struct {
	mu sync.Mutex
	rw sync.RWMutex
	n  int
}
func deferred(c *counter) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.n > 0 {
		return c.n
	}
	return 0
}
func paired(c *counter) int {
	c.mu.Lock()
	n := c.n
	c.mu.Unlock()
	return n
}
func conditional(c *counter, use bool) {
	if use {
		c.mu.Lock()
		defer c.mu.Unlock()
	}
	c.n = 0
}
func reader(c *counter) int {
	c.rw.RLock()
	n := c.n
	c.rw.RUnlock()
	return n
}
func branches(c *counter, closed bool) int {
	c.mu.Lock()
	if closed {
		c.mu.Unlock()
		return -1
	}
	n := c.n
	c.mu.Unlock()
	return n
}
func deferredLit(c *counter) {
	c.mu.Lock()
	defer func() {
		c.n = 0
		c.mu.Unlock()
	}()
	c.n++
}
`,
			want: nil,
		},
		{
			name:     "lockbalance suppressed",
			analyzer: LockBalance,
			src: `package fixture
import "sync"
func handoff(mu *sync.Mutex) {
	mu.Lock()
	//vqlint:ignore lockbalance ownership transfers to the caller
}
`,
			want: nil,
		},

		// ---- poolrelease ----
		{
			name:     "poolrelease positive early return leak",
			analyzer: PoolRelease,
			src: `package fixture
type res struct{ n int }
func (r *res) Release() {}
func Acquire() *res { return &res{} }
func leak(cond bool) int {
	r := Acquire()
	if cond {
		return 0 // r never reaches Release on this path
	}
	r.Release()
	return 1
}
`,
			want: []string{"poolrelease"},
		},
		{
			name:     "poolrelease positive pool Get without Put",
			analyzer: PoolRelease,
			src: `package fixture
import "sync"
var pool sync.Pool
func use(cond bool) {
	b := pool.Get().(*[]byte)
	if cond {
		return // b never goes back to the pool
	}
	pool.Put(b)
}
`,
			want: []string{"poolrelease"},
		},
		{
			name:     "poolrelease negative",
			analyzer: PoolRelease,
			src: `package fixture
type res struct{ n int }
func (r *res) Release() {}
func Acquire() *res { return &res{} }
func view(r *res) int { return r.n }
func deferred(cond bool) int {
	r := Acquire()
	defer r.Release()
	if cond {
		return 0
	}
	return view(r) // borrowing through a call argument is fine
}
func escapes() *res {
	r := Acquire()
	return r // ownership moves to the caller
}
func panicPath(cond bool) {
	r := Acquire()
	if cond {
		panic("corrupt state") // crash paths owe the pool nothing
	}
	r.Release()
}
`,
			want: nil,
		},
		{
			name:     "poolrelease negative comma-ok and nil guards",
			analyzer: PoolRelease,
			src: `package fixture
import "sync"
var pool sync.Pool
func commaOK(out []byte) []byte {
	b, ok := pool.Get().(*[]byte)
	if !ok {
		return nil // assertion failed: b is nil, nothing to put back
	}
	out = append(out, (*b)...)
	pool.Put(b)
	return out
}
func nilCheck(out []byte) []byte {
	b, _ := pool.Get().(*[]byte)
	if b == nil {
		return nil
	}
	out = append(out, (*b)...)
	pool.Put(b)
	return out
}
`,
			want: nil,
		},
		{
			name:     "poolrelease positive still leaks past the comma-ok guard",
			analyzer: PoolRelease,
			src: `package fixture
import "sync"
var pool sync.Pool
func leak(n int) int {
	b, ok := pool.Get().(*[]byte)
	if !ok {
		return 0
	}
	if n == 0 {
		return 0 // ok-true path: b is live and never put back
	}
	pool.Put(b)
	return len(*b)
}
`,
			want: []string{"poolrelease"},
		},
		{
			name:     "poolrelease suppressed",
			analyzer: PoolRelease,
			src: `package fixture
type res struct{ n int }
func (r *res) Release() {}
func Acquire() *res { return &res{} }
func leak(cond bool) {
	r := Acquire()
	if cond {
		return //vqlint:ignore poolrelease released by the caller via Done()
	}
	r.Release()
}
`,
			want: nil,
		},

		// ---- errflow ----
		{
			name:     "errflow positive overwrite and drop",
			analyzer: ErrFlow,
			src: `package fixture
var errStep error
func step() error { return errStep } // opaque: summary stays ErrUnknown
func overwrite() error {
	err := step()
	err = step() // the first error was never checked
	return err
}
func dead() {
	err := step() // assigned, then the function ends without reading it
	err = step()
	_ = err
}
`,
			want: []string{"errflow", "errflow"},
		},
		{
			name:     "errflow negative",
			analyzer: ErrFlow,
			src: `package fixture
func step() error { return nil }
func checked() error {
	err := step()
	if err != nil {
		return err
	}
	err = step()
	return err
}
func loopRetry() error {
	var err error
	for i := 0; i < 3; i++ {
		err = step()
		if err == nil {
			break
		}
	}
	return err
}
func named() (err error) {
	err = step()
	return // naked return reads the named result
}
func viaClosure() error {
	var err error
	fn := func() { err = step() } // captured: exempt from the analysis
	fn()
	return err
}
`,
			want: nil,
		},
		{
			name:     "errflow suppressed",
			analyzer: ErrFlow,
			src: `package fixture
func step() error { return nil }
func overwrite() error {
	err := step() //vqlint:ignore errflow first probe is best-effort
	err = step()
	return err
}
`,
			want: nil,
		},

		// ---- ratioguard ----
		{
			name:     "ratioguard positive",
			analyzer: RatioGuard,
			src: `package fixture
func ratio(problems, total int) float64 {
	return float64(problems) / float64(total) // NaN on a starved epoch
}
func intdiv(a, n int) int {
	return a / n // panics outright
}
`,
			want: []string{"ratioguard", "ratioguard"},
		},
		{
			name:     "ratioguard positive guard on one path only",
			analyzer: RatioGuard,
			src: `package fixture
func half(sum float64, n int, skip bool) float64 {
	if !skip {
		if n == 0 {
			return 0
		}
	}
	return sum / float64(n) // the skip path arrives unguarded
}
`,
			want: []string{"ratioguard"},
		},
		{
			name:     "ratioguard negative",
			analyzer: RatioGuard,
			src: `package fixture
func guarded(problems, total int) float64 {
	if total == 0 {
		return 0
	}
	return float64(problems) / float64(total)
}
func positiveTest(sum float64, n int) float64 {
	if n > 0 {
		return sum / float64(n)
	}
	return 0
}
func clamp(x float64, steps int) float64 {
	if steps < 1 {
		steps = 1 // the clamp idiom proves the bound on both paths
	}
	return x / float64(steps)
}
func alias(problems, total int) float64 {
	if total == 0 {
		return 0
	}
	n := float64(total)
	return float64(problems) / n
}
func orChain(a, b, n int) float64 {
	if a < 0 || n == 0 {
		return 0
	}
	return float64(b) / float64(n)
}
func minusOne(n int) float64 {
	if n < 2 {
		return 0
	}
	return 1 / float64(n-1) // n ≥ 2 ⇒ n−1 ≥ 1
}
func constDen(a int) float64 {
	return float64(a) / 4
}
func loopGuard(groups [][]int) float64 {
	var out float64
	for _, g := range groups {
		if len(g) == 0 {
			continue
		}
		out += 1 / float64(len(g))
	}
	return out
}
`,
			want: nil,
		},
		{
			name:     "ratioguard negative non-empty literal length",
			analyzer: RatioGuard,
			src: `package fixture
func rotate(i int) string {
	names := []string{"buffer", "bitrate", "join"}
	return names[i%len(names)] // a 3-element literal cannot have len 0
}
`,
			want: nil,
		},
		{
			name:     "ratioguard positive literal length lost on reassignment",
			analyzer: RatioGuard,
			src: `package fixture
func pick(i int, extra []string) string {
	names := []string{"buffer", "bitrate", "join"}
	names = extra // could be empty: the literal fact must die here
	return names[i%len(names)]
}
`,
			want: []string{"ratioguard"},
		},
		{
			name:     "ratioguard suppressed",
			analyzer: RatioGuard,
			src: `package fixture
func ratio(problems, total int) float64 {
	return float64(problems) / float64(total) //vqlint:ignore ratioguard caller validates total
}
`,
			want: nil,
		},

		// ---- ctxcheck ----
		{
			name:     "ctxcheck positive",
			analyzer: CtxCheck,
			src: `package fixture
func spawn(n int) {
	for i := 0; i < n; i++ {
		go func() {
			println(n) // no receive, no select, no context, no WaitGroup
		}()
	}
}
`,
			want: []string{"ctxcheck"},
		},
		{
			name:     "ctxcheck negative",
			analyzer: CtxCheck,
			src: `package fixture
import (
	"context"
	"sync"
)
func viaChannel(n int, stop chan struct{}) {
	for i := 0; i < n; i++ {
		go func() {
			<-stop
		}()
	}
}
func viaWaitGroup(n int, wg *sync.WaitGroup) {
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			println(n)
		}()
	}
}
func viaContext(ctx context.Context, n int) {
	for i := 0; i < n; i++ {
		go func() {
			<-ctx.Done()
		}()
	}
}
`,
			want: nil,
		},
		{
			name:     "ctxcheck suppressed",
			analyzer: CtxCheck,
			src: `package fixture
func spawn(n int) {
	for i := 0; i < n; i++ {
		//vqlint:ignore ctxcheck fire-and-forget by design in this demo
		go func() {
			println(n)
		}()
	}
}
`,
			want: nil,
		},

		// ---- errdrop ----
		{
			name:     "errdrop positive",
			analyzer: ErrDrop,
			src: `package fixture
import "os"
func drop(f *os.File) {
	f.Close()
}
`,
			want: []string{"errdrop"},
		},
		{
			name:     "errdrop negative",
			analyzer: ErrDrop,
			src: `package fixture
import (
	"fmt"
	"os"
	"strings"
)
func handled(f *os.File) error {
	defer f.Close() // deferred cleanup is exempt
	_ = f.Sync()    // explicit discard is exempt
	var sb strings.Builder
	sb.WriteString("x")          // strings.Builder never errors
	fmt.Println("hello")         // terminal chatter
	fmt.Fprintln(os.Stderr, "x") // std stream
	fmt.Fprintln(&sb, "y")       // in-memory sink
	return f.Close()
}
`,
			want: nil,
		},
		{
			name:     "errdrop suppressed",
			analyzer: ErrDrop,
			src: `package fixture
import "os"
func drop(f *os.File) {
	f.Close() //vqlint:ignore errdrop best-effort cleanup on the error path
}
`,
			want: nil,
		},
		{
			name:     "errdrop deferred file sync positive",
			analyzer: ErrDrop,
			src: `package fixture
import "os"
func write(f *os.File) {
	defer f.Sync() // drops the durability verdict
	defer f.Close()
}
`,
			want: []string{"errdrop"},
		},
		{
			name:     "errdrop deferred sync on non-file negative",
			analyzer: ErrDrop,
			src: `package fixture
type flusher struct{}
func (flusher) Sync() error { return nil }
func use(fl flusher) {
	defer fl.Sync() // only *os.File carries the durability contract
}
`,
			want: nil,
		},
		{
			name:     "errdrop deferred file sync suppressed",
			analyzer: ErrDrop,
			src: `package fixture
import "os"
func write(f *os.File) {
	defer f.Sync() //vqlint:ignore errdrop scratch file, durability irrelevant
}
`,
			want: nil,
		},

		// ---- goleak ----
		{
			name:     "goleak positive",
			analyzer: GoLeak,
			src: `package fixture
func spin() {
	for {
	}
}
func spawn() {
	go spin()
	go func() {
		select {}
	}()
}
`,
			want: []string{"goleak", "goleak"},
		},
		{
			name:     "goleak negative",
			analyzer: GoLeak,
			src: `package fixture
func pump(in, out chan int) {
	for v := range in {
		out <- v
	}
}
func spawn(in, out chan int, quit chan struct{}) {
	go pump(in, out)
	go func() {
		for {
			select {
			case <-quit:
				return
			case v := <-in:
				out <- v
			}
		}
	}()
}
`,
			want: nil,
		},
		{
			name:     "goleak suppressed",
			analyzer: GoLeak,
			src: `package fixture
func spin() {
	for {
	}
}
func spawn() {
	go spin() //vqlint:ignore goleak intentional busy daemon for the demo
}
`,
			want: nil,
		},

		// ---- chandiscipline ----
		{
			name:     "chandiscipline positive",
			analyzer: ChanDiscipline,
			src: `package fixture
func doubleClose() {
	ch := make(chan int)
	close(ch)
	close(ch)
}
func nilSend() {
	var ch chan int
	ch <- 1
}
`,
			want: []string{"chandiscipline", "chandiscipline"},
		},
		{
			name:     "chandiscipline negative",
			analyzer: ChanDiscipline,
			src: `package fixture
func conditional(c bool) {
	ch := make(chan int)
	if c {
		close(ch)
	} else {
		close(ch)
	}
}
func disabled(a chan int) {
	var b chan int
	select {
	case <-a:
	case <-b:
	}
}
`,
			want: nil,
		},
		{
			name:     "chandiscipline suppressed",
			analyzer: ChanDiscipline,
			src: `package fixture
func doubleClose() {
	ch := make(chan int)
	close(ch)
	close(ch) //vqlint:ignore chandiscipline deliberate panic under test
}
`,
			want: nil,
		},

		// ---- wgbalance ----
		{
			name:     "wgbalance positive",
			analyzer: WgBalance,
			src: `package fixture
import "sync"
func negative() {
	var wg sync.WaitGroup
	wg.Add(1)
	wg.Done()
	wg.Done()
}
func stuck() {
	var wg sync.WaitGroup
	wg.Add(1)
	wg.Wait()
}
`,
			want: []string{"wgbalance", "wgbalance"},
		},
		{
			name:     "wgbalance negative",
			analyzer: WgBalance,
			src: `package fixture
import "sync"
func pool(n int, work func(int)) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			work(i)
		}(i)
	}
	wg.Wait()
}
func worker(wg *sync.WaitGroup, work func()) {
	defer wg.Done()
	work()
}
`,
			want: nil,
		},
		{
			name:     "wgbalance suppressed",
			analyzer: WgBalance,
			src: `package fixture
import "sync"
func stuck() {
	var wg sync.WaitGroup
	wg.Add(1)
	wg.Wait() //vqlint:ignore wgbalance deadlock fixture for the watchdog test
}
`,
			want: nil,
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := analyzeSrc(t, tc.src, tc.analyzer)
			if len(got) != len(tc.want) {
				t.Fatalf("got %d diagnostics, want %d:\n%s", len(got), len(tc.want), formatDiags(got))
			}
			for i, rule := range rulesOf(got) {
				if rule != tc.want[i] {
					t.Errorf("diagnostic %d rule = %s, want %s", i, rule, tc.want[i])
				}
			}
		})
	}
}

func formatDiags(diags []Diagnostic) string {
	var sb strings.Builder
	for _, d := range diags {
		sb.WriteString("  " + d.String() + "\n")
	}
	return sb.String()
}

// TestAllAnalyzersFireOnBrokenFixture feeds one deliberately broken file to
// the full analyzer set and checks every rule fires — the acceptance
// criterion that no analyzer silently degrades into a no-op.
func TestAllAnalyzersFireOnBrokenFixture(t *testing.T) {
	const src = `package fixture
import (
	"fmt"
	"os"
	"sync"
	"time"
)
type guarded struct {
	mu sync.Mutex
	n  int
}
func broken(g guarded, m map[string]float64, f *os.File, vals []float64) float64 {
	g.mu.Lock()
	var total float64
	for k, v := range m {
		total += v
		fmt.Println(k)
	}
	for i := 0; i < 3; i++ {
		go func() {
			println(i)
		}()
	}
	f.Close()
	if total == 0.05 {
		return g.hold()
	}
	return total
}
func (g *guarded) hold() float64 {
	g.mu.Lock()
	return float64(g.n)
}
type res struct{ n int }
func (r *res) Release() {}
func Acquire() *res { return &res{} }
func leakRes(cond bool) int {
	r := Acquire()
	if cond {
		return 0
	}
	r.Release()
	return 1
}
var errStep error
func step() error { return errStep }
func overwrite() error {
	err := step()
	err = step()
	return err
}
func ratio(problems, total int) float64 {
	return float64(problems) / float64(total)
}
func spinner() {
	for {
	}
}
func spawnLeaks() {
	go spinner()
}
func channelAbuse() {
	ch := make(chan int)
	close(ch)
	close(ch)
}
func wgAbuse() {
	var wg sync.WaitGroup
	wg.Add(1)
	wg.Wait()
}
func useAfterRelease() int {
	r := Acquire()
	r.Release()
	return r.n
}
func stamp() int64 {
	return time.Now().UnixNano()
}
`
	// The corpus/ package path puts the fixture inside wallclock's
	// deterministic cone.
	got := analyzeSrcPath(t, "corpus/wallclock_broken", src, All()...)
	fired := make(map[string]bool)
	for _, d := range got {
		fired[d.Rule] = true
	}
	for _, a := range All() {
		if !fired[a.Name] {
			t.Errorf("analyzer %s did not fire on the broken fixture; diagnostics:\n%s", a.Name, formatDiags(got))
		}
	}
}

// TestSuppressionMechanics pins the comment placement contract: a
// //vqlint:ignore covers its own line and the next, names specific rules or
// "all", and does not leak beyond that.
func TestSuppressionMechanics(t *testing.T) {
	const src = `package fixture
func trailing(a, b float64) bool {
	return a == b //vqlint:ignore floatcmp trailing placement
}
func standalone(a, b float64) bool {
	//vqlint:ignore floatcmp standalone placement
	return a == b
}
func wildcard(a, b float64) bool {
	return a == b //vqlint:ignore all wildcard
}
func wrongRule(a, b float64) bool {
	return a == b //vqlint:ignore errdrop names a different rule
}
func outOfRange(a, b float64) bool {
	//vqlint:ignore floatcmp two lines above the finding

	return a == b
}
`
	got := analyzeSrc(t, src, FloatCmp)
	if len(got) != 2 {
		t.Fatalf("got %d diagnostics, want 2 (wrongRule and outOfRange):\n%s", len(got), formatDiags(got))
	}
}

// TestBlockSuppression pins the //vqlint:ignore-start / ignore-end contract:
// a well-formed block suppresses the named rules between its markers and
// nothing outside them, and every malformed shape — end without start, a
// start with no rule list, a nested start, a block left open at EOF — is
// itself reported under the "vqlint" rule rather than silently changing what
// gets suppressed.
func TestBlockSuppression(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want map[string]int // rule → expected diagnostic count
	}{
		{
			name: "valid block suppresses inside only",
			src: `package fixture
func eq(a, b float64) bool {
	//vqlint:ignore-start floatcmp generated comparison table
	if a == b {
		return true
	}
	//vqlint:ignore-end
	return a != b
}
`,
			want: map[string]int{"floatcmp": 1},
		},
		{
			name: "end without start",
			src: `package fixture
//vqlint:ignore-end
func eq(a, b float64) bool { return a == b }
`,
			want: map[string]int{"vqlint": 1, "floatcmp": 1},
		},
		{
			name: "start without rule list",
			src: `package fixture
//vqlint:ignore-start
func eq(a, b float64) bool { return a == b }
//vqlint:ignore-end
`,
			// The bare start is rejected, so no block ever opens: the end is
			// then also orphaned, and the finding between them comes through.
			want: map[string]int{"vqlint": 2, "floatcmp": 1},
		},
		{
			name: "nested start rejected but outer block holds",
			src: `package fixture
func eq(a, b float64) bool {
	//vqlint:ignore-start floatcmp outer
	//vqlint:ignore-start floatcmp inner
	if a == b {
		return true
	}
	//vqlint:ignore-end
	return false
}
`,
			want: map[string]int{"vqlint": 1},
		},
		{
			name: "unclosed block suppresses nothing",
			src: `package fixture
func eq(a, b float64) bool {
	//vqlint:ignore-start floatcmp forgot to close
	return a == b
}
`,
			want: map[string]int{"vqlint": 1, "floatcmp": 1},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := analyzeSrc(t, tc.src, FloatCmp)
			counts := make(map[string]int)
			for _, d := range got {
				counts[d.Rule]++
			}
			for rule, n := range tc.want {
				if counts[rule] != n {
					t.Errorf("rule %s fired %d times, want %d:\n%s", rule, counts[rule], n, formatDiags(got))
				}
			}
			for rule := range counts {
				if _, ok := tc.want[rule]; !ok {
					t.Errorf("unexpected rule %s:\n%s", rule, formatDiags(got))
				}
			}
		})
	}
}

// TestRatioGuardEpsZero covers the eps.Zero guard recognition, which keys on
// the package path: a fixture type-checked under a path ending in /eps can
// call its own Zero unqualified and ratioguard must honor the guard.
func TestRatioGuardEpsZero(t *testing.T) {
	const src = `package eps
func Zero(x float64) bool { return x < 1e-9 && x > -1e-9 }
func guarded(sum float64, n int) float64 {
	if Zero(float64(n)) {
		return 0
	}
	return sum / float64(n)
}
func unguarded(sum float64, n int) float64 {
	return sum / float64(n)
}
`
	got := analyzeSrcPath(t, "repro/internal/eps", src, RatioGuard)
	if len(got) != 1 || got[0].Rule != "ratioguard" {
		t.Fatalf("want exactly one ratioguard finding (the unguarded division):\n%s", formatDiags(got))
	}
}

// TestDiagnosticString pins the file:line:col rendering.
func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{Rule: "floatcmp", Pos: token.Position{Filename: "x.go", Line: 3, Column: 9}, Msg: "float comparison"}
	if got, want := d.String(), "x.go:3:9: float comparison [floatcmp]"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

// TestByName covers analyzer lookup.
func TestByName(t *testing.T) {
	for _, a := range All() {
		if ByName(a.Name) != a {
			t.Errorf("ByName(%q) did not return the registered analyzer", a.Name)
		}
	}
	if ByName("nosuchrule") != nil {
		t.Error("ByName of an unknown rule should be nil")
	}
}

// TestSelfCheck runs every analyzer over the repository itself and demands
// zero findings: the tree must stay vqlint-clean, and any new finding must
// be fixed or explicitly suppressed with a rationale. Its "exports" subtest
// checks the same load for exported code that only tests call, and its
// "wallclock-allowlist" subtest for allowlist entries that name nothing.
func TestSelfCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole repository")
	}
	pkgs, err := Load("../..", []string{"./..."})
	if err != nil {
		t.Fatalf("loading repository: %v", err)
	}
	diags := Run(pkgs, All())
	if len(diags) != 0 {
		t.Errorf("repository is not vqlint-clean: %d findings\n%s", len(diags), formatDiags(diags))
	}
	// The same load pins the exported surface of internal/ to its callers.
	t.Run("exports", func(t *testing.T) { checkExportsUsed(t, pkgs) })
	t.Run("wallclock-allowlist", func(t *testing.T) { checkWallClockAllowDeclared(t, pkgs) })
}

// checkWallClockAllowDeclared fails on every wallclock allowlist entry of a
// repro/... package that names no function or method declared there: a
// stale entry would silently excuse whatever later takes its name.
func checkWallClockAllowDeclared(t *testing.T, pkgs []*Package) {
	declared := make(map[string]bool)
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok {
					declared[p.Path+" "+wallClockName(fd)] = true
				}
			}
		}
	}
	for path, names := range wallClockAllow {
		if !strings.HasPrefix(path, "repro/") {
			continue
		}
		for _, name := range names {
			if !declared[path+" "+name] {
				t.Errorf("wallclock allowlist entry %s %q names no declared function", path, name)
			}
		}
	}
}

// TestLoadSharesModulePackages pins the loader's contract: an in-module
// package is type-checked once per Load, so the cluster package core
// imports is the very one the cluster pattern selected.
func TestLoadSharesModulePackages(t *testing.T) {
	pkgs, err := Load("../..", []string{"./internal/cluster", "./internal/core"})
	if err != nil {
		t.Fatalf("loading: %v", err)
	}
	byPath := make(map[string]*Package, len(pkgs))
	for _, p := range pkgs {
		byPath[p.Path] = p
	}
	cluster, core := byPath["repro/internal/cluster"], byPath["repro/internal/core"]
	if cluster == nil || core == nil || len(pkgs) != 2 {
		t.Fatalf("loaded %d packages %v, want cluster and core", len(pkgs), byPath)
	}
	for _, imp := range core.Types.Imports() {
		if imp.Path() == cluster.Path {
			if imp != cluster.Types {
				t.Error("core imports a second copy of repro/internal/cluster")
			}
			return
		}
	}
	t.Fatal("core does not import repro/internal/cluster")
}
