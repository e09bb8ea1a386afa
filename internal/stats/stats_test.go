package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.uint64() != b.uint64() {
			t.Fatal("same seed produced different streams")
		}
	}
	if NewRNG(1).uint64() == NewRNG(2).uint64() {
		t.Error("different seeds produced identical first value")
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	r := NewRNG(7)
	s1 := r.Split(1)
	s2 := r.Split(2)
	s1again := NewRNG(7).Split(1)
	if s1.uint64() != s1again.uint64() {
		t.Error("Split is not stable for the same label")
	}
	if s1.uint64() == s2.uint64() {
		t.Error("Split streams for different labels collide immediately")
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10_000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", v)
		}
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRNG(4)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := r.Intn(5)
		if v < 0 || v >= 5 {
			t.Fatalf("Intn(5) = %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 5 {
		t.Errorf("Intn(5) visited %d values, want 5", len(seen))
	}
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	r.Intn(0)
}

func TestNormFloat64Moments(t *testing.T) {
	r := NewRNG(5)
	n := 200_000
	var sum, sq float64
	for i := 0; i < n; i++ {
		v := r.normFloat64()
		sum += v
		sq += v * v
	}
	mean := sum / float64(n)
	variance := sq/float64(n) - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

func TestLogNormalMedian(t *testing.T) {
	r := NewRNG(6)
	var samples []float64
	for i := 0; i < 50_000; i++ {
		samples = append(samples, r.LogNormal(math.Log(3), 0.8))
	}
	med := Summarize(samples).P50
	if med < 2.7 || med > 3.3 {
		t.Errorf("lognormal median = %v, want ~3", med)
	}
}

func TestParetoTail(t *testing.T) {
	r := NewRNG(8)
	n := 100_000
	over := 0
	for i := 0; i < n; i++ {
		v := r.Pareto(1, 1.5)
		if v < 1 {
			t.Fatalf("Pareto below scale: %v", v)
		}
		if v > 10 {
			over++
		}
	}
	// P(X > 10) = 10^-1.5 ≈ 0.0316.
	frac := float64(over) / float64(n)
	if frac < 0.025 || frac > 0.04 {
		t.Errorf("Pareto tail frac = %v, want ~0.0316", frac)
	}
}

func TestGeometricMean(t *testing.T) {
	r := NewRNG(9)
	p := 0.25
	n := 100_000
	sum := 0
	for i := 0; i < n; i++ {
		sum += r.Geometric(p)
	}
	mean := float64(sum) / float64(n)
	want := (1 - p) / p // = 3
	if math.Abs(mean-want) > 0.1 {
		t.Errorf("geometric mean = %v, want %v", mean, want)
	}
	if NewRNG(1).Geometric(1) != 0 {
		t.Error("Geometric(1) should be 0")
	}
}

func TestPoissonMean(t *testing.T) {
	r := NewRNG(10)
	n := 50_000
	sum := 0
	for i := 0; i < n; i++ {
		sum += r.Poisson(2.5)
	}
	mean := float64(sum) / float64(n)
	if math.Abs(mean-2.5) > 0.1 {
		t.Errorf("poisson mean = %v, want 2.5", mean)
	}
	if r.Poisson(0) != 0 {
		t.Error("Poisson(0) should be 0")
	}
}

func TestBetaRange(t *testing.T) {
	r := NewRNG(11)
	var sum float64
	n := 50_000
	for i := 0; i < n; i++ {
		v := r.Beta(2, 5)
		if v < 0 || v > 1 {
			t.Fatalf("Beta out of range: %v", v)
		}
		sum += v
	}
	mean := sum / float64(n)
	if math.Abs(mean-2.0/7.0) > 0.02 {
		t.Errorf("Beta(2,5) mean = %v, want %v", mean, 2.0/7.0)
	}
}

func TestPerm(t *testing.T) {
	r := NewRNG(12)
	p := r.Perm(10)
	seen := make([]bool, 10)
	for _, v := range p {
		if v < 0 || v >= 10 || seen[v] {
			t.Fatalf("bad permutation %v", p)
		}
		seen[v] = true
	}
}

func TestZipfSkew(t *testing.T) {
	z, err := NewZipf(100, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRNG(13)
	counts := make([]int, 100)
	n := 100_000
	for i := 0; i < n; i++ {
		counts[z.Sample(r)]++
	}
	if counts[0] < counts[1] || counts[1] < counts[10] {
		t.Errorf("Zipf not skewed: c0=%d c1=%d c10=%d", counts[0], counts[1], counts[10])
	}
	// Rank 0 probability for alpha=1, n=100 is 1/H(100) ≈ 0.1928.
	p0 := float64(counts[0]) / float64(n)
	if math.Abs(p0-0.1928) > 0.01 {
		t.Errorf("Zipf p(0) = %v, want ~0.1928", p0)
	}
}

func TestZipfErrors(t *testing.T) {
	if _, err := NewZipf(0, 1); err == nil {
		t.Error("NewZipf(0) succeeded")
	}
	if _, err := NewZipf(5, -1); err == nil {
		t.Error("NewZipf(alpha<0) succeeded")
	}
}

func TestWeightedChoice(t *testing.T) {
	r := NewRNG(14)
	counts := [3]int{}
	for i := 0; i < 30_000; i++ {
		counts[WeightedChoice(r, []float64{1, 0, 3})]++
	}
	if counts[1] != 0 {
		t.Errorf("zero-weight index drawn %d times", counts[1])
	}
	ratio := float64(counts[2]) / float64(counts[0])
	if ratio < 2.7 || ratio > 3.3 {
		t.Errorf("weight ratio = %v, want ~3", ratio)
	}
	if WeightedChoice(r, nil) != -1 || WeightedChoice(r, []float64{0, 0}) != -1 {
		t.Error("degenerate WeightedChoice should return -1")
	}
}

func TestCumWeights(t *testing.T) {
	cum, err := CumWeights([]float64{2, 2, 6})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0.2, 0.4, 1}
	for i := range want {
		if math.Abs(cum[i]-want[i]) > 1e-12 {
			t.Errorf("cum[%d] = %v, want %v", i, cum[i], want[i])
		}
	}
	if _, err := CumWeights([]float64{-1, 2}); err == nil {
		t.Error("negative weight accepted")
	}
	if _, err := CumWeights([]float64{0, 0}); err == nil {
		t.Error("zero-sum weights accepted")
	}
	r := NewRNG(15)
	counts := [3]int{}
	for i := 0; i < 30_000; i++ {
		counts[SampleCum(r, cum)]++
	}
	if counts[2] < counts[0] || counts[2] < counts[1] {
		t.Errorf("SampleCum distribution off: %v", counts)
	}
}

func TestECDFBasics(t *testing.T) {
	e, err := NewECDF([]float64{3, 1, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	if e.N() != 4 {
		t.Errorf("N = %d", e.N())
	}
	cases := []struct {
		x    float64
		want float64
	}{
		{0.5, 0}, {1, 0.25}, {1.5, 0.25}, {2, 0.75}, {3, 1}, {99, 1},
	}
	for _, c := range cases {
		if got := e.At(c.x); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("At(%v) = %v, want %v", c.x, got, c.want)
		}
		if got := e.Exceeds(c.x); math.Abs(got-(1-c.want)) > 1e-12 {
			t.Errorf("Exceeds(%v) = %v, want %v", c.x, got, 1-c.want)
		}
	}
	if _, err := NewECDF([]float64{math.NaN()}); err == nil {
		t.Error("NaN sample accepted")
	}
}

func TestECDFQuantile(t *testing.T) {
	e, _ := NewECDF([]float64{10, 20, 30, 40})
	cases := []struct{ q, want float64 }{
		{0, 10}, {0.25, 10}, {0.5, 20}, {0.75, 30}, {1, 40},
	}
	for _, c := range cases {
		if got := e.Quantile(c.q); got != c.want {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	empty, _ := NewECDF(nil)
	if empty.Quantile(0.5) != 0 || empty.At(1) != 0 {
		t.Error("empty ECDF should return zeros")
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.P50 != 3 {
		t.Errorf("Summarize = %+v", s)
	}
	if math.Abs(s.Std-math.Sqrt(2.5)) > 1e-12 {
		t.Errorf("Std = %v, want %v", s.Std, math.Sqrt(2.5))
	}
	if Summarize(nil).N != 0 {
		t.Error("empty Summarize should be zero")
	}
}

func TestJaccard(t *testing.T) {
	a := map[string]bool{"x": true, "y": true, "z": true}
	b := map[string]bool{"y": true, "z": true, "w": true}
	if got := Jaccard(a, b); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("Jaccard = %v, want 0.5", got)
	}
	if Jaccard(a, a) != 1 {
		t.Error("self Jaccard should be 1")
	}
	if Jaccard(map[string]bool{}, map[string]bool{}) != 0 {
		t.Error("empty Jaccard should be 0")
	}
	// false entries do not count as members.
	c := map[string]bool{"x": false}
	if Jaccard(c, c) != 0 {
		t.Error("false membership counted")
	}
}

// TestStreaksPaperExample encodes the worked example of paper Fig. 6:
// the cluster (ASN1, CDN1) occurs in epochs {2,3, 5,6} → streaks {2,2};
// CDN2 occurs in epochs {1,2,3, 5,6} → streaks {3,2}.
func TestStreaksPaperExample(t *testing.T) {
	got := Streaks([]int32{2, 3, 5, 6})
	if len(got) != 2 || got[0] != 2 || got[1] != 2 {
		t.Errorf("ASN1,CDN1 streaks = %v, want [2 2]", got)
	}
	got = Streaks([]int32{1, 2, 3, 5, 6})
	if len(got) != 2 || got[0] != 3 || got[1] != 2 {
		t.Errorf("CDN2 streaks = %v, want [3 2]", got)
	}
	if Streaks(nil) != nil {
		t.Error("empty Streaks should be nil")
	}
	got = Streaks([]int32{7})
	if len(got) != 1 || got[0] != 1 {
		t.Errorf("single streak = %v", got)
	}
}

func TestStreaksProperty(t *testing.T) {
	// Sum of streak lengths must equal the number of positions.
	f := func(raw []uint8) bool {
		seen := map[int32]bool{}
		var pos []int32
		for _, v := range raw {
			seen[int32(v)] = true
		}
		for v := int32(0); v < 256; v++ {
			if seen[v] {
				pos = append(pos, v)
			}
		}
		total := 0
		for _, s := range Streaks(pos) {
			total += s
		}
		return total == len(pos)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMedianIntMaxInt(t *testing.T) {
	if MedianInt([]int{5, 1, 3}) != 3 {
		t.Error("MedianInt odd wrong")
	}
	if MedianInt([]int{4, 1, 3, 2}) != 2 {
		t.Error("MedianInt even should take lower middle")
	}
	if MedianInt(nil) != 0 || MaxInt(nil) != 0 {
		t.Error("empty medians should be 0")
	}
	if MaxInt([]int{-5, -2, -9}) != -2 {
		t.Error("MaxInt with negatives wrong")
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 1) != 1 || Clamp(-5, 0, 1) != 0 || Clamp(0.5, 0, 1) != 0.5 {
		t.Error("Clamp wrong")
	}
}

func TestMeanMedianHelpers(t *testing.T) {
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Error("Mean wrong")
	}
	if Mean(nil) != 0 {
		t.Error("Mean(nil) should be 0")
	}
}

func TestPearson(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{2, 4, 6, 8, 10}
	if got := Pearson(x, y); math.Abs(got-1) > 1e-12 {
		t.Errorf("perfect correlation = %v", got)
	}
	neg := []float64{10, 8, 6, 4, 2}
	if got := Pearson(x, neg); math.Abs(got+1) > 1e-12 {
		t.Errorf("perfect anticorrelation = %v", got)
	}
	if Pearson(x, []float64{1, 1, 1, 1, 1}) != 0 {
		t.Error("constant series should give 0")
	}
	if Pearson(x, y[:3]) != 0 {
		t.Error("length mismatch should give 0")
	}
	if Pearson(nil, nil) != 0 {
		t.Error("empty should give 0")
	}
	// Independent-ish noise: small magnitude.
	r := NewRNG(77)
	a := make([]float64, 2000)
	b := make([]float64, 2000)
	for i := range a {
		a[i] = r.Float64()
		b[i] = r.Float64()
	}
	if got := Pearson(a, b); math.Abs(got) > 0.1 {
		t.Errorf("independent noise correlation = %v", got)
	}
}
