package epoch

import "testing"

func TestRangeContains(t *testing.T) {
	r := Range{10, 20}
	for _, c := range []struct {
		e    Index
		want bool
	}{{9, false}, {10, true}, {19, true}, {20, false}} {
		if got := r.Contains(c.e); got != c.want {
			t.Errorf("Contains(%d) = %v, want %v", c.e, got, c.want)
		}
	}
}

func TestRangeSplit(t *testing.T) {
	r := Range{0, 336}
	train, test := r.Split(96) // paper's intra-week split: first 4 days
	if train.Len() != 96 || test.Start != 96 || test.End != 336 {
		t.Errorf("Split(96) = %+v, %+v", train, test)
	}
	lo, hi := r.Split(-5)
	if lo.Len() != 0 || hi != r {
		t.Errorf("Split below range = %+v, %+v", lo, hi)
	}
	lo, hi = r.Split(999)
	if lo != r || hi.Len() != 0 {
		t.Errorf("Split above range = %+v, %+v", lo, hi)
	}
}

func TestRangeWeek(t *testing.T) {
	r := Range{0, DefaultTraceEpochs}
	w0, w1 := r.Week(0), r.Week(1)
	if w0.Start != 0 || w0.End != HoursPerWeek {
		t.Errorf("Week(0) = %+v", w0)
	}
	if w1.Start != HoursPerWeek || w1.End != 2*HoursPerWeek {
		t.Errorf("Week(1) = %+v", w1)
	}
	short := Range{0, 100}
	w1 = short.Week(1)
	if w1.Len() != 0 {
		t.Errorf("Week beyond trace should be empty, got %+v", w1)
	}
}

func TestRangeEpochs(t *testing.T) {
	r := Range{3, 6}
	got := r.Epochs()
	want := []Index{3, 4, 5}
	if len(got) != len(want) {
		t.Fatalf("Epochs() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Epochs()[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestHourOfDayAndDay(t *testing.T) {
	if HourOfDay(0) != 0 || HourOfDay(23) != 23 || HourOfDay(24) != 0 || HourOfDay(49) != 1 {
		t.Error("HourOfDay arithmetic wrong")
	}
	if HourOfDay(-1) != 23 {
		t.Errorf("HourOfDay(-1) = %d, want 23", HourOfDay(-1))
	}
}
