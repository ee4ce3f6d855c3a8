package metrics

import (
	"bytes"
	"strings"
	"testing"
)

func TestNilHandlesAreSafe(t *testing.T) {
	var r *Registry
	c := r.Counter(Opts{Name: "x"})
	g := r.Gauge(Opts{Name: "y"})
	h := r.Histogram(Opts{Name: "z"}, []float64{1})
	c.Inc()
	c.Add(3)
	g.Set(2)
	h.Observe(0.5)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil handles must observe nothing")
	}
	if r.Families() != nil {
		t.Fatal("nil registry has no families")
	}
	var buf bytes.Buffer
	if err := r.WriteOpenMetrics(&buf, 0); err != nil {
		t.Fatal(err)
	}
	if buf.String() != "# EOF\n" {
		t.Fatalf("nil registry export = %q", buf.String())
	}
}

func TestGetOrCreateReturnsSameSeries(t *testing.T) {
	r := New()
	a := r.Counter(Opts{Name: "c", Labels: map[string]string{"k": "v"}})
	b := r.Counter(Opts{Name: "c", Labels: map[string]string{"k": "v"}})
	if a != b {
		t.Fatal("same (name, labels) must return the same counter")
	}
	other := r.Counter(Opts{Name: "c", Labels: map[string]string{"k": "w"}})
	if other == a {
		t.Fatal("different labels must return a different series")
	}
	a.Add(2)
	if b.Value() != 2 {
		t.Fatal("shared series lost a write")
	}
}

func TestTypeConflictPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge must panic")
		}
	}()
	r := New()
	r.Counter(Opts{Name: "m"})
	r.Gauge(Opts{Name: "m"})
}

func TestHistogramBuckets(t *testing.T) {
	r := New()
	h := r.Histogram(Opts{Name: "h"}, []float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 50, 500} {
		h.Observe(v)
	}
	if h.Count() != 5 || h.Sum() != 556.5 {
		t.Fatalf("count=%d sum=%v", h.Count(), h.Sum())
	}
	var buf bytes.Buffer
	if err := r.WriteOpenMetrics(&buf, 1.5); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`h_bucket{le="1"} 2 1.5`,
		`h_bucket{le="10"} 3 1.5`,
		`h_bucket{le="100"} 4 1.5`,
		`h_bucket{le="+Inf"} 5 1.5`,
		`h_sum 556.5 1.5`,
		`h_count 5 1.5`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("export missing %q:\n%s", want, out)
		}
	}
}

func TestOpenMetricsDeterministicAndSorted(t *testing.T) {
	build := func() string {
		r := New()
		// Register in deliberately unsorted order.
		r.Gauge(Opts{Name: "zz_gauge", Help: "z"}).Set(3)
		r.Counter(Opts{Name: "aa_counter", Help: "a", Unit: "bytes", Labels: map[string]string{"b": "2", "a": "1"}}).Add(7)
		r.Counter(Opts{Name: "aa_counter", Labels: map[string]string{"a": "0", "b": "9"}}).Inc()
		var buf bytes.Buffer
		if err := r.WriteOpenMetrics(&buf, 2); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a, b := build(), build()
	if a != b {
		t.Fatalf("export not deterministic:\n%s\nvs\n%s", a, b)
	}
	wantOrder := []string{
		"# HELP aa_counter a",
		"# TYPE aa_counter counter",
		"# UNIT aa_counter bytes",
		`aa_counter_total{a="0",b="9"} 1 2`,
		`aa_counter_total{a="1",b="2"} 7 2`,
		"# TYPE zz_gauge gauge",
		"zz_gauge 3 2",
		"# EOF",
	}
	idx := -1
	for _, line := range wantOrder {
		i := strings.Index(a, line)
		if i < 0 {
			t.Fatalf("missing line %q in:\n%s", line, a)
		}
		if i < idx {
			t.Fatalf("line %q out of order in:\n%s", line, a)
		}
		idx = i
	}
}

func TestExpBuckets(t *testing.T) {
	got := ExpBuckets(4, 4, 3)
	want := []float64{4, 16, 64}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ExpBuckets = %v, want %v", got, want)
		}
	}
}
