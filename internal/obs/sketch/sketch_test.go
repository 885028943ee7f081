package sketch

import (
	"encoding/json"
	"math"
	"math/rand"
	"sync"
	"testing"
)

func TestObserveMoments(t *testing.T) {
	s := New(Config{})
	vals := []float64{1, 2, 3, 4, 100, -5, 0.00001, 0}
	var sum, sumSq float64
	for _, v := range vals {
		s.Observe(v)
		sum += v
		sumSq += v * v
	}
	snap := s.Snapshot()
	if snap.Count != int64(len(vals)) {
		t.Fatalf("count = %d, want %d", snap.Count, len(vals))
	}
	if math.Abs(snap.Sum-sum) > 1e-9 {
		t.Fatalf("sum = %g, want %g", snap.Sum, sum)
	}
	if snap.Min != -5 || snap.Max != 100 {
		t.Fatalf("min/max = %g/%g, want -5/100", snap.Min, snap.Max)
	}
	wantMean := sum / float64(len(vals))
	if math.Abs(snap.Mean()-wantMean) > 1e-9 {
		t.Fatalf("mean = %g, want %g", snap.Mean(), wantMean)
	}
	wantVar := sumSq/float64(len(vals)) - wantMean*wantMean
	if math.Abs(snap.Variance()-wantVar) > 1e-6 {
		t.Fatalf("variance = %g, want %g", snap.Variance(), wantVar)
	}
}

func TestIndexLayout(t *testing.T) {
	s := New(Config{Lo: 1, Hi: 1000, Buckets: 3}) // gamma = 10
	n := s.cfg.Buckets
	cases := []struct {
		v    float64
		want int
	}{
		{0, n + 1},          // center
		{0.5, n + 1},        // below Lo
		{-0.5, n + 1},       // below Lo, negative
		{math.NaN(), n + 1}, // NaN guarded into center
		{1, n + 2},          // first positive bucket
		{5, n + 2},          // still [1,10)
		{10, n + 3},         // [10,100)
		{999, n + 4},        // [100,1000)
		{1000, 2*n + 2},     // positive overflow
		{1e18, 2*n + 2},     // way overflow
		{-1, n},             // first negative bucket
		{-10, n - 1},        // [-100,-10)
		{-999, n - 2},       // (-1000,-100]
		{-1000, 0},          // negative overflow
		{math.Inf(1), 2*n + 2},
		{math.Inf(-1), 0},
	}
	for _, c := range cases {
		if got := s.index(c.v); got != c.want {
			t.Errorf("index(%g) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	s := New(Config{})
	for i := 0; i < 100; i++ {
		s.Observe(float64(i))
	}
	snap := s.Snapshot()
	b, err := json.Marshal(snap)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back Snapshot
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if back.Count != snap.Count || back.Sum != snap.Sum || len(back.Counts) != len(snap.Counts) {
		t.Fatalf("round trip mismatch: %+v vs %+v", back, snap)
	}
	if err := back.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
}

func TestValidateRejectsMalformed(t *testing.T) {
	bad := Snapshot{Lo: 1e-4, Hi: 1e9, Buckets: 128, Count: 10, Counts: []int64{1, 2}}
	if err := bad.Validate(); err == nil {
		t.Fatal("want error for counts length mismatch")
	}
	if _, err := bad.Merge(bad); err == nil {
		t.Fatal("want merge error for malformed snapshot")
	}
	if _, err := PSI(bad, bad); err == nil {
		t.Fatal("want PSI error for malformed snapshot")
	}
}

// sketchOf builds a snapshot of n samples drawn by gen.
func sketchOf(n int, gen func(i int) float64) Snapshot {
	s := New(Config{})
	for i := 0; i < n; i++ {
		s.Observe(gen(i))
	}
	return s.Snapshot()
}

func TestMergeAssociativityAndCommutativity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := sketchOf(500, func(int) float64 { return rng.NormFloat64()*10 + 100 })
	b := sketchOf(300, func(int) float64 { return rng.NormFloat64()*5 - 40 })
	c := sketchOf(700, func(int) float64 { return rng.ExpFloat64() * 1000 })

	merge := func(x, y Snapshot) Snapshot {
		t.Helper()
		out, err := x.Merge(y)
		if err != nil {
			t.Fatalf("merge: %v", err)
		}
		return out
	}
	abc1 := merge(merge(a, b), c) // (a⊕b)⊕c
	abc2 := merge(a, merge(b, c)) // a⊕(b⊕c)
	ba := merge(b, a)
	ab := merge(a, b)

	eq := func(name string, x, y Snapshot) {
		t.Helper()
		if x.Count != y.Count || math.Abs(x.Sum-y.Sum) > 1e-6 ||
			math.Abs(x.SumSq-y.SumSq) > 1e-3 || x.Min != y.Min || x.Max != y.Max {
			t.Fatalf("%s: scalar mismatch:\n%+v\n%+v", name, x, y)
		}
		for i := range x.Counts {
			if x.Counts[i] != y.Counts[i] {
				t.Fatalf("%s: bucket %d: %d vs %d", name, i, x.Counts[i], y.Counts[i])
			}
		}
	}
	eq("associativity", abc1, abc2)
	eq("commutativity", ab, ba)

	if abc1.Count != a.Count+b.Count+c.Count {
		t.Fatalf("merged count = %d, want %d", abc1.Count, a.Count+b.Count+c.Count)
	}
	// Merging an empty snapshot is the identity.
	empty := New(Config{}).Snapshot()
	eq("identity", merge(a, empty), a)
	eq("identity-left", merge(empty, a), a)
}

func TestMergeGeometryMismatch(t *testing.T) {
	a := New(Config{Lo: 1, Hi: 100, Buckets: 8}).Snapshot()
	b := New(Config{Lo: 1, Hi: 100, Buckets: 16}).Snapshot()
	if _, err := a.Merge(b); err == nil {
		t.Fatal("want geometry mismatch error")
	}
	if _, err := PSI(a, b); err == nil {
		t.Fatal("want geometry mismatch error from PSI")
	}
}

func TestPSIDetectsShift(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	ref := sketchOf(5000, func(int) float64 { return rng.NormFloat64()*20 + 200 })
	same := sketchOf(5000, func(int) float64 { return rng.NormFloat64()*20 + 200 })
	shifted := sketchOf(5000, func(int) float64 { return rng.NormFloat64()*20 + 320 }) // 1.6x mean

	stable, err := PSI(ref, same)
	if err != nil {
		t.Fatalf("PSI: %v", err)
	}
	moved, err := PSI(ref, shifted)
	if err != nil {
		t.Fatalf("PSI: %v", err)
	}
	if stable > 0.1 {
		t.Fatalf("PSI of identical distributions = %g, want < 0.1", stable)
	}
	if moved < 0.25 {
		t.Fatalf("PSI of 1.6x shifted distribution = %g, want >= 0.25", moved)
	}
	if moved <= stable {
		t.Fatalf("shifted PSI %g should exceed stable PSI %g", moved, stable)
	}

	klStable, err := KL(ref, same)
	if err != nil {
		t.Fatalf("KL: %v", err)
	}
	klMoved, err := KL(ref, shifted)
	if err != nil {
		t.Fatalf("KL: %v", err)
	}
	if klMoved <= klStable {
		t.Fatalf("shifted KL %g should exceed stable KL %g", klMoved, klStable)
	}
}

func TestDivergenceNeedsBothSides(t *testing.T) {
	full := sketchOf(100, func(i int) float64 { return float64(i) })
	empty := New(Config{}).Snapshot()
	if _, err := PSI(full, empty); err == nil {
		t.Fatal("want error for empty live side")
	}
	if _, err := PSI(empty, full); err == nil {
		t.Fatal("want error for empty reference side")
	}
}

func TestQuantile(t *testing.T) {
	s := New(Config{Lo: 1e-6, Hi: 1e3, Buckets: 128})
	for i := 1; i <= 1000; i++ {
		s.Observe(float64(i) / 100) // uniform 0.01..10
	}
	snap := s.Snapshot()
	p50 := snap.Quantile(0.5)
	p95 := snap.Quantile(0.95)
	// Bucket resolution is gamma ≈ 1.18, so allow ~20% slack.
	if p50 < 4 || p50 > 6.5 {
		t.Fatalf("p50 = %g, want ≈5", p50)
	}
	if p95 < 8.5 || p95 > 10.5 {
		t.Fatalf("p95 = %g, want ≈9.5", p95)
	}
	if got := snap.Quantile(1); got != snap.Max {
		t.Fatalf("p100 = %g, want max %g", got, snap.Max)
	}
	if (Snapshot{}).Quantile(0.5) != 0 {
		t.Fatal("empty snapshot quantile should be 0")
	}
}

func TestConcurrentObserve(t *testing.T) {
	s := New(Config{})
	const goroutines, per = 8, 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < per; i++ {
				s.Observe(rng.Float64() * 1000)
			}
		}(int64(g))
	}
	wg.Wait()
	snap := s.Snapshot()
	if snap.Count != goroutines*per {
		t.Fatalf("count = %d, want %d", snap.Count, goroutines*per)
	}
	var bucketTotal int64
	for _, c := range snap.Counts {
		bucketTotal += c
	}
	if bucketTotal != snap.Count {
		t.Fatalf("bucket total %d != count %d", bucketTotal, snap.Count)
	}
}

func BenchmarkObserve(b *testing.B) {
	s := New(Config{})
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		v := 100.0
		for pb.Next() {
			s.Observe(v)
			v += 0.5
			if v > 1000 {
				v = 100
			}
		}
	})
}

// FuzzSketchSnapshot decodes two arbitrary JSON documents as wire
// snapshots, the form a gateway's health report brings them to galleryd
// in. Nothing panics; Merge succeeds only for two valid snapshots of one
// geometry (either may instead be the zero-geometry empty snapshot, the
// merge identity), and then the merged snapshot is valid and counts their
// sum; and a valid snapshot's quantiles never fall as q rises. The
// checked-in corpus under testdata/fuzz replays in plain `go test`.
func FuzzSketchSnapshot(f *testing.F) {
	qs := []float64{0, 0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1}
	monotone := func(t *testing.T, which string, s Snapshot) {
		if s.Validate() != nil {
			return
		}
		prev := math.Inf(-1)
		for _, q := range qs {
			v := s.Quantile(q)
			if !(v >= prev) {
				t.Fatalf("%s %+v: Quantile(%g) = %g after %g", which, s, q, v, prev)
			}
			prev = v
		}
	}
	f.Fuzz(func(t *testing.T, a, b []byte) {
		var x, y Snapshot
		if json.Unmarshal(a, &x) != nil || json.Unmarshal(b, &y) != nil {
			return
		}
		identity := func(s Snapshot) bool { return s.Buckets == 0 && s.Count == 0 }
		monotone(t, "x", x)
		monotone(t, "y", y)
		m, err := x.Merge(y)
		if err != nil {
			return
		}
		switch {
		case !identity(x) && x.Validate() != nil, !identity(y) && y.Validate() != nil:
			t.Fatalf("merged an invalid snapshot: %+v and %+v", x, y)
		case !identity(x) && !identity(y) && !x.sameGeometry(y):
			t.Fatalf("merged two geometries: %+v and %+v", x, y)
		case m.Validate() != nil:
			t.Fatalf("merge of %+v and %+v is invalid: %v", x, y, m.Validate())
		case m.Count != x.Count+y.Count:
			t.Fatalf("merged count %d, want %d + %d", m.Count, x.Count, y.Count)
		}
		monotone(t, "merged", m)
	})
}
