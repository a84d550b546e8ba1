package matrix

import (
	"math"
	"math/rand"
	"testing"
)

const tol = 1e-8

func almostEq(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestEigenSym2x2(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 3 and 1.
	a := []float64{2, 1, 1, 2}
	vals, vecs, err := EigenSym(a, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(vals[0], 3, tol) || !almostEq(vals[1], 1, tol) {
		t.Errorf("eigenvalues = %v, want [3 1]", vals)
	}
	// Eigenvector for λ=3 is (1,1)/√2 up to sign.
	v0 := Column(vecs, 2, 0)
	if !almostEq(math.Abs(v0[0]), 1/math.Sqrt2, 1e-6) || !almostEq(math.Abs(v0[1]), 1/math.Sqrt2, 1e-6) {
		t.Errorf("v0 = %v", v0)
	}
}

func TestEigenSymDiagonal(t *testing.T) {
	a := []float64{
		5, 0, 0,
		0, -7, 0,
		0, 0, 2,
	}
	vals, _, err := EigenSym(a, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Sorted by |λ| descending: -7, 5, 2.
	want := []float64{-7, 5, 2}
	for i := range want {
		if !almostEq(vals[i], want[i], tol) {
			t.Errorf("vals[%d] = %v, want %v", i, vals[i], want[i])
		}
	}
}

func randomSym(rng *rand.Rand, n int) []float64 {
	a := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			v := rng.NormFloat64() * 10
			a[i*n+j] = v
			a[j*n+i] = v
		}
	}
	return a
}

func TestEigenSymProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 5; trial++ {
		n := 10 + rng.Intn(30)
		a := randomSym(rng, n)
		vals, vecs, err := EigenSym(a, n)
		if err != nil {
			t.Fatal(err)
		}
		// A·v_j = λ_j·v_j for every pair.
		for j := 0; j < n; j++ {
			v := Column(vecs, n, j)
			av := MatVec(a, n, v)
			for i := 0; i < n; i++ {
				if !almostEq(av[i], vals[j]*v[i], 1e-6*(1+math.Abs(vals[j]))) {
					t.Fatalf("trial %d: A·v != λ·v at (%d,%d): %v vs %v", trial, i, j, av[i], vals[j]*v[i])
				}
			}
		}
		// Eigenvectors orthonormal.
		for j := 0; j < n; j++ {
			for k := j; k < n; k++ {
				d := Dot(Column(vecs, n, j), Column(vecs, n, k))
				want := 0.0
				if j == k {
					want = 1
				}
				if !almostEq(d, want, 1e-8) {
					t.Fatalf("trial %d: v%d·v%d = %v, want %v", trial, j, k, d, want)
				}
			}
		}
		// Trace preserved: Σλ = tr(A).
		var trace, sum float64
		for i := 0; i < n; i++ {
			trace += a[i*n+i]
			sum += vals[i]
		}
		if !almostEq(trace, sum, 1e-6*(1+math.Abs(trace))) {
			t.Fatalf("trial %d: trace %v != Σλ %v", trial, trace, sum)
		}
		// Sorted by |λ| descending.
		for i := 1; i < n; i++ {
			if math.Abs(vals[i]) > math.Abs(vals[i-1])+tol {
				t.Fatalf("trial %d: eigenvalues not sorted: %v", trial, vals)
			}
		}
	}
}

func TestEigenSymErrors(t *testing.T) {
	if _, _, err := EigenSym([]float64{1, 2, 3}, 2); err != ErrNotSquare {
		t.Errorf("want ErrNotSquare, got %v", err)
	}
	if _, _, err := EigenSym([]float64{1, 2, 3, 4}, 2); err != ErrNotSymmetric {
		t.Errorf("want ErrNotSymmetric, got %v", err)
	}
}

func TestPCAFullRankExact(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := 20
	a := randomSym(rng, n)
	p, err := NewPCA(a, n)
	if err != nil {
		t.Fatal(err)
	}
	if e := p.ReconErr(n); e > 1e-8 {
		t.Errorf("full-rank ReconErr = %v, want ~0", e)
	}
	if e := p.ReconErr(0); !almostEq(e, 1, tol) {
		t.Errorf("rank-0 ReconErr = %v, want 1", e)
	}
}

func TestPCALowRankMatrixRecovers(t *testing.T) {
	// Build an exactly rank-3 symmetric matrix; k=3 must reconstruct it.
	rng := rand.New(rand.NewSource(21))
	n := 30
	a := make([]float64, n*n)
	for r := 0; r < 3; r++ {
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		lambda := float64(10 * (r + 1))
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a[i*n+j] += lambda * v[i] * v[j]
			}
		}
	}
	p, err := NewPCA(a, n)
	if err != nil {
		t.Fatal(err)
	}
	if e := p.ReconErr(3); e > 1e-6 {
		t.Errorf("rank-3 matrix not recovered at k=3: err %v", e)
	}
	if e := p.ReconErr(1); e < 0.01 {
		t.Errorf("k=1 should not capture a rank-3 matrix: err %v", e)
	}
	if k := p.RankFor(1e-6); k != 3 {
		t.Errorf("RankFor(1e-6) = %d, want 3", k)
	}
}

func TestPCAErrorCurveMonotone(t *testing.T) {
	// For block-structured (community-like) matrices the error curve
	// should fall steeply then flatten — the paper's sparse-transform
	// observation. Verify non-increasing within tolerance.
	rng := rand.New(rand.NewSource(33))
	n := 40
	a := make([]float64, n*n)
	// Four blocks of heavy intra-traffic plus noise.
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			v := rng.Float64() * 0.1
			if i/10 == j/10 {
				v += 5
			}
			a[i*n+j] = v
			a[j*n+i] = v
		}
	}
	p, err := NewPCA(a, n)
	if err != nil {
		t.Fatal(err)
	}
	// Truncation is optimal in Frobenius norm, so the paper's L1-style
	// ReconErr need not fall monotonically at tiny k; the observation to
	// reproduce is the steep drop once the block structure is captured.
	ks := []int{4, 8, 16, 40}
	curve := make([]float64, len(ks))
	for i, k := range ks {
		curve[i] = p.ReconErr(k)
	}
	for i := 1; i < len(curve); i++ {
		if curve[i] > curve[i-1]+1e-6 {
			t.Errorf("error curve increased at k=%d: %v -> %v", ks[i], curve[i-1], curve[i])
		}
	}
	// Block structure: a handful of eigenvectors capture most of it.
	if curve[0] > 0.2 {
		t.Errorf("k=4 on 4-block matrix should reconstruct well, err %v", curve[0])
	}
	if curve[len(curve)-1] > 1e-8 {
		t.Errorf("full rank err %v", curve[len(curve)-1])
	}
}

func TestReconErrZeroMatrix(t *testing.T) {
	if e := ReconErr(make([]float64, 9), make([]float64, 9)); e != 0 {
		t.Errorf("ReconErr(0,0) = %v", e)
	}
}

func TestMatVecAndDot(t *testing.T) {
	a := []float64{1, 2, 3, 4}
	y := MatVec(a, 2, []float64{1, 1})
	if y[0] != 3 || y[1] != 7 {
		t.Errorf("MatVec = %v", y)
	}
	if Dot([]float64{1, 2, 3}, []float64{4, 5, 6}) != 32 {
		t.Error("Dot wrong")
	}
}
