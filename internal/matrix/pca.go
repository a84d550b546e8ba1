package matrix

import "math"

// PCA is the eigendecomposition of one symmetric matrix, ready to be
// truncated to any rank. Build it once, then sweep k.
type PCA struct {
	N      int
	M      []float64 // the original matrix
	Values []float64 // eigenvalues, |λ| descending
	Vecs   []float64 // eigenvectors, column j pairs with Values[j]
}

// NewPCA decomposes the symmetric n×n matrix m.
func NewPCA(m []float64, n int) (*PCA, error) {
	vals, vecs, err := EigenSym(m, n)
	if err != nil {
		return nil, err
	}
	cp := make([]float64, len(m))
	copy(cp, m)
	return &PCA{N: n, M: cp, Values: vals, Vecs: vecs}, nil
}

// Reconstruct returns the rank-k truncation Mk = Ek·Dk·Ekᵀ (§2.2). k is
// clamped to [0, N].
func (p *PCA) Reconstruct(k int) []float64 {
	if k < 0 {
		k = 0
	}
	if k > p.N {
		k = p.N
	}
	n := p.N
	mk := make([]float64, n*n)
	for l := 0; l < k; l++ {
		lambda := p.Values[l]
		//lint:allow floatcmp exact-zero skip of an empty eigenvalue; a tolerance would silently drop genuinely small signal
		if lambda == 0 {
			continue
		}
		col := Column(p.Vecs, n, l)
		for i := 0; i < n; i++ {
			li := lambda * col[i]
			//lint:allow floatcmp exact-zero sparsity skip: adding 0·col[j] is a no-op, so only bit-exact zeros may be skipped
			if li == 0 {
				continue
			}
			row := mk[i*n : (i+1)*n]
			for j := 0; j < n; j++ {
				row[j] += li * col[j]
			}
		}
	}
	return mk
}

// ReconErr returns the paper's reconstruction error: the absolute sum of
// entries of M−Mk, normalized by the absolute sum of M. By construction
// ReconErr(N) ≈ 0 and the error is non-increasing in signal captured.
func (p *PCA) ReconErr(k int) float64 {
	mk := p.Reconstruct(k)
	return ReconErr(p.M, mk)
}

// ReconErr computes sum|m−mk| / sum|m| for equal-shape flat matrices.
// A zero matrix reconstructs perfectly (error 0).
func ReconErr(m, mk []float64) float64 {
	var num, den float64
	for i := range m {
		num += math.Abs(m[i] - mk[i])
		den += math.Abs(m[i])
	}
	//lint:allow floatcmp guard against dividing by an exactly-zero matrix norm; any nonzero norm is a valid denominator
	if den == 0 {
		return 0
	}
	return num / den
}

// RankFor returns the smallest k whose reconstruction error is at or below
// target — "how many eigenvectors suffice" (the paper reports k=25 of n>500
// reaching < 0.05 on K8s PaaS).
func (p *PCA) RankFor(target float64) int {
	for k := 0; k <= p.N; k++ {
		if p.ReconErr(k) <= target {
			return k
		}
	}
	return p.N
}
