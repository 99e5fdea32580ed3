// Package rank turns pairwise side-by-side comparisons into rankings.
//
// With N webpage versions Kaleidoscope generates C(N,2) integrated pages, so
// each participant produces a full round-robin of pairwise outcomes; a
// Copeland scoring converts those into the participant's ranking (the
// per-rank distributions of the paper's Fig. 4). The paper also mentions
// using sorting algorithms to reduce the number of comparisons when only
// one comparison question is asked — insertion- and merge-sort comparators
// are implemented here, with comparison counting, so the ablation bench can
// quantify the saving and the agreement cost.
package rank

import (
	"errors"
	"fmt"
	"sort"
)

// Outcome is the result of comparing version a to version b.
type Outcome int

// Comparison outcomes. Enums start at 1 so the zero value is invalid.
const (
	OutcomeA Outcome = iota + 1 // a preferred
	OutcomeB                    // b preferred
	OutcomeTie
)

// Comparator reports the participant's preference between versions a and b
// (indices into the version list). Implementations are typically backed by
// a perception model or by recorded responses.
type Comparator func(a, b int) Outcome

// Result is a produced ranking.
type Result struct {
	// Order lists version indices from best (rank "A") to worst.
	Order []int
	// Comparisons is how many comparator calls were spent.
	Comparisons int
}

// ErrTooFewVersions is returned for n < 2.
var ErrTooFewVersions = errors.New("rank: need at least two versions")

// FullRoundRobin performs all C(N,2) comparisons and ranks versions by
// Copeland score (wins minus losses; ties contribute nothing). Score ties
// break by lower index, keeping results deterministic.
func FullRoundRobin(n int, cmp Comparator) (*Result, error) {
	if n < 2 {
		return nil, ErrTooFewVersions
	}
	if cmp == nil {
		return nil, errors.New("rank: nil comparator")
	}
	scores := make([]int, n)
	res := &Result{}
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			res.Comparisons++
			switch cmp(a, b) {
			case OutcomeA:
				scores[a]++
				scores[b]--
			case OutcomeB:
				scores[b]++
				scores[a]--
			case OutcomeTie:
				// no score movement
			default:
				return nil, fmt.Errorf("rank: comparator returned invalid outcome for (%d,%d)", a, b)
			}
		}
	}
	res.Order = orderByScore(scores)
	return res, nil
}

// orderByScore returns indices sorted by descending score, ascending index
// on ties.
func orderByScore(scores []int) []int {
	order := make([]int, len(scores))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool {
		return scores[order[i]] > scores[order[j]]
	})
	return order
}

// InsertionSortRank ranks versions with binary-insertion ordering, spending
// far fewer comparisons than a round-robin (O(n log n) vs O(n^2)). Ties
// from the comparator are treated as "keep earlier position".
func InsertionSortRank(n int, cmp Comparator) (*Result, error) {
	if n < 2 {
		return nil, ErrTooFewVersions
	}
	if cmp == nil {
		return nil, errors.New("rank: nil comparator")
	}
	res := &Result{}
	order := []int{0}
	for v := 1; v < n; v++ {
		// Binary search for v's position among the already-ordered items.
		lo, hi := 0, len(order)
		for lo < hi {
			mid := (lo + hi) / 2
			res.Comparisons++
			switch cmp(v, order[mid]) {
			case OutcomeA: // v preferred over order[mid]: v goes earlier
				hi = mid
			case OutcomeB:
				lo = mid + 1
			case OutcomeTie:
				lo = mid + 1
				hi = lo
			default:
				return nil, fmt.Errorf("rank: comparator returned invalid outcome for (%d,%d)", v, order[mid])
			}
		}
		order = append(order, 0)
		copy(order[lo+1:], order[lo:])
		order[lo] = v
	}
	res.Order = order
	return res, nil
}

// MergeSortRank ranks versions with a stable merge sort over the
// comparator.
func MergeSortRank(n int, cmp Comparator) (*Result, error) {
	if n < 2 {
		return nil, ErrTooFewVersions
	}
	if cmp == nil {
		return nil, errors.New("rank: nil comparator")
	}
	res := &Result{}
	var invalid error
	var merge func(items []int) []int
	merge = func(items []int) []int {
		if len(items) <= 1 || invalid != nil {
			return items
		}
		mid := len(items) / 2
		left := merge(items[:mid])
		right := merge(items[mid:])
		out := make([]int, 0, len(items))
		i, j := 0, 0
		for i < len(left) && j < len(right) {
			res.Comparisons++
			switch cmp(left[i], right[j]) {
			case OutcomeA, OutcomeTie: // stability: left wins ties
				out = append(out, left[i])
				i++
			case OutcomeB:
				out = append(out, right[j])
				j++
			default:
				if invalid == nil {
					invalid = fmt.Errorf("rank: comparator returned invalid outcome for (%d,%d)", left[i], right[j])
				}
				return items
			}
		}
		out = append(out, left[i:]...)
		out = append(out, right[j:]...)
		return out
	}
	items := make([]int, n)
	for i := range items {
		items[i] = i
	}
	res.Order = merge(items)
	if invalid != nil {
		return nil, invalid
	}
	return res, nil
}

// RankDistribution aggregates many participants' rankings into the paper's
// Fig. 4 shape: dist[rank][version] is the fraction of participants who
// placed `version` at `rank` (rank 0 = "A" = best). Every ranking must be a
// permutation of 0..n-1.
func RankDistribution(rankings [][]int, n int) ([][]float64, error) {
	if n < 1 {
		return nil, errors.New("rank: n must be positive")
	}
	if len(rankings) == 0 {
		return nil, errors.New("rank: no rankings")
	}
	counts := make([][]int, n)
	for i := range counts {
		counts[i] = make([]int, n)
	}
	for _, r := range rankings {
		if len(r) != n {
			return nil, fmt.Errorf("rank: ranking length %d, want %d", len(r), n)
		}
		seen := make([]bool, n)
		for pos, v := range r {
			if v < 0 || v >= n || seen[v] {
				return nil, fmt.Errorf("rank: ranking %v is not a permutation", r)
			}
			seen[v] = true
			counts[pos][v]++
		}
	}
	dist := make([][]float64, n)
	total := float64(len(rankings))
	for pos := range counts {
		dist[pos] = make([]float64, n)
		for v, c := range counts[pos] {
			dist[pos][v] = float64(c) / total
		}
	}
	return dist, nil
}

// BordaScores converts rankings into per-version Borda scores: a version at
// rank position p among n earns n-1-p points, summed over participants.
// Higher is better.
func BordaScores(rankings [][]int, n int) ([]float64, error) {
	if len(rankings) == 0 {
		return nil, errors.New("rank: no rankings")
	}
	scores := make([]float64, n)
	for _, r := range rankings {
		if len(r) != n {
			return nil, fmt.Errorf("rank: ranking length %d, want %d", len(r), n)
		}
		for pos, v := range r {
			if v < 0 || v >= n {
				return nil, fmt.Errorf("rank: version %d out of range", v)
			}
			scores[v] += float64(n - 1 - pos)
		}
	}
	return scores, nil
}

// PairCount returns C(n,2).
func PairCount(n int) int { return n * (n - 1) / 2 }
