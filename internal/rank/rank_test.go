package rank

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// truthComparator prefers lower "distance to ideal" per a fixed utility
// slice: version with higher utility wins.
func truthComparator(utils []float64) Comparator {
	return func(a, b int) Outcome {
		switch {
		case utils[a] > utils[b]:
			return OutcomeA
		case utils[b] > utils[a]:
			return OutcomeB
		default:
			return OutcomeTie
		}
	}
}

func TestFullRoundRobin(t *testing.T) {
	utils := []float64{0.2, 0.9, 0.5, 0.7, 0.1}
	res, err := FullRoundRobin(5, truthComparator(utils))
	if err != nil {
		t.Fatalf("FullRoundRobin: %v", err)
	}
	want := []int{1, 3, 2, 0, 4}
	for i := range want {
		if res.Order[i] != want[i] {
			t.Fatalf("order = %v, want %v", res.Order, want)
		}
	}
	if res.Comparisons != 10 {
		t.Errorf("comparisons = %d, want C(5,2)=10", res.Comparisons)
	}
}

func TestFullRoundRobinErrors(t *testing.T) {
	if _, err := FullRoundRobin(1, truthComparator([]float64{1})); err != ErrTooFewVersions {
		t.Errorf("err = %v", err)
	}
	if _, err := FullRoundRobin(3, nil); err == nil {
		t.Error("nil comparator should fail")
	}
	bad := func(a, b int) Outcome { return Outcome(0) }
	if _, err := FullRoundRobin(3, bad); err == nil {
		t.Error("invalid outcome should fail")
	}
}

func TestInsertionSortRank(t *testing.T) {
	utils := []float64{0.2, 0.9, 0.5, 0.7, 0.1}
	res, err := InsertionSortRank(5, truthComparator(utils))
	if err != nil {
		t.Fatalf("InsertionSortRank: %v", err)
	}
	want := []int{1, 3, 2, 0, 4}
	for i := range want {
		if res.Order[i] != want[i] {
			t.Fatalf("order = %v, want %v", res.Order, want)
		}
	}
	if res.Comparisons >= 10 {
		t.Errorf("insertion sort used %d comparisons, should beat round-robin's 10", res.Comparisons)
	}
}

func TestMergeSortRank(t *testing.T) {
	utils := []float64{0.2, 0.9, 0.5, 0.7, 0.1}
	res, err := MergeSortRank(5, truthComparator(utils))
	if err != nil {
		t.Fatalf("MergeSortRank: %v", err)
	}
	want := []int{1, 3, 2, 0, 4}
	for i := range want {
		if res.Order[i] != want[i] {
			t.Fatalf("order = %v, want %v", res.Order, want)
		}
	}
	if res.Comparisons >= 10 {
		t.Errorf("merge sort used %d comparisons, should beat 10", res.Comparisons)
	}
}

func TestSortRankErrors(t *testing.T) {
	if _, err := InsertionSortRank(1, nil); err != ErrTooFewVersions {
		t.Errorf("err = %v", err)
	}
	if _, err := InsertionSortRank(3, nil); err == nil {
		t.Error("nil comparator")
	}
	if _, err := MergeSortRank(1, nil); err != ErrTooFewVersions {
		t.Errorf("err = %v", err)
	}
	if _, err := MergeSortRank(3, nil); err == nil {
		t.Error("nil comparator")
	}
	bad := func(a, b int) Outcome { return Outcome(99) }
	if _, err := InsertionSortRank(3, bad); err == nil {
		t.Error("invalid outcome should fail (insertion)")
	}
	if _, err := MergeSortRank(3, bad); err == nil {
		t.Error("invalid outcome should fail (merge)")
	}
}

// TestSortingAgreesWithRoundRobinProperty: with a consistent (transitive)
// comparator and distinct utilities, all three methods produce the same
// ranking; the sorts use fewer comparisons for n >= 4.
func TestSortingAgreesWithRoundRobinProperty(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		n := int(sz%8) + 4 // 4..11
		rng := rand.New(rand.NewSource(seed))
		utils := make([]float64, n)
		for i := range utils {
			utils[i] = float64(i) + 0.5
		}
		rng.Shuffle(n, func(i, j int) { utils[i], utils[j] = utils[j], utils[i] })
		cmp := truthComparator(utils)
		rr, err1 := FullRoundRobin(n, cmp)
		ins, err2 := InsertionSortRank(n, cmp)
		mrg, err3 := MergeSortRank(n, cmp)
		if err1 != nil || err2 != nil || err3 != nil {
			return false
		}
		for i := range rr.Order {
			if rr.Order[i] != ins.Order[i] || rr.Order[i] != mrg.Order[i] {
				return false
			}
		}
		return ins.Comparisons < rr.Comparisons && mrg.Comparisons < rr.Comparisons
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestTieHandling(t *testing.T) {
	allTie := func(a, b int) Outcome { return OutcomeTie }
	rr, err := FullRoundRobin(4, allTie)
	if err != nil {
		t.Fatal(err)
	}
	// All tied: deterministic index order.
	for i, v := range rr.Order {
		if v != i {
			t.Errorf("tied order = %v, want identity", rr.Order)
			break
		}
	}
	ins, err := InsertionSortRank(4, allTie)
	if err != nil {
		t.Fatal(err)
	}
	if len(ins.Order) != 4 {
		t.Errorf("insertion tied order = %v", ins.Order)
	}
	mrg, err := MergeSortRank(4, allTie)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range mrg.Order {
		if v != i {
			t.Errorf("merge tied order = %v, want identity (stability)", mrg.Order)
			break
		}
	}
}

func TestRankDistribution(t *testing.T) {
	rankings := [][]int{
		{1, 0, 2}, // participant 1: version 1 best
		{1, 2, 0},
		{0, 1, 2},
		{1, 0, 2},
	}
	dist, err := RankDistribution(rankings, 3)
	if err != nil {
		t.Fatalf("RankDistribution: %v", err)
	}
	// Rank 0 ("A"): version 1 three times, version 0 once.
	if dist[0][1] != 0.75 || dist[0][0] != 0.25 || dist[0][2] != 0 {
		t.Errorf("rank A dist = %v", dist[0])
	}
	// Each rank row sums to 1.
	for pos, row := range dist {
		var sum float64
		for _, p := range row {
			sum += p
		}
		if sum < 0.999 || sum > 1.001 {
			t.Errorf("rank %d row sums to %v", pos, sum)
		}
	}
}

func TestRankDistributionErrors(t *testing.T) {
	if _, err := RankDistribution(nil, 3); err == nil {
		t.Error("no rankings should fail")
	}
	if _, err := RankDistribution([][]int{{0, 1}}, 3); err == nil {
		t.Error("wrong length should fail")
	}
	if _, err := RankDistribution([][]int{{0, 0, 1}}, 3); err == nil {
		t.Error("non-permutation should fail")
	}
	if _, err := RankDistribution([][]int{{0, 1, 5}}, 3); err == nil {
		t.Error("out-of-range should fail")
	}
	if _, err := RankDistribution([][]int{{0}}, 0); err == nil {
		t.Error("n=0 should fail")
	}
}

func TestBordaScores(t *testing.T) {
	rankings := [][]int{
		{1, 0, 2},
		{1, 2, 0},
	}
	scores, err := BordaScores(rankings, 3)
	if err != nil {
		t.Fatalf("BordaScores: %v", err)
	}
	// Version 1: rank0 twice = 2+2 = 4. Version 0: rank1 + rank2 = 1+0 = 1.
	// Version 2: rank2 + rank1 = 0+1 = 1.
	if scores[1] != 4 || scores[0] != 1 || scores[2] != 1 {
		t.Errorf("scores = %v", scores)
	}
	if _, err := BordaScores(nil, 3); err == nil {
		t.Error("no rankings should fail")
	}
	if _, err := BordaScores([][]int{{0}}, 3); err == nil {
		t.Error("bad length should fail")
	}
	if _, err := BordaScores([][]int{{0, 1, 9}}, 3); err == nil {
		t.Error("out of range should fail")
	}
}

func TestPairCount(t *testing.T) {
	if PairCount(5) != 10 || PairCount(2) != 1 {
		t.Error("PairCount wrong")
	}
}

// TestComparisonCountsScale documents the asymptotic gap the paper's
// sorting optimization exploits.
func TestComparisonCountsScale(t *testing.T) {
	utils := make([]float64, 20)
	for i := range utils {
		utils[i] = float64(i)
	}
	cmp := truthComparator(utils)
	rr, _ := FullRoundRobin(20, cmp)
	mrg, _ := MergeSortRank(20, cmp)
	if rr.Comparisons != 190 {
		t.Errorf("round-robin = %d, want 190", rr.Comparisons)
	}
	if mrg.Comparisons > 90 {
		t.Errorf("merge sort = %d comparisons for n=20, want <= ~88", mrg.Comparisons)
	}
}
