package experiments

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"

	"kaleidoscope/internal/core"
	"kaleidoscope/internal/crowd"
	"kaleidoscope/internal/extension"
	"kaleidoscope/internal/rank"
	"kaleidoscope/internal/stats"
)

// SortedStudyResult compares the full C(N,2) flow against the paper's
// §III-D sorted flow, end-to-end through the real pipeline (aggregation,
// HTTP API, extension runners).
type SortedStudyResult struct {
	Versions int
	Workers  int
	// Mean side-by-side comparisons each participant performed.
	FullComparisons   float64
	SortedComparisons float64
	// Aggregate orders (version indices, best first) per flow.
	FullOrder   []int
	SortedOrder []int
	// OrderAgreement is the Kendall tau between the two aggregate orders.
	OrderAgreement float64
}

// RunSortedStudy executes both flavours of the 5-version font study with
// the given cohort size and compares cost and outcome.
func RunSortedStudy(workers int, rng *rand.Rand) (*SortedStudyResult, error) {
	if rng == nil {
		return nil, errors.New("experiments: nil random source")
	}
	if workers < 5 {
		return nil, errors.New("experiments: need at least 5 workers")
	}
	cfg := Fig4Config{}.withDefaults()
	n := len(cfg.FontSizesPt)
	res := &SortedStudyResult{Versions: n, Workers: workers}

	runOne := func(testID string, sorted bool) (*core.Outcome, error) {
		pool, err := crowd.TrustedCrowd(workers*2, rng)
		if err != nil {
			return nil, err
		}
		study, err := buildFontStudy(cfg, testID, pool, workers, true)
		if err != nil {
			return nil, err
		}
		study.Params.Sorted = sorted
		return runStudy(study, rng)
	}

	full, err := runOne("sorted-study-full", false)
	if err != nil {
		return nil, err
	}
	sorted, err := runOne("sorted-study-sorted", true)
	if err != nil {
		return nil, err
	}

	res.FullComparisons = meanResponses(full)
	res.SortedComparisons = meanResponses(sorted)

	// Aggregate order from the full flow: Borda over per-worker rankings.
	fullRankings, err := core.WorkerRankings(full, "q0", n)
	if err != nil {
		return nil, err
	}
	fullScores, err := rank.BordaScores(fullRankings, n)
	if err != nil {
		return nil, err
	}
	res.FullOrder = orderOfScores(fullScores)

	// Aggregate order from the sorted flow: Borda over the rankings each
	// participant's sort derived.
	var sortedRankings [][]int
	for _, s := range sorted.Sessions {
		order, err := extension.SortedRanking(s.Responses, n)
		if err != nil {
			return nil, err
		}
		sortedRankings = append(sortedRankings, order)
	}
	sortedScores, err := rank.BordaScores(sortedRankings, n)
	if err != nil {
		return nil, err
	}
	res.SortedOrder = orderOfScores(sortedScores)

	tau, err := stats.KendallTau(fullScores, sortedScores)
	if err != nil {
		return nil, err
	}
	res.OrderAgreement = tau
	return res, nil
}

// meanResponses averages per-session response counts.
func meanResponses(o *core.Outcome) float64 {
	if len(o.Sessions) == 0 {
		return 0
	}
	var total int
	for _, s := range o.Sessions {
		total += len(s.Responses)
	}
	return float64(total) / float64(len(o.Sessions))
}

// orderOfScores ranks version indices by descending score (ties by index).
func orderOfScores(scores []float64) []int {
	order := make([]int, len(scores))
	for i := range order {
		order[i] = i
	}
	for i := 1; i < len(order); i++ {
		for j := i; j > 0; j-- {
			a, b := order[j-1], order[j]
			if scores[b] > scores[a] || (scores[b] == scores[a] && b < a) {
				order[j-1], order[j] = b, a
			} else {
				break
			}
		}
	}
	return order
}

// FormatSortedStudy renders the comparison.
func FormatSortedStudy(res *SortedStudyResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Extension — sorted flow vs full round-robin, end-to-end (N=%d versions, %d workers each)\n",
		res.Versions, res.Workers)
	fmt.Fprintf(&b, "  %-12s %22s   %s\n", "flow", "comparisons/worker", "aggregate order (version indices, best first)")
	fmt.Fprintf(&b, "  %-12s %22.1f   %v\n", "full", res.FullComparisons, res.FullOrder)
	fmt.Fprintf(&b, "  %-12s %22.1f   %v\n", "sorted", res.SortedComparisons, res.SortedOrder)
	fmt.Fprintf(&b, "  aggregate-order agreement (Kendall tau): %.3f\n", res.OrderAgreement)
	return b.String()
}
