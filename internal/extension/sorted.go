package extension

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"kaleidoscope/internal/aggregator"
	"kaleidoscope/internal/quality"
	"kaleidoscope/internal/questionnaire"
	"kaleidoscope/internal/rank"
	"kaleidoscope/internal/server"
)

// sorted runs the paper's §III-D optimization of the flow: when only one
// comparison question is asked, the participant does not need to see all
// C(N,2) integrated webpages — a comparison sort (binary insertion here)
// chooses which pairs to show next based on earlier answers, cutting the
// comparisons per participant from O(N^2) to O(N log N). Control pages are
// still always shown. SortedRanking recovers the participant's ranking
// from the session.
func (r *Runner) sorted(testID string, info *server.TestInfo, session *server.SessionUpload) error {
	if len(info.Questions) != 1 {
		return fmt.Errorf("extension: sorted flow requires exactly one question, test has %d", len(info.Questions))
	}
	pairs, names, err := indexPairs(info.Pages)
	if err != nil {
		return err
	}
	// Each pair the sort asks about is a visit to its integrated page,
	// recording the response and telemetry as it goes.
	_, err = insertionRank(len(names), func(lo, hi int) (questionnaire.Choice, error) {
		page, ok := pairs[[2]int{lo, hi}]
		if !ok {
			return "", fmt.Errorf("extension: no integrated page for pair (%d,%d)", lo, hi)
		}
		ctx, err := r.loadPage(testID, page)
		if err != nil {
			return "", err
		}
		behavior := r.Worker.BehaveOnce(r.RNG)
		session.Behaviors = append(session.Behaviors, behavior)
		choice, comment := r.Answer(r.Worker, ctx, info.Questions[0], r.RNG)
		session.Responses = append(session.Responses, questionnaire.Response{
			TestID:         testID,
			WorkerID:       r.Worker.ID,
			PageID:         page.ID,
			QuestionID:     questionID(0),
			Choice:         choice,
			Comment:        comment,
			DurationMillis: behavior.TimeOnTaskMillis,
		})
		return choice, nil
	})
	if err != nil {
		return err
	}

	// Control pages are non-negotiable regardless of flow.
	for _, page := range info.Pages {
		if page.Kind != aggregator.KindControl {
			continue
		}
		ctx, err := r.loadPage(testID, page)
		if err != nil {
			return err
		}
		behavior := r.Worker.BehaveOnce(r.RNG)
		session.Behaviors = append(session.Behaviors, behavior)
		choice, _ := r.Answer(r.Worker, ctx, info.Questions[0], r.RNG)
		// Expected is filled in server-side from storage on upload.
		session.Controls = append(session.Controls, quality.ControlOutcome{
			PageID: page.ID,
			Got:    choice,
		})
	}
	return nil
}

// SortedRanking is the ranking, best first, a sorted-flow participant
// derived over n versions: the flow's binary insertion replayed from the
// session's responses, in the order the flow recorded them.
func SortedRanking(responses []questionnaire.Response, n int) ([]int, error) {
	next := 0
	res, err := insertionRank(n, func(lo, hi int) (questionnaire.Choice, error) {
		if next == len(responses) {
			return "", errors.New("extension: the session ends before its sort does")
		}
		resp := responses[next]
		next++
		if i, j, ok := parsePairPageID(resp.PageID); !ok || i != lo || j != hi {
			return "", fmt.Errorf("extension: the session answered %s where the sort visits pair (%d,%d)", resp.PageID, lo, hi)
		}
		return resp.Choice, nil
	})
	if err != nil {
		return nil, err
	}
	if next != len(responses) {
		return nil, fmt.Errorf("extension: the sort visits %d pairs, the session answered %d", next, len(responses))
	}
	return res.Order, nil
}

// insertionRank ranks n versions by binary insertion, asking choose for the
// answer on the integrated page of each pair it compares — lo on the left,
// hi on the right. The first error ends the sort.
func insertionRank(n int, choose func(lo, hi int) (questionnaire.Choice, error)) (*rank.Result, error) {
	var chooseErr error
	res, err := rank.InsertionSortRank(n, func(a, b int) rank.Outcome {
		if chooseErr != nil {
			return rank.OutcomeTie
		}
		choice, err := choose(min(a, b), max(a, b))
		if err != nil {
			chooseErr = err
			return rank.OutcomeTie
		}
		if a > b {
			return mirrorOutcome(choiceToOutcome(choice))
		}
		return choiceToOutcome(choice)
	})
	if chooseErr != nil {
		return nil, chooseErr
	}
	return res, err
}

// choiceToOutcome maps a side answer to a sort outcome with the left page
// as "a".
func choiceToOutcome(c questionnaire.Choice) rank.Outcome {
	switch c {
	case questionnaire.ChoiceLeft:
		return rank.OutcomeA
	case questionnaire.ChoiceRight:
		return rank.OutcomeB
	default:
		return rank.OutcomeTie
	}
}

// mirrorOutcome swaps A and B.
func mirrorOutcome(o rank.Outcome) rank.Outcome {
	switch o {
	case rank.OutcomeA:
		return rank.OutcomeB
	case rank.OutcomeB:
		return rank.OutcomeA
	default:
		return o
	}
}

// indexPairs decodes "pair-i-j" real pages into a (i,j) lookup and derives
// the version-name list (index -> left/right name).
func indexPairs(pages []server.PageView) (map[[2]int]server.PageView, []string, error) {
	pairs := make(map[[2]int]server.PageView)
	names := make(map[int]string)
	maxIdx := -1
	for _, p := range pages {
		if p.Kind != aggregator.KindReal {
			continue
		}
		i, j, ok := parsePairPageID(p.ID)
		if !ok {
			return nil, nil, fmt.Errorf("extension: unparsable pair page id %q", p.ID)
		}
		pairs[[2]int{i, j}] = p
		names[i] = p.LeftName
		names[j] = p.RightName
		if j > maxIdx {
			maxIdx = j
		}
		if i > maxIdx {
			maxIdx = i
		}
	}
	out := make([]string, maxIdx+1)
	for idx := range out {
		name, ok := names[idx]
		if !ok {
			return nil, nil, fmt.Errorf("extension: version index %d missing from page set", idx)
		}
		out[idx] = name
	}
	return pairs, out, nil
}

// parsePairPageID decodes the aggregator's "pair-i-j" ids.
func parsePairPageID(id string) (i, j int, ok bool) {
	rest, found := strings.CutPrefix(id, "pair-")
	if !found {
		return 0, 0, false
	}
	parts := strings.SplitN(rest, "-", 2)
	if len(parts) != 2 {
		return 0, 0, false
	}
	i, err1 := strconv.Atoi(parts[0])
	j, err2 := strconv.Atoi(parts[1])
	if err1 != nil || err2 != nil || i < 0 || j <= i {
		return 0, 0, false
	}
	return i, j, true
}
