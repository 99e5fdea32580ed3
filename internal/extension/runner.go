package extension

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"kaleidoscope/internal/aggregator"
	"kaleidoscope/internal/crowd"
	"kaleidoscope/internal/htmlx"
	"kaleidoscope/internal/pageload"
	"kaleidoscope/internal/quality"
	"kaleidoscope/internal/questionnaire"
	"kaleidoscope/internal/render"
	"kaleidoscope/internal/server"
)

// PageContext is everything the perception model may look at for one
// side-by-side comparison: the parsed side documents and their simulated
// replays. This mirrors what a human sees — the rendered pages and their
// loading behaviour — not the test's metadata. Page is the server's
// redacted view, so answer functions cannot peek at control answers.
type PageContext struct {
	Page      server.PageView
	Left      *htmlx.Node
	Right     *htmlx.Node
	LeftPlay  *pageload.Replay
	RightPlay *pageload.Replay
}

// AnswerFunc produces a worker's answer (and optional free-text comment)
// to one question on one page.
type AnswerFunc func(w *crowd.Worker, ctx *PageContext, question string, rng *rand.Rand) (questionnaire.Choice, string)

// ErrAbandoned reports a worker who walked away before completing a single
// comparison: nothing was uploaded, and from the platform's point of view
// the worker simply vanished. Abandonment after at least one completed page
// is not an error — the extension flushes what it has as a partial session
// (quality control later drops it for missing responses, but it still lands
// in the raw tallies).
var ErrAbandoned = errors.New("extension: worker abandoned the session")

// surveyComments is the canned free-text pool questionnaire-heavy workers
// draw from when they leave feedback on an answered question.
var surveyComments = []string{
	"Read both versions twice before deciding.",
	"The difference is subtle but consistent across paragraphs.",
	"Hard to tell apart; went with my first impression.",
	"Right side felt more comfortable after a longer look.",
	"Left side was easier on the eyes for body text.",
	"Honestly both seemed fine for short reading sessions.",
}

// Runner executes the Fig. 3 test flow for one participant: the full
// round-robin, or the paper's §III-D sorted flow (sorted.go) when the
// served test is sorted.
type Runner struct {
	Client *Client
	Worker *crowd.Worker
	// Answer decides each comparison; see the Answer* constructors in
	// answers.go.
	Answer AnswerFunc
	// RNG drives perception noise, behaviour, and uniform replays.
	RNG *rand.Rand
}

// Run performs the whole flow and returns the uploaded session with the
// upload's outcome. Each page the flow visits is downloaded, both sides
// are parsed and replayed, its questions are answered, telemetry is
// recorded, and the session is posted to the core server. A session
// answered UploadConcluded finished the flow but was not stored, because
// the sequential engine had already decided the test.
func (r *Runner) Run(testID string) (*server.SessionUpload, UploadOutcome, error) {
	session, err := r.Build(testID)
	if err != nil {
		return nil, UploadStored, err
	}
	outcome, err := r.Client.UploadSession(testID, *session)
	if err != nil {
		return nil, outcome, err
	}
	return session, outcome, nil
}

// Build performs the flow up to — but not including — the upload and
// returns the finished session. Batch-mode drivers build sessions through
// this and ship them via Client.UploadBatch instead of one POST per
// participant.
func (r *Runner) Build(testID string) (*server.SessionUpload, error) {
	if r.Client == nil || r.Worker == nil || r.Answer == nil {
		return nil, errors.New("extension: runner missing client, worker, or answer function")
	}
	if r.RNG == nil {
		return nil, errors.New("extension: runner needs a random source")
	}
	info, err := r.Client.TestInfo(testID)
	if err != nil {
		return nil, err
	}
	session := &server.SessionUpload{
		TestID:       testID,
		WorkerID:     r.Worker.ID,
		Demographics: r.Worker.Demo,
	}
	if info.Sorted {
		err = r.sorted(testID, info, session)
	} else {
		err = r.full(testID, info, session)
	}
	if err != nil {
		return nil, err
	}
	return session, nil
}

// full visits every page of the test and answers every question on each.
func (r *Runner) full(testID string, info *server.TestInfo, session *server.SessionUpload) error {
	for _, page := range info.Pages {
		// Churn-prone workers may walk away before opening the next page.
		// The guard keeps the RNG stream of non-abandoning archetypes
		// untouched, so existing seeded scenarios stay deterministic.
		if r.Worker.AbandonRate > 0 && r.RNG.Float64() < r.Worker.AbandonRate {
			if len(session.Behaviors) == 0 {
				return ErrAbandoned
			}
			return nil
		}
		ctx, err := r.loadPage(testID, page)
		if err != nil {
			return err
		}
		behavior := r.Worker.BehaveOnce(r.RNG)
		session.Behaviors = append(session.Behaviors, behavior)

		for qi, question := range info.Questions {
			choice, comment := r.Answer(r.Worker, ctx, question, r.RNG)
			duration := behavior.TimeOnTaskMillis
			if r.Worker.QuestionDwellMillis > 0 {
				// Questionnaire-heavy workers linger on the question page
				// itself, beyond the comparison the telemetry captured.
				dwell := r.Worker.QuestionDwellMillis * math.Exp(r.RNG.NormFloat64()*0.3)
				duration += int(dwell)
			}
			if page.Kind == aggregator.KindControl {
				// Control pages feed quality control, not results.
				if qi == 0 {
					// The expected answer is not in the payload; the
					// server scores the control from storage on upload.
					session.Controls = append(session.Controls, quality.ControlOutcome{
						PageID: page.ID,
						Got:    choice,
					})
				}
				continue
			}
			if comment == "" && r.Worker.CommentRate > 0 && r.RNG.Float64() < r.Worker.CommentRate {
				comment = surveyComments[r.RNG.Intn(len(surveyComments))]
			}
			session.Responses = append(session.Responses, questionnaire.Response{
				TestID:         testID,
				WorkerID:       r.Worker.ID,
				PageID:         page.ID,
				QuestionID:     questionID(qi),
				Choice:         choice,
				Comment:        comment,
				DurationMillis: duration,
			})
		}
	}
	return nil
}

// questionID derives the stable id for the i-th question.
func questionID(i int) string { return fmt.Sprintf("q%d", i) }

// loadPage downloads an integrated page, parses both sides, and simulates
// their replays from the injected schedules.
func (r *Runner) loadPage(testID string, page server.PageView) (*PageContext, error) {
	// The integrated index page references left.html and right.html; the
	// extension downloads all three like a browser would.
	if _, err := r.Client.FetchPageFile(testID, page.ID, "index.html"); err != nil {
		return nil, err
	}
	ctx := &PageContext{Page: page}
	for _, side := range []struct {
		file string
		doc  **htmlx.Node
		play **pageload.Replay
	}{
		{"left.html", &ctx.Left, &ctx.LeftPlay},
		{"right.html", &ctx.Right, &ctx.RightPlay},
	} {
		raw, err := r.Client.FetchPageFile(testID, page.ID, side.file)
		if err != nil {
			return nil, err
		}
		doc := htmlx.Parse(string(raw))
		*side.doc = doc
		spec, err := pageload.ExtractSpec(doc)
		if err != nil {
			// Pages without an injected schedule display instantly.
			spec = emptySpec()
		}
		replay, err := pageload.Simulate(doc, styleOf(doc), render.DefaultViewport(), spec, r.RNG)
		if err != nil {
			return nil, fmt.Errorf("extension: replaying %s of %s: %w", side.file, page.ID, err)
		}
		*side.play = replay
	}
	return ctx, nil
}
