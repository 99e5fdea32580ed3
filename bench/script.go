package main

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"

	"kaleidoscope/internal/crowd"
	"kaleidoscope/internal/params"
	"kaleidoscope/internal/quality"
	"kaleidoscope/internal/questionnaire"
	"kaleidoscope/internal/server"
	"kaleidoscope/internal/webgen"
)

// The script's fixed shape: the paper's two-version test (one real pair
// plus the identical-pair control), a 200-participant crowd per test, and
// experimenter polls every 10th session.
const (
	rounds          = 5
	setups          = 3 // set-ups per end-to-end run; setup_s is their median
	sessionsPerTest = 200
	batchSize       = 100
	pollEvery       = 10
	contentVariants = 32
	realPage        = "pair-0-1"
	controlPage     = "control-same"
	testers         = 2
)

// pageFiles are the three resources of one integrated page, in the order
// a browser requests them.
var pageFiles = []string{"index.html", "left.html", "right.html"}

// scriptTest is one test of the script with its whole crowd: the worker
// ids in document-id order and the request bodies, marshalled here so the
// timed part never builds a session.
type scriptTest struct {
	ID          string
	Batch       bool     // uploaded through sessions:batch, not one by one
	Left, Right int      // content variant of each version
	Workers     []string // sessionsPerTest ids, ascending
	Singles     [][]byte // flow tests: one JSON body per session
	Batches     [][]byte // batch tests: gzip JSON arrays of batchSize sessions
	seed        int64    // the crowd's random stream

	// PageLen is the byte length of each file of each integrated page,
	// recorded when the test is prepared: [real, control][index, left, right].
	PageLen [2][3]int
}

// scriptRound is one round's fresh tests: the flow part, then the batch
// part.
type scriptRound struct {
	Flow, Batch []*scriptTest
}

// script is the whole seeded traffic script. Test i's content depends only
// on (seed, kind, round, i), so a shorter script is a prefix of a longer
// one with the same seed.
type script struct {
	Seed     int64
	Variants []*webgen.Site
	Warm     *scriptTest
	Rounds   []scriptRound
	Hash     string
}

// tests lists every test of the script, warm-up first.
func (s *script) tests() []*scriptTest {
	out := []*scriptTest{s.Warm}
	for _, r := range s.Rounds {
		out = append(out, r.Flow...)
		out = append(out, r.Batch...)
	}
	return out
}

// mix derives an independent stream seed from the script seed and a
// position (splitmix64 finaliser), so tests can be generated in any order.
func mix(seed int64, parts ...int) int64 {
	z := uint64(seed)
	for _, p := range parts {
		z += 0x9e3779b97f4a7c15 + uint64(p)
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
	}
	return int64(z >> 1)
}

// newScript generates nRounds rounds of flowPerRound flow tests and
// batchPerRound batch tests from seed.
func newScript(seed int64, flowPerRound, batchPerRound, nRounds int) *script {
	s := &script{Seed: seed, Variants: make([]*webgen.Site, contentVariants)}
	for i := range s.Variants {
		s.Variants[i] = webgen.WikiArticle(webgen.WikiConfig{
			Seed:       mix(seed, 0, i),
			FontSizePt: 10 + 2*(i%7),
		})
	}
	// Versions walk a seeded permutation of the variants two at a time, so
	// every variant is served about equally often whatever the seed. The
	// walk position and the crowd's stream depend only on (kind, round, idx).
	perm := rand.New(rand.NewSource(mix(seed, 1))).Perm(contentVariants)
	newTest := func(kind byte, round, idx int) *scriptTest {
		k := idx + 5*round
		if kind == 'b' {
			k += contentVariants / 4
		}
		return &scriptTest{
			ID:    fmt.Sprintf("s%x-r%d-%c%03d", uint64(seed)&0xffff, round, kind, idx),
			Batch: kind == 'b',
			Left:  perm[(2*k)%contentVariants],
			Right: perm[(2*k+1)%contentVariants],
			seed:  mix(seed, 2, int(kind), round, idx),
		}
	}
	s.Warm = newTest('w', 0, 0)
	s.Rounds = make([]scriptRound, nRounds)
	for r := range s.Rounds {
		for i := 0; i < flowPerRound; i++ {
			s.Rounds[r].Flow = append(s.Rounds[r].Flow, newTest('f', r, i))
		}
		for i := 0; i < batchPerRound; i++ {
			s.Rounds[r].Batch = append(s.Rounds[r].Batch, newTest('b', r, i))
		}
	}

	// Bodies are the expensive part; tests are independent, so fill them
	// from one goroutine per tester core.
	all := s.tests()
	var wg sync.WaitGroup
	for g := 0; g < testers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var zbuf bytes.Buffer
			zw, _ := gzip.NewWriterLevel(&zbuf, gzip.BestSpeed) // level is valid: no error
			for i := g; i < len(all); i += testers {
				all[i].fill(zw, &zbuf)
			}
		}(g)
	}
	wg.Wait()

	h := sha256.New()
	for _, t := range all {
		fmt.Fprintf(h, "%s %d %d\n", t.ID, t.Left, t.Right)
		for _, b := range t.Singles {
			h.Write(b)
		}
		for _, b := range t.Batches {
			h.Write(b)
		}
	}
	s.Hash = hex.EncodeToString(h.Sum(nil))
	return s
}

// choiceFor is session idx's answer on the real page. Tester g uploads the
// sessions with idx%testers == g; each tester's own sequence alternates
// and the two start on opposite sides, so every arrival order the two
// closed loops can produce — and document-id order — keeps left and right
// within one vote of each other. The e-process never latches: early
// stopping's fold cost is measured, its verdict path is not.
func choiceFor(idx int) questionnaire.Choice {
	g, j := idx%testers, idx/testers
	if (j%2 == 0) != (g == 1) {
		return questionnaire.ChoiceLeft
	}
	return questionnaire.ChoiceRight
}

var (
	genders   = []string{"female", "male", "other"}
	ageBands  = []string{"18-24", "25-34", "35-44", "45-54", "55+"}
	countries = []string{"US", "IN", "BR", "DE", "PH", "NG", "VN", "GB"}
	comments  = []string{"", "", "", "left felt easier to read", "right loaded more smoothly", "hard to tell apart"}
)

// sessions draws the test's crowd. One worker in eight is unengaged
// (comparison times under the battery's 3 s floor), so quality control
// has something to drop.
func (t *scriptTest) sessions(rng *rand.Rand) []server.SessionUpload {
	out := make([]server.SessionUpload, sessionsPerTest)
	t.Workers = make([]string, sessionsPerTest)
	for idx := range out {
		worker := fmt.Sprintf("w%03d-%06x", idx, rng.Intn(1<<24))
		t.Workers[idx] = worker
		think := func() int {
			if rng.Intn(8) == 0 {
				return 600 + rng.Intn(2000)
			}
			return 4000 + rng.Intn(56000)
		}
		first, second := think(), think()
		out[idx] = server.SessionUpload{
			TestID:   t.ID,
			WorkerID: worker,
			Demographics: crowd.Demographics{
				Gender:      genders[rng.Intn(len(genders))],
				AgeBand:     ageBands[rng.Intn(len(ageBands))],
				Country:     countries[rng.Intn(len(countries))],
				TechAbility: 1 + rng.Intn(5),
			},
			Responses: []questionnaire.Response{{
				TestID:         t.ID,
				WorkerID:       worker,
				PageID:         realPage,
				QuestionID:     "q0",
				Choice:         choiceFor(idx),
				Comment:        comments[rng.Intn(len(comments))],
				DurationMillis: first,
			}},
			Behaviors: []crowd.Behavior{
				{TimeOnTaskMillis: first, CreatedTabs: 1 + rng.Intn(2), ActiveTabSwitches: 2 + rng.Intn(4)},
				{TimeOnTaskMillis: second, CreatedTabs: 1, ActiveTabSwitches: 2 + rng.Intn(3)},
			},
			Controls: []quality.ControlOutcome{{PageID: controlPage, Got: questionnaire.ChoiceSame}},
		}
	}
	return out
}

// fill generates the test's crowd and marshals its request bodies.
func (t *scriptTest) fill(zw *gzip.Writer, zbuf *bytes.Buffer) {
	sessions := t.sessions(rand.New(rand.NewSource(t.seed)))
	if !t.Batch {
		t.Singles = make([][]byte, len(sessions))
		for i := range sessions {
			t.Singles[i] = mustJSON(&sessions[i])
		}
		return
	}
	for lo := 0; lo < len(sessions); lo += batchSize {
		zbuf.Reset()
		zw.Reset(zbuf)
		// Writes into a bytes.Buffer cannot fail.
		_, _ = zw.Write(mustJSON(sessions[lo : lo+batchSize]))
		_ = zw.Close()
		t.Batches = append(t.Batches, append([]byte(nil), zbuf.Bytes()...))
	}
}

// mustJSON marshals a value built from plain structs; failure is a bug.
func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// params renders the test's Table-I parameters: two versions, one
// question, uniform 1 s replay.
func (t *scriptTest) params() *params.Test {
	version := func(v int) params.Webpage {
		return params.Webpage{
			WebPath:     fmt.Sprintf("v%02d", v),
			WebPageLoad: params.PageLoadSpec{UniformMillis: 1000},
			WebMainFile: "index.html",
		}
	}
	return &params.Test{
		TestID:          t.ID,
		WebpageNum:      2,
		TestDescription: "bench tester-flow study",
		ParticipantNum:  sessionsPerTest,
		Questions:       []string{"Which version is easier to read?"},
		Webpages:        []params.Webpage{version(t.Left), version(t.Right)},
	}
}

// sites maps the test's web paths onto its two content variants.
func (t *scriptTest) sites(variants []*webgen.Site) map[string]*webgen.Site {
	return map[string]*webgen.Site{
		fmt.Sprintf("v%02d", t.Left):  variants[t.Left],
		fmt.Sprintf("v%02d", t.Right): variants[t.Right],
	}
}
