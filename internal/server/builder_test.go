package server

import (
	"encoding/json"
	"net/http"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"kaleidoscope/internal/params"
)

func validBuilderRequest() BuilderRequest {
	return BuilderRequest{
		TestID:       "built-study",
		Description:  "builder test",
		Participants: 50,
		Questions:    []string{"Which is better?"},
		Webpages: []BuilderWebpage{
			{Path: "v1", UniformLoadMillis: 3000},
			{Path: "v2", Schedule: map[string]int{"#content": 4000, "#navbar": 2000}},
		},
	}
}

func TestBuildParams(t *testing.T) {
	test, err := BuildParams(validBuilderRequest())
	if err != nil {
		t.Fatalf("BuildParams: %v", err)
	}
	if test.TestID != "built-study" || test.WebpageNum != 2 {
		t.Errorf("test = %+v", test)
	}
	// Defaults applied.
	if test.Webpages[0].WebMainFile != "index.html" {
		t.Errorf("default main file = %q", test.Webpages[0].WebMainFile)
	}
	// Scalar form for v1.
	if !test.Webpages[0].WebPageLoad.IsUniform() || test.Webpages[0].WebPageLoad.UniformMillis != 3000 {
		t.Errorf("v1 load = %+v", test.Webpages[0].WebPageLoad)
	}
	// Selector form for v2, deterministically ordered.
	sched := test.Webpages[1].WebPageLoad.Schedule
	if len(sched) != 2 || sched[0].Selector != "#content" || sched[1].Selector != "#navbar" {
		t.Errorf("v2 schedule = %+v", sched)
	}
	// The output is a valid document end-to-end.
	data, err := test.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := params.Parse(data); err != nil {
		t.Errorf("built document does not parse: %v", err)
	}
}

func TestBuildParamsErrors(t *testing.T) {
	req := validBuilderRequest()
	req.Webpages = req.Webpages[:1]
	if _, err := BuildParams(req); err == nil {
		t.Error("one webpage should fail validation")
	}
	req = validBuilderRequest()
	req.Questions = nil
	if _, err := BuildParams(req); err == nil {
		t.Error("no questions should fail")
	}
	req = validBuilderRequest()
	req.TestID = "  "
	if _, err := BuildParams(req); err == nil {
		t.Error("blank id should fail")
	}
}

func TestBuilderEndpoint(t *testing.T) {
	srv, _ := prepTest(t)
	payload, err := json.Marshal(validBuilderRequest())
	if err != nil {
		t.Fatal(err)
	}
	rec := doJSON(t, srv, http.MethodPost, "/api/params/build", payload, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	built, err := params.Parse(rec.Body.Bytes())
	if err != nil {
		t.Fatalf("endpoint output does not parse: %v", err)
	}
	if built.TestID != "built-study" {
		t.Errorf("built = %+v", built)
	}
	// Bad JSON.
	rec = doJSON(t, srv, http.MethodPost, "/api/params/build", []byte("{"), nil)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("bad json status = %d", rec.Code)
	}
	// Invalid request.
	rec = doJSON(t, srv, http.MethodPost, "/api/params/build", []byte(`{"test_id":"x"}`), nil)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("invalid request status = %d", rec.Code)
	}
	// A misspelt key, at the top and in a webpage: a 400 naming it, not a
	// document built with that field at zero.
	for misspelt, key := range map[string]string{"participants": "participant_num", "uniform_load_millis": "load_millis"} {
		body := strings.Replace(string(payload), `"`+misspelt+`"`, `"`+key+`"`, 1)
		rec = doJSON(t, srv, http.MethodPost, "/api/params/build", []byte(body), nil)
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), `unknown field \"`+key+`\"`) {
			t.Errorf("%q for %q: %d %s, want 400 naming it", key, misspelt, rec.Code, rec.Body)
		}
	}
}

// TestBuilderFormSendsItsRequest: the builder page's form sends only keys
// BuilderRequest and BuilderWebpage name, which the endpoint, refusing any
// other, would answer 400.
func TestBuilderFormSendsItsRequest(t *testing.T) {
	tags := map[string]bool{}
	for _, typ := range []reflect.Type{reflect.TypeOf(BuilderRequest{}), reflect.TypeOf(BuilderWebpage{})} {
		for i := 0; i < typ.NumField(); i++ {
			name, _, _ := strings.Cut(typ.Field(i).Tag.Get("json"), ",")
			tags[name] = true
		}
	}
	// The two object literals the form's script builds the request from: a
	// webpage's, and the request's.
	member := regexp.MustCompile(`(?m)(?:^|[{,])\s*([a-z_]+):\s`)
	var sent []string
	for _, literal := range []string{"return {", "const req = {"} {
		_, body, ok := strings.Cut(builderPageHTML, literal)
		if !ok {
			t.Fatalf("the form's script has no %q", literal)
		}
		body, _, _ = strings.Cut(body, "}")
		for _, m := range member.FindAllStringSubmatch(body, -1) {
			sent = append(sent, m[1])
		}
	}
	if len(sent) != 7 {
		t.Errorf("the form sends %v, seven keys expected", sent)
	}
	for _, key := range sent {
		if !tags[key] {
			t.Errorf("the form sends %q, which BuilderRequest does not name", key)
		}
	}
}

func TestBuilderPage(t *testing.T) {
	srv, _ := prepTest(t)
	rec := doJSON(t, srv, http.MethodGet, "/builder", nil, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	body := rec.Body.String()
	if !strings.Contains(body, "parameter builder") || !strings.Contains(body, "/api/params/build") {
		t.Error("builder page incomplete")
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Errorf("content type = %q", ct)
	}
}
