package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	steadystate "repro"
	"repro/internal/sweep"
)

// codeStatus is the HTTP status each wire error code is served with.
var codeStatus = map[string]int{
	CodeBadScenario:      400,
	CodeBodyTooLarge:     413,
	CodeQueueFull:        503,
	CodeDeadlineExceeded: 504,
	CodeUnsolvable:       400,
	CodeInternal:         500,
	CodeDraining:         503,
	CodeMethodNotAllowed: 405,
}

// FuzzServe drives the HTTP boundary with arbitrary bodies through
// Handler, on one server for the whole run: each input is posted to
// /solve, and as one line to /sweep. /solve must answer 200 with a Report,
// or 400, 413 or 504 with a structured error whose code is a wire code
// served with its own status — bad input is never a server fault (500).
// /sweep must answer 200 with one decodable Record per non-empty line.
// The seeds are the sweep corpus (its truncated file included) and a
// scenario whose costs carry an exponent.
func FuzzServe(f *testing.F) {
	files, err := filepath.Glob("../../testdata/sweep/*.json")
	if err != nil || len(files) == 0 {
		f.Fatalf("sweep corpus: %v (%d files)", err, len(files))
	}
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add(exponentCostScenario)

	s := New(Config{Workers: 1, CacheSize: -1})
	f.Cleanup(s.Close)
	h := s.Handler()
	post := func(path string, body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		return rec
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		rec := post("/solve?timeout=2s", body)
		switch rec.Code {
		case 200:
			var rep steadystate.Report
			if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
				t.Fatalf("/solve 200 body is not a Report: %v: %q", err, rec.Body.Bytes())
			}
		case 400, 413, 504:
			var eb errorBody
			if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || eb.Error == nil {
				t.Fatalf("/solve %d body is not a structured error (%v): %q", rec.Code, err, rec.Body.Bytes())
			}
			if status, ok := codeStatus[eb.Error.Code]; !ok || status != rec.Code {
				t.Fatalf("/solve answered %d with code %q", rec.Code, eb.Error.Code)
			}
		default:
			t.Fatalf("/solve answered %d: %q", rec.Code, rec.Body.Bytes())
		}

		line := bytes.ReplaceAll(body, []byte("\n"), []byte(" "))
		rec = post("/sweep?timeout=2s", line)
		if rec.Code != 200 {
			t.Fatalf("/sweep answered %d: %q", rec.Code, rec.Body.Bytes())
		}
		want := 0
		if len(bytes.TrimSpace(line)) > 0 {
			want = 1
		}
		got := 0
		sc := bufio.NewScanner(rec.Body)
		sc.Buffer(nil, 1<<26)
		for sc.Scan() {
			if len(bytes.TrimSpace(sc.Bytes())) == 0 {
				continue
			}
			var r sweep.Record
			if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
				t.Fatalf("/sweep line is not a Record: %v: %q", err, sc.Bytes())
			}
			got++
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("/sweep answered %d records for %d non-empty lines: %q", got, want, rec.Body.Bytes())
		}
	})
}
