package metrics

import (
	"io"
	"math"
	"net/http/httptest"
	"strconv"
	"testing"
)

func TestWriterRendersFamiliesAndSamples(t *testing.T) {
	var w Writer
	w.Family("x_total", "Things seen.", "counter")
	w.Uint("x_total", 18446744073709551615)
	w.Uint("x_total", 0, "a", "1", "b", "2")
	w.Family("y", "A gauge.", "gauge")
	w.Uint("y", 3, "k", "v")
	w.Float("y", 90)
	w.Float("y", 0.25)
	w.Float("y", math.Inf(1))
	want := `# HELP x_total Things seen.
# TYPE x_total counter
x_total 18446744073709551615
x_total{a="1",b="2"} 0
# HELP y A gauge.
# TYPE y gauge
y{k="v"} 3
y 90
y 0.25
y +Inf
`
	if got := w.String(); got != want {
		t.Fatalf("got:\n%s\nwant:\n%s", got, want)
	}
}

// The text format knows three escapes in a label value — \\, \" and
// \n — and no others: Go's %q forms (\t, \u00a0) make a scrape fail to
// parse, so tabs and non-ASCII runes pass through raw.
func TestLabelAndHelpEscaping(t *testing.T) {
	var w Writer
	w.Family("m", "back\\slash \"quoted\"\nline\ttab\u00a0nbsp", "gauge")
	w.Uint("m", 1, "log", "Argon\t2018")
	w.Uint("m", 2, "log", "Nimbus\u00a02018")
	w.Uint("m", 3, "log", `say "hi"`)
	w.Uint("m", 4, "log", `C:\logs`)
	w.Uint("m", 5, "log", "two\nlines")
	want := "# HELP m back\\\\slash \"quoted\"\\nline\ttab\u00a0nbsp\n" +
		"# TYPE m gauge\n" +
		"m{log=\"Argon\t2018\"} 1\n" +
		"m{log=\"Nimbus\u00a02018\"} 2\n" +
		`m{log="say \"hi\""} 3` + "\n" +
		`m{log="C:\\logs"} 4` + "\n" +
		`m{log="two\nlines"} 5` + "\n"
	if got := w.String(); got != want {
		t.Fatalf("got:\n%q\nwant:\n%q", got, want)
	}
}

func TestHandlerServesFreshExposition(t *testing.T) {
	n := 0
	h := Handler(func(w *Writer) {
		n++
		w.Family("scrapes_total", "Scrapes served.", "counter")
		w.Uint("scrapes_total", uint64(n))
	})
	for i := 1; i <= 2; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
		if ct := rec.Header().Get("Content-Type"); ct != ContentType {
			t.Fatalf("Content-Type %q, want %q", ct, ContentType)
		}
		body, _ := io.ReadAll(rec.Body)
		want := "# HELP scrapes_total Scrapes served.\n# TYPE scrapes_total counter\nscrapes_total " + strconv.Itoa(i) + "\n"
		if string(body) != want {
			t.Fatalf("scrape %d:\n%s\nwant:\n%s", i, body, want)
		}
	}
}
