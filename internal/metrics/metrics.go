// Package metrics writes the Prometheus text exposition format
// (version 0.0.4): family headers, samples with label pairs, and the
// escaping the format allows. It keeps no state of its own — each
// exporter renders the counters it already holds at scrape time — so
// there is no registry and no counter or gauge type.
package metrics

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"
)

// ContentType is the Content-Type of a text exposition.
const ContentType = "text/plain; version=0.0.4"

// The format's only escapes: backslash and line feed, plus the double
// quote inside a label value. Every other byte, multi-byte UTF-8
// included, passes through as is (Go's %q forms, such as \t or
// \u00a0, would not parse).
var (
	helpEscaper  = strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	labelEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`)
)

// Writer accumulates one exposition. The zero value is ready to use.
type Writer struct {
	b []byte
}

// Family starts a metric family: its # HELP and # TYPE lines. typ is
// "counter" or "gauge".
func (w *Writer) Family(name, help, typ string) {
	w.b = fmt.Appendf(w.b, "# HELP %s %s\n# TYPE %s %s\n", name, helpEscaper.Replace(help), name, typ)
}

// Uint writes one integer sample. labels alternate label names and
// values.
func (w *Writer) Uint(name string, v uint64, labels ...string) {
	w.series(name, labels)
	w.b = append(strconv.AppendUint(w.b, v, 10), '\n')
}

// Float writes one sample in the shortest form that parses back to v.
// labels alternate label names and values.
func (w *Writer) Float(name string, v float64, labels ...string) {
	w.series(name, labels)
	w.b = append(strconv.AppendFloat(w.b, v, 'g', -1, 64), '\n')
}

// String returns the exposition written so far.
func (w *Writer) String() string { return string(w.b) }

// series writes a sample's name and label set, up to its value.
func (w *Writer) series(name string, labels []string) {
	if len(labels)%2 != 0 {
		panic("metrics: odd label list for " + name)
	}
	w.b = append(w.b, name...)
	sep := "{"
	for i := 0; i < len(labels); i += 2 {
		w.b = fmt.Appendf(w.b, `%s%s="%s"`, sep, labels[i], labelEscaper.Replace(labels[i+1]))
		sep = ","
	}
	if len(labels) > 0 {
		w.b = append(w.b, '}')
	}
	w.b = append(w.b, ' ')
}

// Handler serves one freshly rendered exposition per request: write
// fills the Writer from the caller's own state.
func Handler(write func(*Writer)) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, _ *http.Request) {
		var w Writer
		write(&w)
		rw.Header().Set("Content-Type", ContentType)
		rw.Write(w.b)
	})
}
